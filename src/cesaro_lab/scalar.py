"""Scalar Cesaro norms with certified error bounds.

Sequence norm
    ||a|| = ( sum_{n>=1} ((1/n) sum_{i<=n} |a_i|)**p )**(1/p),  p > 1.
    The running sum is constant between support indices, so the series
    is a sum over runs, the last one infinite.  Terms below a small
    index are summed directly; every run beyond is summed in closed
    form by Euler-Maclaurin, with the first omitted Bernoulli correction
    bounding the remainder and a derived rounding allowance.  The cost
    is O(nnz) whatever the support index or tol, and the returned error
    bound is certified.

Function norm
    ||h|| = ( int_0^1 ((1/t) int_0^t |h|)**p dt )**(1/p).
    The inner integral of a step function is piecewise linear and exact.
    On the first cell the integrand is the constant |h_1|**p (this is
    what removes the t -> 0 singularity); later cells are smooth.  The
    n- and 2n-point Gauss-Legendre rules are evaluated on every later
    cell, and each cell whose two estimates agree to the relative tol is
    accepted; only the rejected cells are bisected by adaptive
    Gauss-Legendre.  With fewer than _FLOAT_CELLS_BELOW later cells the
    rules run cell by cell on Python floats, which is cheaper there and
    leaves numpy unimported; with more, one batched numpy pass per
    _CELL_CHUNK cells evaluates them all.  A cell costs about 11 us on
    floats; a pass costs about 20 us plus 1 us per cell.  ces_fun_norm
    at p = 1.5 in us, best of 150 interleaved passes over 20 random
    functions whose cells are all accepted, on a 2-vCPU x86-64 machine:

        later cells    1     2     3     4
        floats         18    28    41    52
        numpy          26    31    36    39

    |h| is scaled by a power of two when max|h|**p would leave the float
    range.  At p = 1 the norm collapses to the exact weighted integral
    with weight log(1/s) and is evaluated in closed form.
"""

from __future__ import annotations

import math

from .model import (
    CheckReport,
    DomainError,
    InvalidExponent,
    InvalidTolerance,
    NormResult,
    SpaceMismatch,
    StepFunction,
    _scaled_magnitudes,
    _unscale,
    abs_prefix_sums,
    as_exponent,
    require_positive_finite,
)
from .numerics import (
    EPS,
    RunningSum,
    adaptive_integral,
    fsum_array,
    gauss_legendre_pairs,
    gl_rule,
    power_bracket_to_norm,
    power_runs_bracket,
)

# absolute tol of the sequence norms, relative per-cell tol of the
# function-norm quadrature
DEFAULT_TOL = 1e-10

# the quadrature's coarse rule per cell (the fine rule has twice the
# nodes) and the bisection depth of a rejected cell; read at call time
NODES_PER_CELL = 16
MAX_SUBDIVISIONS = 60

# cells per batched Gauss-Legendre pass: the 2-D node arrays of a pass
# stay at _CELL_CHUNK x 3 NODES_PER_CELL doubles whatever the cell count,
# which keeps peak memory flat on functions with many cells
_CELL_CHUNK = 256
# functions with fewer cells after the first than this get their rule
# pairs cell by cell on Python floats, longer ones the batched numpy
# pass: the measured crossover (module docstring)
_FLOAT_CELLS_BELOW = 3


# ---------------------------------------------------------------------------
# sequence norm
# ---------------------------------------------------------------------------

def _norm_from_prefixes(prefixes, p: float, tol: float) -> NormResult:
    """(sum_{n>=1} (prefix(n)/n)**p)**(1/p) from (support index, prefix) pairs.

    The prefix is constant between support indices, so the series is a
    sum over runs, bracketed in O(len(prefixes)) by power_runs_bracket.
    The prefixes are first scaled by the power of two that puts the
    largest average prefix(i)/i in [1/2, 1): exact, and it keeps every
    term in range for any magnitude of the input.
    """
    if not prefixes:
        return NormResult(0.0, 0.0, exact=True)
    starts = [i for i, _ in prefixes]
    if not math.isfinite(prefixes[-1][1]):
        raise DomainError("the l1 mass of the input exceeds the float range")
    _, exp2 = math.frexp(max(s / i for i, s in prefixes))
    lo, hi = power_runs_bracket(starts, [s for _, s in prefixes], p, exp2)
    if not (math.isfinite(lo) and math.isfinite(hi)):  # the Euler-Maclaurin factors overflow
        raise DomainError(f"the sequence norm bracket leaves the float range at p = {p!r}")
    value, err = power_bracket_to_norm(lo, hi, p)
    value, err = _unscale(value, err, exp2, "sequence")
    warning = None
    if err > tol:
        warning = "certified bracket wider than tol; error_bound is the honest bound"
    return NormResult(value, err, exact=False, warning=warning)


def ces_seq_norm(a, p, tol: float = DEFAULT_TOL) -> NormResult:
    """Cesaro sequence norm of a finitely supported vector, p > 1.

    Raises InvalidExponent at p = 1, where only the zero sequence has a
    finite norm, and DomainError when the l1 mass or the norm exceeds
    the float range.  The error bound is at most tol unless tol is below
    the rounding floor, in which case the result carries a warning and
    the honest bound.
    """
    p = as_exponent(p)
    if p.is_one:
        raise InvalidExponent("sequence norm requires p > 1 (the p = 1 space is trivial)")
    require_positive_finite(InvalidTolerance, tol=tol)
    return _norm_from_prefixes(abs_prefix_sums(a), p.p, tol)


# ---------------------------------------------------------------------------
# function norms
# ---------------------------------------------------------------------------

def _abs_values(h: StepFunction) -> list[float]:
    if not h.is_scalar:
        raise SpaceMismatch("expected a scalar step function")
    return [abs(v) for v in h.values]


def _inner_prefix(mags: list[float], h: StepFunction) -> list[float]:
    """F(t_k) = int_0^{t_k} mags at every breakpoint of h (exact, compensated)."""
    acc = RunningSum()
    out = [0.0]
    for m, (a, b) in zip(mags, h.partition.cells):
        out.append(acc.add(m * (b - a)))
    return out


def weighted_l1_norm(h: StepFunction) -> NormResult:
    """Integral of |h(s)| log(1/s) via the antiderivative s - s log s.

    Exact up to rounding; this is the p = 1 Cesaro function norm.
    Raises DomainError when the norm exceeds the float range.
    """
    mags, exp2 = _scaled_magnitudes(_abs_values(h), 1.0)

    def anti(s: float) -> float:
        if s == 0.0:
            return 0.0
        return s - s * math.log(s)

    terms = [m * (anti(b) - anti(a)) for m, (a, b) in zip(mags, h.partition.cells)]
    total = math.fsum(terms)
    spread = math.fsum(abs(t) for t in terms)
    err = 8.0 * EPS * (spread + abs(total))
    if exp2:
        total, err = _unscale(total, err, exp2, "function")
    return NormResult(total, err, exact=True)


def _range_error(p: float) -> DomainError:
    return DomainError(f"the integral of the p-th power leaves the float range at p = {p!r}")


def _integrand(fk, mk, tk, p: float):
    """t -> ((F_k + m_k (t - t_k)) / t)**p on cell k, for an array t."""
    return lambda t: ((fk + mk * (t - tk)) / t) ** p


def _rule_pair_on_floats(fk: float, mk: float, a: float, b: float, p: float) -> tuple[float, float]:
    """The NODES_PER_CELL and 2 NODES_PER_CELL estimates of gauss_legendre_pairs
    on the one cell [a, b], on Python floats: the same arithmetic
    (t = mid + half x, w f(t), half fsum(row)), with _integrand written
    out, as a call per node would cost more than the node's arithmetic.

    Where numpy's power gives inf, ** raises OverflowError; where it
    gives nan (a base that rounding made negative, at a fractional p),
    ** gives a complex number, which fsum rejects with TypeError.  Both
    become the DomainError of a non-finite total.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    try:
        coarse, fine = (half * math.fsum([w * ((fk + mk * (t - a)) / t) ** p
                                          for w, t in zip(weights, [mid + half * x for x in nodes])])
                        for nodes, weights in (gl_rule(NODES_PER_CELL), gl_rule(2 * NODES_PER_CELL)))
    except (OverflowError, TypeError):
        raise _range_error(p) from None
    return coarse, fine


def _rule_pairs(prefix: list[float], mags: list[float], bps, p: float):
    """(k, coarse, fine) for every cell k after the first: the
    NODES_PER_CELL and 2 NODES_PER_CELL Gauss-Legendre estimates.

    Fewer than _FLOAT_CELLS_BELOW cells go cell by cell through
    _rule_pair_on_floats, more through one gauss_legendre_pairs pass per
    _CELL_CHUNK cells; the arithmetic is the same but for pow (libm's
    and numpy's SIMD loop differ by an ulp in about 5% of evaluations).
    The module docstring has the measured crossover.
    """
    if len(mags) - 1 < _FLOAT_CELLS_BELOW:
        for k in range(1, len(mags)):
            yield (k, *_rule_pair_on_floats(prefix[k], mags[k], bps[k], bps[k + 1], p))
        return
    import numpy as np

    for lo in range(1, len(mags), _CELL_CHUNK):
        hi = min(lo + _CELL_CHUNK, len(mags))
        a, b = bps[lo:hi], bps[lo + 1 : hi + 1]
        fn = _integrand(np.array(prefix[lo:hi])[:, None], np.array(mags[lo:hi])[:, None],
                        np.array(a)[:, None], p)
        yield from zip(range(lo, hi), *gauss_legendre_pairs(fn, a, b, NODES_PER_CELL))


def _ces_fun_norm_quadrature(h: StepFunction, p: float, tol: float) -> NormResult:
    """Quadrature route of the function norm for any p >= 1.

    Every cell after the first gets the NODES_PER_CELL and 2 NODES_PER_CELL
    Gauss-Legendre rules (_rule_pairs).  A cell is accepted when
    |fine - coarse| <= tol |fine|, with error |fine - coarse| + 4 EPS |fine|;
    only a rejected cell is bisected by adaptive_integral.  Either way
    each cell's value and error are those of a one-interval
    adaptive_integral call (whose "or err == 0" clause is implied here,
    as err and |fine| are nonnegative).

    Exposed separately so the p = 1 closed form can be cross-checked
    against an actual integration of the same integrand.
    """
    mags, exp2 = _scaled_magnitudes(_abs_values(h), p)
    bps = h.partition.breakpoints
    prefix = _inner_prefix(mags, h)

    # first cell: (F(t)/t)**p == |h_1|**p, integrate exactly
    first = (mags[0] ** p) * bps[1]

    values: list[float] = []
    errors: list[float] = []
    converged = True
    for k, c, f in _rule_pairs(prefix, mags, bps, p):
        diff = abs(f - c)
        if diff <= tol * abs(f):
            values.append(f)
            errors.append(diff + 4.0 * EPS * abs(f))
            continue
        outcome = adaptive_integral(
            _integrand(prefix[k], mags[k], bps[k], p),
            [(bps[k], bps[k + 1])],
            tol,
            NODES_PER_CELL,
            MAX_SUBDIVISIONS,
        )
        values.append(outcome.value)
        errors.append(outcome.error_bound)
        converged = converged and outcome.converged

    total = first + math.fsum(values)
    tail_err = math.fsum(errors)
    if not math.isfinite(total + tail_err):  # p so large that rounding above max|h| overflows
        raise _range_error(p)
    value, err = power_bracket_to_norm(total - tail_err, total + tail_err, p)
    if exp2:
        value, err = _unscale(value, err, exp2, "function")
    warning = None if converged else "quadrature subdivision budget exhausted"
    exact = len(mags) == 1  # single-cell input integrates in closed form
    return NormResult(value, err, exact=exact, warning=warning)


def ces_fun_norm(h: StepFunction, p, tol: float = DEFAULT_TOL) -> NormResult:
    """Cesaro function norm of a scalar step function, p >= 1.

    The p = 1 case routes to the exact weighted closed form (and is
    flagged exact); otherwise the outer integral is evaluated by batched
    per-cell Gauss-Legendre to the relative tol, bisecting only the
    cells it rejects.  Raises InvalidTolerance unless tol is positive
    and finite, and DomainError when the norm or the p-th powers leave
    the float range.
    """
    p = as_exponent(p)
    require_positive_finite(InvalidTolerance, tol=tol)
    if p.is_one:
        return weighted_l1_norm(h)
    return _ces_fun_norm_quadrature(h, p.p, tol)


def lr_fun_norm(h: StepFunction, r: float) -> NormResult:
    """Lebesgue norm of a scalar step function for r in [1, inf]; exact.

    |h| is scaled by a power of two when max|h|**r would leave the float
    range (as for the Cesaro function norm); raises DomainError when the
    norm itself does.
    """
    if r == math.inf:
        return NormResult(max(_abs_values(h)), 0.0, exact=True)
    if not r >= 1.0:
        raise InvalidExponent(f"Lebesgue norm requires r >= 1, got {r!r}")
    mags, exp2 = _scaled_magnitudes(_abs_values(h), r)
    widths = h.partition.widths
    total = fsum_array([m ** r * w for m, w in zip(mags, widths)])
    result = NormResult.closed_form(total ** (1.0 / r))
    if exp2:
        value, err = _unscale(result.value, result.error_bound, exp2, "Lebesgue")
        result = NormResult(value, err, exact=True)
    return result


def lp_fun_norm(h: StepFunction, p) -> NormResult:
    return lr_fun_norm(h, as_exponent(p).p)


def ces_fun_integrand_samples(h: StepFunction, p):
    """(t, inner average, integrand) triples on per-cell Gauss nodes.

    Plot-ready sampling of t -> (1/t) int_0^t |h| and its p-th power on
    the same node layout the quadrature uses, on Python floats.  Raises
    DomainError when a sample leaves the float range.
    """
    p = as_exponent(p).p
    mags = _abs_values(h)
    prefix = _inner_prefix(mags, h)
    bps = h.partition.breakpoints
    nodes, _ = gl_rule(NODES_PER_CELL)
    rows = []
    for k in range(len(mags)):
        a, b = bps[k], bps[k + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for x in nodes:
            t = mid + half * x
            avg = (prefix[k] + mags[k] * (t - a)) / t
            try:
                integrand = math.pow(avg, p)
            except (OverflowError, ValueError):
                integrand = math.inf
            if not math.isfinite(integrand):
                raise DomainError(f"the integrand at t = {t!r} leaves the float range at p = {p!r}")
            rows.append((t, avg, integrand))
    return rows


def check_embedding_inequality(h: StepFunction, p, tol: float = DEFAULT_TOL) -> CheckReport:
    """Verify the Hardy-type comparison ||h||_Ces <= q * ||h||_p (p > 1)."""
    p = as_exponent(p)
    if p.is_one:
        raise InvalidExponent("the comparison needs p > 1 (q is the conjugate exponent)")
    lhs = ces_fun_norm(h, p, tol)
    lp = lp_fun_norm(h, p)
    rhs = p.q * lp.value
    rhs_err = p.q * lp.error_bound
    slack = rhs - lhs.value
    holds = lhs.value <= rhs + rhs_err + lhs.error_bound
    return CheckReport(
        check="embedding_inequality",
        holds=holds,
        quantities={
            "p": p.p,
            "q": p.q,
            "lhs": lhs.value,
            "lhs_error": lhs.error_bound,
            "lp_norm": lp.value,
            "rhs": rhs,
            "rhs_error": rhs_err,
            "slack": slack,
        },
        mode="quadrature",
    )
