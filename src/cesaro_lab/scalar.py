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

    One columnar chain computes it: model.abs_prefix_sums gives the
    support indices and the compensated prefix sums as two columns,
    _norm_from_prefixes takes the scale exponent from the largest
    prefix(i)/i, and numerics.power_runs_bracket brackets the runs from
    the same columns.  Below numerics._FLOAT_RUNS_BELOW entries the
    columns are lists and the bracket runs on Python floats, so a short
    vector never loads numpy; from there on they are float arrays,
    built once from the entries, and every later step is a numpy call.
    The embedding's outer norm (embeddings.embedded_outer_norm) feeds
    the same chain its block masses as list columns of any length: they
    cost O(nnz**2) additions, so array columns would save it nothing.

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
    _CELL_CHUNK cells evaluates them all.  numerics.gauss_legendre is
    that pass, and bisection makes one more call of it per split, for
    both halves.  numerics.fsum_columns reduces
    each rule's node values to the sums fsum gives, bit for bit, with
    whole-array operations from 40 cells of a pass on, and such a pass
    takes its acceptance test on arrays too (_ARRAY_TEST_FROM).  A cell
    costs about 10 us on floats.  On numpy ces_fun_norm costs about
    20 us plus 3.3 us per cell below 40 cells, and about 1.7 us per cell
    in full passes.  ces_fun_norm at p = 1.5 in us, best of 400
    interleaved passes over 20 random functions whose cells are all
    accepted, on a 2-vCPU x86-64 machine:

        later cells    1     2     3     4
        floats         22    33    41    54
        numpy          31    38    38    44

    ces_fun_norm with each rule of a pass reduced cell by cell through
    fsum on lists, and with fsum_columns and the test on arrays, best of
    600 interleaved passes up to 12 cells, 400 up to 64 and 40 beyond:

        cells              3    4    5    6    8   12   16   24   32
        fsum per cell     31   32   39   43   46   61   68   93  119
        fsum_columns      29   34   41   45   47   62   68   92  117

        cells             40   41   64  256  1024
        fsum per cell    150  154  221  865  3717
        fsum_columns     148  149  169  438  1725

    At 3 cells both take the float path.  From 4 to 8 cells a pass is
    1 to 2 us slower: its few rule sums go from lists to arrays and back.

    The prelude (_quadrature_prelude: |h| scaled, the breakpoints and
    the prefix F(t_k) by running_sums) is built once per function, as
    lists below _ARRAY_TEST_FROM cells after the first and as arrays
    from there on, which the passes slice.  In us, best of 25 passes:

        cells      16    32    41    48    64   128   256   1000
        lists     6.8  11.0  13.7  15.6  20.1  38.9  74.4  275.4
        arrays   16.4  17.1  17.6  17.7  18.5  21.4  28.1   62.4

    The prelude alone meets at about 55 cells; from 40 cells a pass's
    acceptance test on arrays saves as much (the table above), so one
    constant serves both.

    |h| is always scaled by the power of two that puts max|h| in [1/2, 1).
    At p = 1 the norm collapses to the exact weighted integral with
    weight log(1/s) and is evaluated in closed form.
"""

from __future__ import annotations

import math
from operator import truediv

from .model import (
    CheckReport,
    DomainError,
    InvalidExponent,
    InvalidTolerance,
    NormResult,
    SpaceMismatch,
    StepFunction,
    _scale_exponent,
    _scaled_magnitudes,
    _unscale,
    abs_prefix_sums,
    as_exponent,
    require_positive_finite,
)
from .numerics import (
    EPS,
    adaptive_integral,
    fsum_array,
    gauss_legendre,
    gl_rule,
    power_bracket_to_norm,
    power_runs_bracket,
    running_sums,
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
# batched passes over fewer cells than this take the acceptance test
# cell by cell on floats, longer ones on arrays, and functions with
# fewer cells after the first build their magnitudes and prefix as
# lists, longer ones as arrays: the measured crossovers (module docstring)
_ARRAY_TEST_FROM = 40


# ---------------------------------------------------------------------------
# sequence norm
# ---------------------------------------------------------------------------

def _norm_from_prefixes(starts, prefixes, p: float, tol: float) -> NormResult:
    """(sum_{n>=1} (prefix(n)/n)**p)**(1/p) from the columns of support
    indices and prefixes (model.abs_prefix_sums): lists, or float
    arrays from _FLOAT_RUNS_BELOW entries on.

    The prefix is constant between support indices, so the series is a
    sum over runs, bracketed in O(len(starts)) by power_runs_bracket,
    which takes the columns as they are.  The prefixes are first scaled
    by the power of two that puts the largest average prefix(i)/i in
    [1/2, 1): exact, and it keeps every term in range for any magnitude
    of the input.
    """
    if not len(starts):
        return NormResult(0.0, 0.0, exact=True)
    if not math.isfinite(prefixes[-1]):
        raise DomainError("the l1 mass of the input exceeds the float range")
    _, exp2 = math.frexp(max(map(truediv, prefixes, starts)) if isinstance(prefixes, list)
                         else float((prefixes / starts).max()))
    lo, hi = power_runs_bracket(starts, prefixes, p, exp2)
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
    return _norm_from_prefixes(*abs_prefix_sums(a), p.p, tol)


# ---------------------------------------------------------------------------
# function norms
# ---------------------------------------------------------------------------

def _abs_values(h: StepFunction) -> list[float]:
    if not h.is_scalar:
        raise SpaceMismatch("expected a scalar step function")
    return [abs(v) for v in h.values]


def _inner_prefix(mags: list[float], h: StepFunction) -> list[float]:
    """F(t_k) = int_0^{t_k} mags at every breakpoint of h (exact, compensated)."""
    return [0.0, *running_sums([m * (b - a) for m, (a, b) in zip(mags, h.partition.cells)])]


def _quadrature_prelude(h: StepFunction, p: float):
    """(mags, exp2, ends, prefix) of the quadrature route: |h| divided by
    the power of two 2**exp2 that puts its maximum in [1/2, 1)
    (_scaled_magnitudes), the breakpoints, and _inner_prefix of mags.

    Lists (ends the breakpoint tuple) below _ARRAY_TEST_FROM cells after
    the first, 1-D arrays from there on, built once per function: abs,
    the exact scaling, the cell masses m (b - a) and running_sums do the
    same arithmetic on both, so the bits agree.
    """
    if h.partition.cell_count - 1 < _ARRAY_TEST_FROM or not h.is_scalar:  # _abs_values rejects a vector h
        mags, exp2 = _scaled_magnitudes(_abs_values(h), p)
        return mags, exp2, h.partition.breakpoints, _inner_prefix(mags, h)
    import numpy as np

    mags = np.abs(np.fromiter(h.values, float, len(h.values)))
    exp2 = _scale_exponent(float(mags.max()), p)
    mags = np.ldexp(mags, -exp2)
    ends = np.fromiter(h.partition.breakpoints, float, len(h.values) + 1)
    return mags, exp2, ends, np.concatenate(([0.0], running_sums(mags * np.diff(ends))))


def weighted_l1_norm(h: StepFunction) -> NormResult:
    """Integral of |h(s)| log(1/s) via the antiderivative s - s log s.

    Exact up to rounding; this is the p = 1 Cesaro function norm.
    Raises DomainError when the norm exceeds the float range.
    """
    mags, exp2 = _scaled_magnitudes(_abs_values(h), 1.0)
    pieces = [_anti_difference(a, b) for a, b in h.partition.cells]
    total = math.fsum([m * d for m, (d, _) in zip(mags, pieces)])
    err = 8.0 * EPS * (math.fsum([m * size for m, (_, size) in zip(mags, pieces)]) + total)
    return NormResult(*_unscale(total, err, exp2, "function"), exact=True)


def _anti_difference(a: float, b: float) -> tuple[float, float]:
    """(anti(b) - anti(a), P1 + P2) for anti(s) = s - s log s, 0 <= a < b <= 1:
    P1 - P2 with P1 = (b - a)(1 - log b) and P2 = a log(b/a), both >= 0,
    so a narrow cell does not cancel.  log(b/a) is log1p((b - a)/a) for
    b - a <= a, else -log(a/b), where (b - a)/a could overflow.  With
    4 ulps per log or log1p and EPS/2 per operation each piece is within
    5.5 EPS of itself and m (P1 - P2) within 6.5 EPS of m (P1 + P2).
    """
    d = b - a
    p1 = d * (1.0 - math.log(b))
    if d <= a:
        p2 = a * math.log1p(d / a)
    else:
        p2 = -a * math.log(a / b) if a else 0.0
    return p1 - p2, p1 + p2


def _range_error(p: float) -> DomainError:
    return DomainError(f"the integral of the p-th power leaves the float range at p = {p!r}")


def _integrand(fk, mk, tk, p: float):
    """t -> ((F_k + m_k (t - t_k)) / t)**p on cell k, for an array t, with
    t - t_k >= 0 at nodes that rounding puts left of an ulp-wide cell."""
    import numpy as np

    return lambda t: ((fk + mk * np.maximum(t - tk, 0.0)) / t) ** p


def _rule_pair_on_floats(fk: float, mk: float, a: float, b: float, p: float) -> tuple[float, float]:
    """The NODES_PER_CELL and 2 NODES_PER_CELL estimates of gauss_legendre
    on the one cell [a, b], on Python floats: the same arithmetic
    (t = mid + half x, w f(t), half fsum(row)), with _integrand written
    out, clamp included, as a call per node would cost more than the
    node's arithmetic.

    Where numpy's power gives inf, ** raises OverflowError, which
    becomes the DomainError of a non-finite total.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    try:
        coarse, fine = (half * math.fsum([w * ((fk + mk * (t - a if (t := mid + half * x) > a else 0.0)) / t) ** p
                                          for x, w in zip(nodes, weights)])
                        for nodes, weights in (gl_rule(NODES_PER_CELL), gl_rule(2 * NODES_PER_CELL)))
    except OverflowError:
        raise _range_error(p) from None
    return coarse, fine


def _test_on_floats(lo: int, pairs, tol: float):
    """(values, errors, rejected) of _accepted_cells for the (coarse, fine)
    pairs of the cells lo, lo + 1, ..., cell by cell on Python floats."""
    values, errors, rejected = [], [], []
    for k, (c, f) in enumerate(pairs, lo):
        diff = abs(f - c)
        if diff <= tol * abs(f):
            values.append(f)
            errors.append(diff + 4.0 * EPS * abs(f))
        else:
            rejected.append(k)
    return values, errors, rejected


def _accepted_cells(prefix, mags, ends, p: float, tol: float):
    """The NODES_PER_CELL and 2 NODES_PER_CELL Gauss-Legendre rules on
    every cell after the first, and their acceptance test, batch by batch.

    Yields (values, errors, rejected): the fine estimate f and the error
    |f - c| + 4 EPS |f| of each cell with |f - c| <= tol |f| (c the
    coarse estimate), and the indices of the other cells.  Fewer than
    _FLOAT_CELLS_BELOW cells go cell by cell through _rule_pair_on_floats,
    more through one gauss_legendre pass per _CELL_CHUNK cells of
    slices of the prelude's arrays, which takes the test on arrays from
    _ARRAY_TEST_FROM cells on; the arithmetic is the same but for pow
    (libm's and numpy's SIMD loop differ by an ulp in about 5% of
    evaluations).  The module docstring has the measured crossovers.
    """
    if len(mags) - 1 < _FLOAT_CELLS_BELOW:
        yield _test_on_floats(1, [_rule_pair_on_floats(prefix[k], mags[k], ends[k], ends[k + 1], p)
                                  for k in range(1, len(mags))], tol)
        return
    import numpy as np

    prefix, mags, ends = np.asarray(prefix), np.asarray(mags), np.asarray(ends)
    for lo in range(1, len(mags), _CELL_CHUNK):
        hi = min(lo + _CELL_CHUNK, len(mags))
        a = ends[lo:hi]
        fn = _integrand(prefix[lo:hi], mags[lo:hi], a, p)
        coarse, fine = gauss_legendre(fn, a, ends[lo + 1 : hi + 1], NODES_PER_CELL)
        if hi - lo < _ARRAY_TEST_FROM:
            yield _test_on_floats(lo, zip(coarse.tolist(), fine.tolist()), tol)
            continue
        with np.errstate(invalid="ignore"):  # an inf estimate is rejected, as on floats
            diff = np.abs(fine - coarse)
        size = np.abs(fine)
        ok = diff <= tol * size
        errs = diff + 4.0 * EPS * size
        if ok.all():
            yield fine.tolist(), errs.tolist(), []
        else:
            yield fine[ok].tolist(), errs[ok].tolist(), (np.flatnonzero(~ok) + lo).tolist()


def _ces_fun_norm_quadrature(h: StepFunction, p: float, tol: float) -> NormResult:
    """Quadrature route of the function norm for any p >= 1.

    Every cell after the first gets the NODES_PER_CELL and 2 NODES_PER_CELL
    Gauss-Legendre rules and the acceptance test of _accepted_cells; only
    a rejected cell is bisected by adaptive_integral.  Either way each
    cell's value and error are those of a one-interval adaptive_integral
    call (whose "or err == 0" clause is implied by the test, as err and
    |fine| are nonnegative), and fsum adds them in any order.

    Exposed separately so the p = 1 closed form can be cross-checked
    against an actual integration of the same integrand.
    """
    mags, exp2, ends, prefix = _quadrature_prelude(h, p)
    bps = h.partition.breakpoints

    # first cell: (F(t)/t)**p == |h_1|**p, integrate exactly (libm's pow
    # on a Python float, on either prelude)
    first = (float(mags[0]) ** p) * bps[1]

    values: list[float] = []
    errors: list[float] = []
    converged = True
    for accepted, accepted_errors, rejected in _accepted_cells(prefix, mags, ends, p, tol):
        values += accepted
        errors += accepted_errors
        for k in rejected:
            outcome = adaptive_integral(
                _integrand(float(prefix[k]), float(mags[k]), bps[k], p),
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
    value, err = _unscale(*power_bracket_to_norm(total - tail_err, total + tail_err, p), exp2, "function")
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

    |h| is scaled as for the Cesaro function norm, so the root is y < 1;
    the sum is within 2 EPS, the root within 1 ulp plus (EPS/2) |ln y|
    for the rounded 1/r.  Raises DomainError when the norm leaves the
    float range.
    """
    if r == math.inf:
        return NormResult(max(_abs_values(h)), 0.0, exact=True)
    if not r >= 1.0:
        raise InvalidExponent(f"Lebesgue norm requires r >= 1, got {r!r}")
    mags, exp2 = _scaled_magnitudes(_abs_values(h), r)
    widths = h.partition.widths
    total = fsum_array([m ** r * w for m, w in zip(mags, widths)])
    value = total ** (1.0 / r)
    err = EPS * value * max(8.0, 3.0 - 0.5 * math.log(value)) if value else 0.0
    return NormResult(*_unscale(value, err, exp2, "Lebesgue"), exact=True)


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
            avg = (prefix[k] + mags[k] * (t - a if t > a else 0.0)) / t
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
