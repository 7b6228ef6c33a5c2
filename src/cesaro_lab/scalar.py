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
    support indices and the compensated prefix sums as two columns, and
    the column entry seq_norm_from_prefixes takes the scale exponent
    from the largest prefix(i)/i and has numerics.power_runs_bracket
    bracket the runs from the same columns.  Below model._ARRAYS_FROM
    entries the columns are lists and the bracket runs on Python
    floats, so a short vector never loads numpy; from there on they are
    float arrays, read once off the vector's own index and coefficient
    columns (np.fromiter), and every later step is a numpy call.  The
    embedding's outer norm and vector.cesaro_sum_norm (on the vector of
    its component norms) take the same two steps.

Function norm
    ||h|| = ( int_0^1 ((1/t) int_0^t |h|)**p dt )**(1/p).
    The inner integral of a step function is piecewise linear and exact.
    On the first cell the integrand is the constant |h_1|**p (this is
    what removes the t -> 0 singularity); later cells are smooth, and
    analytic off the real segment between 0 and the zero of the inner
    average's linear continuation.  Every later cell gets the
    NODES_PER_CELL-point Gauss-Legendre rule and an a-priori bound of
    its error (Trefethen's bound on a Bernstein ellipse that avoids that
    segment, plus a derived rounding allowance: _certified_errors); a
    cell whose bound is at most tol times its estimate is accepted with
    that bound, which is certified.  That is the first tier.  Each of
    the few other cells (a first cell of no mass before them, or a zero
    of the inner average just left of them) is the second tier: one
    numerics.adaptive_integral call on Python floats, which accepts the
    doubling estimate of the n- and 2n-point rules where the two agree
    to the relative tol, and otherwise bisects the cell.  That estimate
    is not a bound.

    The first tier has two paths, and the prelude's type picks one.
    With fewer than model._ARRAYS_FROM later cells the prelude is lists
    and the rules and bounds run cell by cell on Python floats, which is
    cheaper there and leaves numpy unimported; with more, the prelude is
    arrays and one batched numpy pass per _CELL_CHUNK cells evaluates
    every cell's rule and bound (numerics.gauss_legendre;
    numerics.fsum_columns gives fsum's sums bit for bit).  The crossover
    is where the floats' cost per cell has caught up with the batched
    pass's numpy dispatch, which is about the same whatever the pass's
    length.  The second tier runs on Python floats on either path, and
    is rare past the first cells.

    |h| is always scaled by the power of two that puts max|h| in [1/2, 1).
    At p = 1 the norm collapses to the exact weighted integral with
    weight log(1/s) and is evaluated in closed form.
"""

from __future__ import annotations

import math
from operator import truediv
from typing import NamedTuple

from . import model
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
    gl_weight_error,
    power_bracket_to_norm,
    power_runs_bracket,
    running_sums,
)

# absolute tol of the sequence norms, relative per-cell tol of the
# function-norm quadrature
DEFAULT_TOL = 1e-10
# the warning of a converged norm whose certified bound misses tol
WIDE_BRACKET = "certified bracket wider than tol; error_bound is the honest bound"

# the quadrature's rule per cell, 16 points, so that it and an
# uncertified cell's fine rule of twice the nodes are the two tabled
# rules of numerics.gl_rule; and the bisection depth of a cell whose two
# rules disagree, read at call time (the tests lower only this one)
NODES_PER_CELL = 16
MAX_SUBDIVISIONS = 60

# cells per batched Gauss-Legendre pass: the 2-D node array of a pass
# stays at _CELL_CHUNK x NODES_PER_CELL doubles whatever the cell count,
# which keeps peak memory flat on functions with many cells; the bound's
# numpy dispatch costs about 35 us per pass whatever its length, so 512
# cells ran fun-quad's jobs about 10% faster than 256 (best in-process
# rounds 76 against 86 ms, alternating) with the same bits and peak memory
_CELL_CHUNK = 512


# ---------------------------------------------------------------------------
# sequence norm
# ---------------------------------------------------------------------------

def seq_norm_from_prefixes(starts, prefixes, p: float, tol: float) -> NormResult:
    """(sum_{n>=1} (prefix(n)/n)**p)**(1/p) from the columns of support
    indices and the compensated prefix sums of their magnitudes
    (model.abs_prefix_sums): lists, or float arrays, which
    abs_prefix_sums gives from model._ARRAYS_FROM entries on, and which
    the bracket follows.
    p is a float above 1 and tol positive and finite; the caller checks
    both (ces_seq_norm), once for as many columns as it norms.

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
    return NormResult(value, err, exact=False, warning=WIDE_BRACKET if err > tol else None)


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
    return seq_norm_from_prefixes(*abs_prefix_sums(a), p.p, tol)


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

    Lists (ends the breakpoint tuple) below model._ARRAYS_FROM cells
    after the first, 1-D arrays from there on, built once per function:
    abs, the exact scaling, the cell masses m (b - a) and running_sums do
    the same arithmetic on both, so the bits agree.
    """
    if h.partition.cell_count - 1 < model._ARRAYS_FROM or not h.is_scalar:  # _abs_values rejects a vector h
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


def _rule_on_floats(fk: float, mk: float, tk: float, p: float, a: float, b: float, n: int) -> float:
    """gauss_legendre's n-point estimate over [a, b] of the integrand of
    the cell that starts at tk, on Python floats: the same arithmetic
    (t = mid + half x, w f(t), half fsum(row)), with _integrand written
    out, clamp included, as a call per node would cost more than the
    node's arithmetic.

    Where numpy's power gives inf, ** raises OverflowError, which
    becomes the DomainError of a non-finite total.
    """
    nodes, weights = gl_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    try:
        return half * math.fsum([w * ((fk + mk * (t - tk if (t := mid + half * x) > tk else 0.0)) / t) ** p
                                 for x, w in zip(nodes, weights)])
    except OverflowError:
        raise _range_error(p) from None


def _rule_pair(fk: float, mk: float, tk: float, p: float):
    """adaptive_integral's rules for cell k: the NODES_PER_CELL and
    2 NODES_PER_CELL estimates over a subinterval [a, b], on floats."""
    n = NODES_PER_CELL
    return lambda a, b: (_rule_on_floats(fk, mk, tk, p, a, b, n), _rule_on_floats(fk, mk, tk, p, a, b, 2 * n))


# the constant of the a-priori Gauss bound (Trefethen, SIAM Rev. 50,
# 2008, Thm 4.5), times the half-width that maps [-1, 1] to a cell,
# over its width
_TRUNCATION = 32.0 / 15.0
# the relative size of the allowance beyond which its first-order
# derivation (_certified_errors) no longer holds: a cell is certified at
# min(tol, _CERTIFIED_TOL_CAP) only
_CERTIFIED_TOL_CAP = 2.0 ** -10
# the absolute allowance of a certified cell, for what underflows
# (_certified_errors)
_UNDERFLOW_ALLOWANCE = 2.0 ** -969


class _BoundConstants(NamedTuple):
    """The constants of _certified_errors for one function (the
    derivation there): the truncation bound's factor, the relative
    allowance and its condition-number factor, the least F_k and the
    relative tol at which a cell is certified."""

    truncation: float
    relative: float
    condition: float
    floor: float
    limit: float


def _bound_constants(p: float, n: int, cells: int, tol: float) -> _BoundConstants:
    """_BoundConstants of the n-point rule on a function of `cells` cells."""
    return _BoundConstants(_TRUNCATION * (1.0 + (9.0 * n + 10.0 * p + 16.0) * EPS),
                           (3.0 * p + 8.0) * EPS + gl_weight_error(n), 3.0 * p * EPS,
                           math.ldexp(cells, -1021), min(tol, _CERTIFIED_TOL_CAP))


def _certified_errors(fk, mk, a, b, est, p: float, n: int, consts):
    """Certified error bounds of the n-point estimates est of the cells
    [a, b] with prefix F_k = fk and magnitude m_k = mk (arrays), inf or
    nan where no bound can be had; the caller certifies a cell only where
    its bound is at most consts.limit times est and F_k is at least
    consts.floor (Underflow, below).  consts are _bound_constants.

    Truncation.  The integrand is (m + A/t)**p with A = F_k - m t_k,
    analytic off the real segment from 0 to s = max(0, t_k - F_k/m), its
    branch points (the zero of the inner average, and t = 0).  Put the
    left vertex of a Bernstein ellipse of the cell at v = s + (t_k - s)/2,
    in the middle between s and the cell, so that with mid and half the
    cell's centre and half-width, r = (mid - v)/half and
    rho = r + sqrt(r**2 - 1).  On that ellipse Re z >= v and
    |z - mid| <= mid - v, so |integrand| <= M with

        M = (m + |A|/v)**p                               for A >= 0 (s = 0),
        M = (m min(v + s, 2 mid - v - s) / v)**p           for A < 0,

    from |m + A/z| <= m + |A|/|z| (and |A| = m s for A < 0), or, for
    A < 0, from |z - s| <= (mid - v) + (mid - s), which is the smaller
    near the zero (s close to t_k).  Trefethen's Thm 4.5 (his I_n has
    n + 1 nodes) then bounds the error of the exact n-point rule by

        half (64/15) M rho**(2 - 2n) / (rho**2 - 1)

    for n >= 2.  With d = t_k - s = min(t_k, F_k/m) every factor is a
    sum or product of positive terms: r - 1 = q = d/(b - a),
    rho - 1 = e = q + sqrt(q (q + 2)), rho**2 - 1 = e (2 + e), v = t_k - d/2,
    v + s = 2 t_k - 1.5 d, 2 mid - v - s = (b - a) + 1.5 d, and for
    A >= 0, m + A/v = 2 F_k/t_k - m (which is at least F_k/t_k).
    Computed, each of q, e, the base of M and the products is within a
    few EPS; rho**(2n - 2) amplifies rho's error
    2n - 2 times, the base's error takes a factor p (and its dependence
    on F_k, rounded by 3 EPS/2, p more), and q's dependence on F_k
    enters rho**(2n - 2) once more: the truncation bound is multiplied by
    1 + (9n + 10p + 16) EPS, which covers them.

    Rounding allowance, relative to the estimate, since every weighted
    node value is positive (so sum |w f| half is the estimate), with
    u = EPS/2, each operation within u and pow within 4 EPS:
      * the numerator F_k + m (t - t_k) sums positive terms, F_k within
        3u (compensated prefix of masses each within u), so the inner
        average at a node is within 5u and its p-th power within
        (5p/2 + 4) EPS; the weight's product, fsum, the half-width and
        the last product add 2 EPS; the weights of gl_rule(n) are within
        gl_weight_error(n) of the exact ones.
      * the computed node t = mid + half x is off by at most
        u mid + 2u half |x| + u t + half |x - x_exact| <= 3u b (the
        rules' nodes are within u), and d log f/dt is at most
        p/(t - s) on the cell, so each node value moves by at most
        3u p b/d relative: the integrand's condition number
        s/(t_k - s) in t, plus 1 + (b - t_k)/d, enters as
        b/d = 1 + s/d + 1/q.
    So the allowance is est ((3p + 8) EPS + gl_weight_error(n) + 3p EPS b/d),
    whose slack over the first-order sums covers the second-order terms
    while it stays below _CERTIFIED_TOL_CAP, and the estimate's own
    distance from the exact rule.

    Underflow.  The derivation needs F_k, and with it t_k >= F_k and
    every inner average on the cell (at least F_k/b >= F_k), normal: a
    cell is certified only where F_k is at least 2 cells 2**-1022, which
    also keeps the masses that rounded into the subnormal range
    (2**-1075 each) within EPS/2 F_k in sum.  A node value, weighted
    value, fsum or product that underflows is off by at most 2**-1075
    absolute instead, n + 2 of them per cell, and so is a truncation
    bound that underflows: _UNDERFLOW_ALLOWANCE, added to every bound,
    covers them, and as the bound must stay below tol times the
    estimate, it certifies only estimates far above the subnormal range
    (at least 2**-959), whose M is normal too.
    """
    import numpy as np

    truncation, relative, condition, _, _ = consts
    w = b - a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.fmin(a, fk / mk)  # F_k/m is inf at m = 0 and nan at F_k = m = 0, which fmin drops
        q = d / w
        e = q + np.sqrt(q * (q + 2.0))
        base = np.where(d < a, mk * np.minimum(2.0 * a - 1.5 * d, w + 1.5 * d) / (a - 0.5 * d), 2.0 * fk / a - mk)
        return ((truncation * w) * base ** p * (1.0 + e) ** (2.0 - 2.0 * n) / (e * (2.0 + e))
                + est * (relative + condition * (b / d)) + _UNDERFLOW_ALLOWANCE)


def _certified_error_on_floats(fk: float, mk: float, a: float, b: float, est: float, p: float, n: int,
                               consts) -> float:
    """_certified_errors of one cell on Python floats, with the same
    arithmetic but for pow; inf where no bound can be had, F_k below
    consts.floor included."""
    truncation, relative, condition, floor, _ = consts
    if not fk >= floor:
        return math.inf
    w = b - a
    d = min(a, fk / mk) if mk else a
    q = d / w
    e = q + math.sqrt(q * (q + 2.0))
    base = mk * min(2.0 * a - 1.5 * d, w + 1.5 * d) / (a - 0.5 * d) if d < a else 2.0 * fk / a - mk
    try:
        return ((truncation * w) * base ** p * (1.0 + e) ** (2.0 - 2.0 * n) / (e * (2.0 + e))
                + est * (relative + condition * (b / d)) + _UNDERFLOW_ALLOWANCE)
    except OverflowError:
        return math.inf


def _certified_cells(prefix, mags, ends, p: float, tol: float):
    """The first tier of the quadrature: the NODES_PER_CELL-point rule
    on every cell after the first, and its certified error bound
    (_certified_errors), batch by batch.

    Yields (values, errors, uncertified): the estimate and bound of each
    cell whose bound is at most tol times its estimate, and the index k
    of every other cell, which the caller hands to the second tier.
    A list prelude goes cell by cell on Python floats, in one batch, an
    array prelude through one gauss_legendre pass per _CELL_CHUNK cells
    of slices of its arrays; the arithmetic is the same but for pow
    (libm's and numpy's SIMD loop differ by an ulp in about 5% of
    evaluations).  The module docstring has the measured crossover.
    """
    n = NODES_PER_CELL
    consts = _bound_constants(p, n, len(mags), tol)
    if isinstance(mags, list):
        values, errors, uncertified = [], [], []
        for k in range(1, len(mags)):
            fk, mk, a, b = prefix[k], mags[k], ends[k], ends[k + 1]
            est = _rule_on_floats(fk, mk, a, p, a, b, n)
            err = _certified_error_on_floats(fk, mk, a, b, est, p, n, consts)
            if err <= consts.limit * est:
                values.append(est)
                errors.append(err)
            else:
                uncertified.append(k)
        yield values, errors, uncertified
        return
    import numpy as np

    for lo in range(1, len(mags), _CELL_CHUNK):
        hi = min(lo + _CELL_CHUNK, len(mags))
        fk, mk, a, b = prefix[lo:hi], mags[lo:hi], ends[lo:hi], ends[lo + 1 : hi + 1]
        est = gauss_legendre(_integrand(fk, mk, a, p), a, b, n)
        err = _certified_errors(fk, mk, a, b, est, p, n, consts)
        ok = (err <= consts.limit * est) & (fk >= consts.floor)  # a nan bound is not certified
        yield est[ok].tolist(), err[ok].tolist(), (np.flatnonzero(~ok) + lo).tolist()


def _ces_fun_norm_quadrature(h: StepFunction, p: float, tol: float) -> NormResult:
    """Quadrature route of the function norm for any p >= 1.

    Every cell after the first gets the NODES_PER_CELL-point rule and
    its certified error bound (_certified_cells).  Each cell whose bound
    misses tol makes one adaptive_integral call on Python floats with
    the NODES_PER_CELL- and 2 NODES_PER_CELL-point rules (_rule_pair),
    which accepts their doubling estimate where the two agree to tol and
    otherwise bisects the cell.  fsum adds the cells' values and errors
    in any order.

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
    for accepted, accepted_errors, uncertified in _certified_cells(prefix, mags, ends, p, tol):
        values += accepted
        errors += accepted_errors
        for k in uncertified:
            outcome = adaptive_integral(_rule_pair(float(prefix[k]), float(mags[k]), bps[k], p),
                                        bps[k], bps[k + 1], tol, MAX_SUBDIVISIONS)
            values.append(outcome.value)
            errors.append(outcome.error_bound)
            converged = converged and outcome.converged

    total = first + math.fsum(values)
    tail_err = math.fsum(errors)
    if not math.isfinite(total + tail_err):  # p so large that rounding above max|h| overflows
        raise _range_error(p)
    value, err = power_bracket_to_norm(total - tail_err, total + tail_err, p)
    if not converged:
        warning = "quadrature subdivision budget exhausted"
    else:  # relative, so taken before _unscale adds its subnormal allowance
        warning = WIDE_BRACKET if err > tol * value else None
    value, err = _unscale(value, err, exp2, "function")
    exact = len(mags) == 1  # single-cell input integrates in closed form
    return NormResult(value, err, exact=exact, warning=warning)


def ces_fun_norm(h: StepFunction, p, tol: float = DEFAULT_TOL) -> NormResult:
    """Cesaro function norm of a scalar step function, p >= 1.

    The p = 1 case routes to the exact weighted closed form (and is
    flagged exact), and at p > 1 the zero function has norm 0 with bound
    0, as the zero sequence has; otherwise the outer integral is evaluated by
    per-cell Gauss-Legendre to the relative tol in two tiers: each cell
    with a certified a-priori bound, and each of the few that the bound
    cannot certify by one adaptive bisection on floats, which takes the
    doubling estimate of two rules and splits the cell where they
    disagree.  A converged result whose bound exceeds tol times its
    value carries a warning and the honest bound.  Raises
    InvalidTolerance unless tol is positive and finite, and DomainError
    when the norm or the p-th powers leave the float range.
    """
    p = as_exponent(p)
    require_positive_finite(InvalidTolerance, tol=tol)
    if p.is_one:
        return weighted_l1_norm(h)
    if h.is_scalar and not any(h.values):
        return NormResult(0.0, 0.0, exact=True)
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
        notes=CheckReport.warnings_of(lhs=lhs, lp_norm=lp),
    )
