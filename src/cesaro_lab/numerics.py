"""Low-level numeric kernels shared by the norm computations.

Three concerns live here, all with deterministic results independent of
run count or platform thread settings:

* compensated summation (prefix sums, and exactly rounded sums of
  whole arrays and of every column of a 2-D array),
* certified brackets on sums of (v(n)/n)**p over runs of a piecewise
  constant v, in closed form by Euler-Maclaurin, which is what
  certifies the sequence-norm error bounds,
* Gauss-Legendre quadrature for the outer integral of the function
  norm, in two tiers: the 16- and 32-point rules as literal tables
  (the only rules gl_rule serves), one evaluator (gauss_legendre) of
  one n-point rule over a batch of intervals in one numpy pass, which
  gives the first tier its estimates on long functions, and bisection
  of one interval with interval-doubling error estimates
  (adaptive_integral), which takes its rule pair on floats from the
  caller and is the second tier: one call for each of the few cells
  that the a-priori bound of scalar._certified_errors does not
  certify.

numpy is imported only inside the paths that take long inputs, so a
process that makes only small calls never loads it (the import takes
about 0.12 s).  Short inputs run on Python floats, where numpy's
dispatch cost of about 2 us per call would dominate.  The choice is
made once per input, where its columns are built, from one crossover
measured on a 2-vCPU x86-64 machine:

    columns                                      on lists below    constant
    the sequence norm's prefix columns           12 entries        model._ARRAYS_FROM
    (model.abs_prefix_sums) and the function
    norm's prelude (scalar._quadrature_prelude)  12 cells after
                                                 the first

Every kernel after that follows the type it is handed: lists and
tuples run on Python floats, anything else as float arrays on numpy
(fsum_array, running_sums, power_runs_bracket, and scalar's first tier
of cells).  Both paths do the same arithmetic except for pow, log1p
and expm1, where libm and numpy's SIMD loops may differ by an ulp;
the two paths of running_sums and of the prelude give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

# double-precision machine epsilon as a plain Python float (numpy scalar
# types must not leak into reports)
EPS = 2.220446049250313e-16
# sys.float_info.min: a power below it has lost bits or vanished
_SMALLEST_NORMAL = 2.2250738585072014e-308


def fsum_array(values) -> float:
    """Sum a list, tuple or 1-D array with one math.fsum call.

    The result is the correctly rounded true sum at every length, so it
    is order-insensitive by exactness, hence safe as the shared
    reduction for dual-route comparisons.  Lists and tuples go straight
    to fsum; anything else is made a contiguous float array by numpy
    and handed to fsum as a memoryview, whose items are the same doubles
    as those of a list, without building one.
    """
    if isinstance(values, (list, tuple)):
        return math.fsum(values)
    import numpy as np

    return math.fsum(memoryview(np.ascontiguousarray(values, dtype=float)))


def fsum_columns(x: np.ndarray) -> np.ndarray:
    """math.fsum of every column of the 2-D float array x, bit for bit, as an array.

    x has at least two rows.  A TwoSum tree (Knuth's error-free
    addition; Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26(6), 2005)
    adds the second half of the rows to the first, level by level, and
    keeps each rounding error, so that in every column of n terms hi
    plus the n - 1 errors lo is the exact sum.  The errors are added in floats, within
    (n - 2)(EPS/2) sum|lo| of their exact sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 4.2; an addition that
    underflows is exact).  The slack 2 n EPS sum|lo| covers that four
    times over, rounding of the slack and of lo_sum -+ slack included.
    Rounding to nearest is monotone, so where hi + (lo_sum - slack) and
    hi + (lo_sum + slack) round to the same r, r is the correctly
    rounded sum, which is what fsum returns.

    A column goes to fsum instead when the two differ (near a tie, about
    1% of the quadrature's columns), when r is zero (fsum picks the sign
    of a zero), and when a term is not finite or reaches 2**1020 / n in
    magnitude.  fsum raises OverflowError or ValueError there, or returns
    inf or nan, where the tree would not; below that bound no sum in the
    tree overflows.
    """
    import numpy as np

    rows = len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        hi, errors = x, []
        while len(hi) > 1:
            half = len(hi) // 2
            a, b = hi[:half], hi[half : 2 * half]
            s = a + b
            bb = s - a
            errors.append((a - (s - bb)) + (b - bb))
            hi = s if len(hi) == 2 * half else np.concatenate((s, hi[2 * half :]))
        hi = hi[0]
        lo = np.concatenate(errors)
        lo_sum = lo.sum(axis=0)
        slack = (2.0 * rows * EPS) * np.abs(lo).sum(axis=0)
        r = hi + (lo_sum - slack)
        fallback = (r != hi + (lo_sum + slack)) | (r == 0.0)
        # true on a nan as well
        fallback |= ~(np.abs(x).max(axis=0) < math.ldexp(1.0, 1020 - rows.bit_length()))
    for j in np.flatnonzero(fallback).tolist():
        r[j] = math.fsum(x[:, j].tolist())
    return r


def running_sums(terms):
    """Neumaier-compensated prefix sums: the k-th value is the compensated
    sum of the first k terms (Neumaier, ZAMM 54, 1974).

    Each value depends only on the terms before it, in their order,
    which is what makes prefix values bit-reproducible across call sites.
    Lists and tuples go through a loop, written out, as a method call per
    term would cost more than the term's arithmetic, and give a list.
    Anything else is taken as a 1-D float array and gives an array, with
    the same bits: the loop's running sum s and its correction c are
    both prefix sums (Blelloch, "Prefix sums and their applications",
    1990), and np.add.accumulate adds strictly left to right, so s is
    one accumulate of the terms, every step's rounding error follows
    from s elementwise, and c is one accumulate of those errors.  The
    type decides the path, not the length: the column builders hand it
    an array from model._ARRAYS_FROM entries on (the module docstring's
    one crossover).
    """
    if not isinstance(terms, (list, tuple)):
        import numpy as np

        t = np.asarray(terms, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan arise as on floats
            # s here differs from the loop's only in the sign of a zero
            # (a leading -0.0 term), which neither the errors nor s + c
            # show, as c is never -0.0
            s = np.add.accumulate(t)
            before = np.concatenate(([0.0], s[:-1]))
            errors = np.where(np.abs(before) >= np.abs(t), (before - s) + t, (t - s) + before)
            return s + np.add.accumulate(errors)
    s = c = 0.0
    out = []
    for term in terms:
        t = s + term
        if abs(s) >= abs(term):
            c += (s - t) + term
        else:
            c += (term - t) + s
        s = t
        out.append(s + c)
    return out


# B_2k/(2k)! for k = 1..7: six Euler-Maclaurin corrections, then the
# first omitted term, which bounds the remainder
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600)
# indices below this are summed term by term; beyond it the corrections
# shrink like ((p + 2k) / (2 pi n))**2
_DIRECT_BELOW = 32


@lru_cache(maxsize=64)
def _em_factors(p: float, coeffs: tuple[float, ...]) -> tuple[tuple[float, float], ...]:
    """(B_2k/(2k)!) p(p+1)...(p+2k-2) and the exponent p + 2k - 1 of g
    in the k-th Euler-Maclaurin term, k = 1..7, with B_2k/(2k)! from
    coeffs (_EM_COEFFS); the same for every run."""
    factors = []
    rising = p
    for k, coeff in enumerate(coeffs):
        factors.append((coeff * rising, p + 2 * k + 1))
        rising *= (p + 2 * k + 1) * (p + 2 * k + 2)
    return tuple(factors)


def _em_pieces(xp, a, b, v, p: float, factors):
    """Euler-Maclaurin pieces of the runs [a, b) of value v, a >= 1, as
    the four columns of _bracket.

    xp is math (one run, floats) or numpy (arrays of runs); the formula
    is written once for both.  factors are _em_factors(p, _EM_COEFFS).
    Relative to the weight (v/a)**p, the body is the integral and
    endpoint terms plus the corrections, and the magnitude is the sum
    of the magnitudes of all of them and of the remainder term.
    """
    weight = (v / a) ** p
    log_ratio = xp.log1p((b - a) / a)

    def g(m: float):
        return -xp.expm1(-m * log_ratio)

    base = a * g(p - 1.0) / (p - 1.0) + 0.5 * g(p)
    terms = []
    power, a2 = 1.0 / a, a * a  # a**(1-2k)
    for coeff, m in factors:
        terms.append(coeff * power * g(m))
        power = power / a2
    *corrections, remainder = terms
    magnitudes = base + sum(abs(t) for t in terms)
    return weight * (base + sum(corrections)), weight * remainder, weight * magnitudes, magnitudes


def _bracket(direct, pieces, count: int, p: float) -> tuple[float, float]:
    """(lower, upper) of power_runs_bracket from its direct terms and
    four columns of Euler-Maclaurin pieces: weight (v/a)**p times the
    body, the remainder and the magnitudes, and the magnitudes
    themselves.  They are arrays on the numpy path and sequences of
    floats on the other; both are reduced by fsum_array.  count is the
    number of direct terms and runs."""
    direct_sum = fsum_array(direct)
    body_sum, remainder_sum, weighted_magnitude_sum, magnitude_sum = map(fsum_array, pieces)
    total = math.fsum([direct_sum, body_sum])
    allowance = ((2.0 * p + 56.0) * EPS * (direct_sum + weighted_magnitude_sum)
                 + math.ulp(0.0) * (count + magnitude_sum))
    return total + min(remainder_sum, 0.0) - allowance, total + max(remainder_sum, 0.0) + allowance


def power_runs_bracket(starts, values, p: float, exp2: int = 0) -> tuple[float, float]:
    """Certified bounds on sum_{n >= starts[0]} (v(n)/n)**p for p > 1.

    v(n) = values[j] / 2**exp2 on the run starts[j] <= n < starts[j+1],
    the last run infinite; starts are increasing positive integers, and
    v(n)/n should be at most about 1, so that every term stays in range
    (callers pick exp2 for that; the scaling is exact unless a value
    underflows).  Indices below _DIRECT_BELOW are summed term by term
    and every run [a, b) beyond by Euler-Maclaurin, so the cost is
    O(len(starts)) whatever the indices.  Relative to (v/a)**p each
    piece is a product of positive factors, with
    g(m) = 1 - (a/b)**m = -expm1(-m log1p((b-a)/a)), so short runs do
    not cancel:

        integral   a g(p-1) / (p-1)
        endpoints  g(p) / 2
        k-th term  (B_2k/(2k)!) p(p+1)...(p+2k-2) a**(1-2k) g(p+2k-1)

    x**(-p) is completely monotone, so the remainder lies between 0 and
    the first omitted term (DLMF 2.10.1; Johansson, arXiv:1309.2877).

    Two evaluation paths share these pieces (_em_pieces), and the type
    of the columns picks one: lists and tuples go run by run through
    math on Python floats, arrays through one numpy pass.  The
    arithmetic is the same on both except pow, log1p and expm1, where
    libm and numpy's SIMD loops may differ by an ulp (the allowance
    below covers either).

    Rounding allowance.  Values are accurate to EPS (compensated prefix
    sums), so the weight (v/a)**p carries 1.5 p EPS plus one pow.  Each
    elementary function (pow, log1p, expm1; libm or numpy SIMD) costs at
    most 4 ulps, each arithmetic operation half an ulp, and the longest
    chain, a correction term with its share of the run sum, stays below
    40 EPS besides the weight.  So every piece is within (2p + 56) EPS
    of its magnitude, with room for second-order terms and the correctly
    rounded reductions.  A weight, direct term or product that underflows
    is off by at most one subnormal ulp times its cofactor.
    """
    if isinstance(starts, (list, tuple)):
        return _bracket_on_floats(starts, values, p, exp2)
    import numpy as np

    a = np.asarray(starts, dtype=float)
    v = np.ldexp(np.asarray(values, dtype=float), -exp2)
    b = np.append(a[1:], np.inf)
    n = np.arange(a[0], _DIRECT_BELOW, dtype=float)
    direct = (v[np.searchsorted(a, n, side="right") - 1] / n) ** p
    em = b > _DIRECT_BELOW
    a, b = np.maximum(a[em], float(_DIRECT_BELOW)), b[em]
    return _bracket(direct, _em_pieces(np, a, b, v[em], p, _em_factors(p, _EM_COEFFS)), n.size + a.size, p)


def _bracket_on_floats(starts, values, p: float, exp2: int) -> tuple[float, float]:
    """power_runs_bracket run by run on Python floats (list columns)."""
    direct: list[float] = []
    runs = []  # the last run is infinite, so there is at least one
    factors = _em_factors(p, _EM_COEFFS)
    for a, b, v in zip(starts, [*starts[1:], math.inf], values):
        a, v = float(a), math.ldexp(float(v), -exp2)
        direct += [(v / n) ** p for n in range(int(a), int(min(b, _DIRECT_BELOW)))]
        if b > _DIRECT_BELOW:
            runs.append(_em_pieces(math, max(a, float(_DIRECT_BELOW)), b, v, p, factors))
    return _bracket(direct, zip(*runs), len(direct) + len(runs), p)


def p_series_tail_bracket(scale: float, p: float, n: int) -> tuple[float, float]:
    """Certified bounds on ``scale**p * sum_{m>n} m**(-p)`` for p > 1.

    power_runs_bracket with one infinite run, tight to rounding for
    every n, times scale**p (the slack in its rounding allowance covers
    this last product).  Returns (lower, upper).
    """
    if p <= 1.0:
        raise ValueError("tail bracket requires p > 1")
    if n < 1:
        raise ValueError("bracket index must be >= 1")
    if scale == 0.0:
        return (0.0, 0.0)
    sp = abs(scale) ** p
    lo, hi = power_runs_bracket([n + 1], [1.0], p)
    return sp * lo, sp * hi


# nodes in (0, 1) and their weights of the 16- and 32-point
# Gauss-Legendre rules, equal bit for bit to the upper halves of
# numpy.polynomial.legendre.leggauss(n) (the rules are symmetric: x and
# -x share a weight)
_GL_HALVES = {
    16: ((0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
          0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499),
         (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
          0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)),
    32: ((0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
          0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
          0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
          0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816),
         (0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
          0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
          0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
          0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506)),
}


@lru_cache(maxsize=64)
def gl_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule
    on [-1, 1] as Python floats, for the tabled n = 16 and 32 only."""
    nodes, weights = _GL_HALVES[n]
    return tuple(-x for x in reversed(nodes)) + nodes, tuple(reversed(weights)) + weights


# bounds, in units of EPS, on the relative error of every weight of the
# tabled rules, measured against the exact weights at 60 digits (31.6
# and 262.5): leggauss's weights, which the tables copy, are not
# correctly rounded (gl_weight_error)
_GL_WEIGHT_ERRORS = {16: 32.0, 32: 263.0}


def gl_weight_error(n: int) -> float:
    """A bound on the relative error of every weight of gl_rule(n), for
    n = 16 and 32: the measured bound of its table."""
    return _GL_WEIGHT_ERRORS[n] * EPS


@lru_cache(maxsize=64)
def _gl_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only arrays of the nodes and weights of gl_rule(n)."""
    import numpy as np

    nodes, weights = (np.array(v) for v in gl_rule(n))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(fn: Callable[[np.ndarray], np.ndarray], a, b, n: int) -> np.ndarray:
    """n-point Gauss-Legendre estimates of the integral of fn over every
    interval [a[i], b[i]], from one fn call, as an array.

    fn receives a 2-D array of nodes, one column per interval, and
    returns the integrand there.  fsum_columns reduces the weighted node
    values to the sum fsum gives, so no estimate depends on accumulation
    order or on the other intervals of the batch.
    """
    import numpy as np

    nodes, weights = _gl_arrays(n)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * fsum_columns(weights[:, None] * np.asarray(fn(mid + half * nodes[:, None]), dtype=float))


@dataclass(frozen=True)
class QuadratureOutcome:
    """Result of an adaptive integration pass."""

    value: float
    error_bound: float   # sum of per-interval doubling estimates
    converged: bool      # False when the split budget ran out
    subdivisions: int    # splits actually performed


def adaptive_integral(
    rules: Callable[[float, float], tuple[float, float]],
    a: float,
    b: float,
    rel_tol: float,
    max_subdivisions: int,
) -> QuadratureOutcome:
    """Integrate over [a, b] by bisection with doubling error estimates.

    rules(a, b) gives the coarse and fine estimates over [a, b] (an n-
    and a 2n-point rule, as floats); the difference of the two is taken
    as an interval's error, which estimates it and does not bound it.
    An interval is accepted once its error is at most rel_tol times the
    current estimate of the whole integral, otherwise it is bisected and
    rules is called on each half.  So [a, b] itself is accepted where
    |fine - coarse| <= rel_tol |fine|, with the error
    |fine - coarse| + 4 EPS |fine|, and a call makes 1 + 2 subdivisions
    rules calls.  When the split budget is exhausted the remaining
    intervals are accepted as-is and their estimates are folded into the
    reported error bound, with ``converged=False``.
    """
    coarse, fine = rules(a, b)
    # the running total takes the coarse estimates of the pending work
    work = [(a, b, coarse, fine)]
    pending_estimate = coarse

    accepted_vals: list[float] = []
    accepted_errs: list[float] = []
    accepted_total = 0.0
    splits = 0
    converged = True

    while work:
        a, b, coarse, fine = work.pop()
        pending_estimate -= coarse
        err = abs(fine - coarse)
        settled = err <= rel_tol * abs(accepted_total + pending_estimate + fine) or err == 0.0
        if settled or splits >= max_subdivisions:
            converged = converged and settled
            accepted_vals.append(fine)
            accepted_errs.append(err)
            accepted_total += fine
        else:
            splits += 1
            m = 0.5 * (a + b)
            halves = [(x, y, *rules(x, y)) for x, y in ((a, m), (m, b))]
            work += halves
            pending_estimate += halves[0][2] + halves[1][2]

    value = math.fsum(accepted_vals)
    error = math.fsum(accepted_errs) + 4.0 * EPS * abs(value)
    return QuadratureOutcome(value, error, converged, splits)


def power_bracket_to_norm(lo_pow: float, hi_pow: float, p: float) -> tuple[float, float]:
    """Map a bracket on a p-th power sum to (value, error_bound).

    Returns the midpoint of the norm bracket and a bound that covers its
    half-width and the rounding of the roots y = S**(1/p) (libm's pow:
    below 1 ulp, EPS y) and of the midpoint (EPS/2 hi).  The rounded 1/p
    carries |delta| <= EPS/2 and moves y by y |delta ln y|: at most
    (EPS/2)(1/e) for y <= 1 and (EPS/2) y ln y above.  Callers scale the
    largest magnitude into [1/2, 1) (model._scaled_magnitudes), so a
    function norm has hi <= q = p/(p - 1), and the sum
    EPS (0.19 + 1.5 hi + 0.5 hi ln hi) is within 4 EPS (1 + hi) while
    ln hi <= 5 (p >= 1.007).  Beyond, as for a sequence norm over a long
    support, hi takes the factor ln(1 + hi)/5, which covers it.
    """
    lo = max(lo_pow, 0.0) ** (1.0 / p)
    hi = max(hi_pow, 0.0) ** (1.0 / p)
    return 0.5 * (lo + hi), 0.5 * (hi - lo) + 4.0 * EPS * (1.0 + hi * max(1.0, math.log1p(hi) / 5.0))


def pth_root_shift(c: float, nu: float, p: float, sign: float = 1.0) -> float:
    """c*((1 + sign*x)**(1/p) - 1) with x = (nu/c)**p and sign = +-1, for
    c > 0, nu >= 0 and sign*x > -1, as c*expm1(log1p(sign*x)/p): full
    relative accuracy even when the result is many orders below c.

    Where x is below the normal range (and nu < c) the shift is
    sign*c*x/p, whose relative second-order term is below x, so c*x/p
    is taken as c*h*h/p with h = (nu/c)**(p/2), formed as
    nu**(p/2) / c**(p/2) for p <= 2 (where neither power leaves the
    range), so that a ratio nu/c below the normal range loses no bits.
    h is normal unless the result is below 2**-1020.  Every x in the
    normal range keeps the expm1 form.
    """
    x = (nu / c) ** p
    if x >= _SMALLEST_NORMAL:
        return c * math.expm1(math.log1p(sign * x) / p)
    e = 0.5 * p
    h = nu ** e / c ** e if p <= 2.0 else (nu / c) ** e
    return sign * (c * h * h / p)


def stable_pth_root_shift(c: float, nu: float, p: float) -> float:
    """Evaluate ``c - (c**p - nu**p)**(1/p)`` without cancellation.

    For 0 <= nu <= c the expression is -pth_root_shift(c, nu, p, -1.0).
    """
    if c == 0.0:
        return 0.0
    if not 0.0 <= nu <= c:
        raise ValueError("requires 0 <= nu <= c")
    if nu == c:
        return c
    return -pth_root_shift(c, nu, p, -1.0)


def theta_integral(t0: float, p: float, one_minus_t0: float | None = None) -> float:
    """Closed form of the integral of t**(-p) over [t0, 1].

    ``one_minus_t0`` may be supplied when 1 - t0 is known exactly (t0
    close to 1), which avoids cancellation in t0**(1-p) - 1.
    """
    if one_minus_t0 is None:
        if not 0.0 < t0 < 1.0:
            raise ValueError("t0 must lie in (0, 1)")
        log_t0 = math.log(t0)
    else:
        # t0 itself may have rounded to 1.0; the exact complement decides
        if not 0.0 < one_minus_t0 < 1.0:
            raise ValueError("one_minus_t0 must lie in (0, 1)")
        log_t0 = math.log1p(-one_minus_t0)
    if p == 1.0:
        return -log_t0
    return math.expm1((1.0 - p) * log_t0) / (p - 1.0)
