"""Low-level numeric kernels shared by the norm computations.

Three concerns live here, all with deterministic results independent of
run count or platform thread settings:

* compensated summation (running accumulator for prefix sums, exactly
  rounded reductions for whole arrays),
* certified brackets on sums of (v(n)/n)**p over runs of a piecewise
  constant v, in closed form by Euler-Maclaurin, which is what
  certifies the sequence-norm error bounds,
* Gauss-Legendre quadrature for the outer integral of the function
  norm: the 16- and 32-point rules as literal tables, a batched pair of
  rules over many intervals in one numpy pass, and adaptive bisection
  with interval-doubling error estimates for the intervals the batched
  pass rejects.

numpy is imported only inside the paths that take long inputs, so a
process that makes only small calls never loads it (the import takes
about 0.12 s).  Short inputs run on Python floats, where numpy's
dispatch cost of about 2 us per call would dominate.  The crossovers,
measured on a 2-vCPU x86-64 machine:

    path                                 on floats below    constant
    power_runs_bracket                   12 runs            _FLOAT_RUNS_BELOW
    the function norm's rule pairs       3 cells after      scalar._FLOAT_CELLS_BELOW
    (gauss_legendre_pairs on numpy)      the first

Both paths do the same arithmetic except for pow, log1p and expm1,
where libm and numpy's SIMD loops may differ by an ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

# double-precision machine epsilon as a plain Python float (numpy scalar
# types must not leak into reports)
EPS = 2.220446049250313e-16


def fsum_array(values) -> float:
    """Sum a list, tuple or 1-D array with one math.fsum call.

    The result is the correctly rounded true sum at every length, so it
    is order-insensitive by exactness, hence safe as the shared
    reduction for dual-route comparisons.  Lists and tuples go straight
    to fsum; anything else is converted by numpy first (same bits).
    """
    if isinstance(values, (list, tuple)):
        return math.fsum(values)
    import numpy as np

    return math.fsum(np.asarray(values, dtype=float).tolist())


class RunningSum:
    """Neumaier-compensated accumulator for streaming prefix sums.

    The state after adding k terms equals the state of a fresh
    accumulator fed the same k terms in the same order, which is what
    makes prefix values bit-reproducible across call sites.
    """

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, term: float) -> float:
        t = self._s + term
        if abs(self._s) >= abs(term):
            self._c += (self._s - t) + term
        else:
            self._c += (term - t) + self._s
        self._s = t
        return self._s + self._c

    @property
    def value(self) -> float:
        return self._s + self._c


# B_2k/(2k)! for k = 1..7: six Euler-Maclaurin corrections, then the
# first omitted term, which bounds the remainder
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600)
# indices below this are summed term by term; beyond it the corrections
# shrink like ((p + 2k) / (2 pi n))**2
_DIRECT_BELOW = 32
# run lists shorter than this are bracketed run by run on Python floats,
# longer ones in one numpy pass: the measured crossover (see
# power_runs_bracket)
_FLOAT_RUNS_BELOW = 12


def _em_factors(p: float) -> list[tuple[float, float]]:
    """(B_2k/(2k)!) p(p+1)...(p+2k-2) and the exponent p + 2k - 1 of g
    in the k-th Euler-Maclaurin term, for k = 1..7; the same for every run."""
    factors = []
    rising = p
    for k, coeff in enumerate(_EM_COEFFS):
        factors.append((coeff * rising, p + 2 * k + 1))
        rising *= (p + 2 * k + 1) * (p + 2 * k + 2)
    return factors


def _em_pieces(xp, a, b, v, p: float, factors):
    """Euler-Maclaurin pieces of the runs [a, b) with value v, a >= 1.

    xp is math (one run, floats) or numpy (arrays of runs); the formula
    is written once for both.  factors are _em_factors(p).  With the
    weight w = (v/a)**p, returns w times the integral and endpoint terms
    plus the corrections, w times the remainder term, w times the sum of
    the magnitudes of all of them, and that sum itself.
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
    """(lower, upper) of power_runs_bracket from its direct terms and the
    four columns of Euler-Maclaurin pieces (_em_pieces), arrays on the
    numpy path and sequences of floats on the other; both are reduced by
    fsum_array.  count is the number of direct terms and runs."""
    direct_sum = fsum_array(direct)
    body_sum, remainder_sum, weighted_magnitude_sum, magnitude_sum = (fsum_array(x) for x in pieces)
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

    Two evaluation paths share these pieces (_em_pieces).  Lists of
    fewer than _FLOAT_RUNS_BELOW runs go run by run through math on
    Python floats, longer ones through one numpy pass.  A call makes
    about 40 numpy calls, each with about 2 microseconds of dispatch
    whatever its length, so numpy takes about 90 us on any short list;
    floats take about 10 us plus 4 us per run.  Measured as the best of
    15 passes over 30 calls per length from 1 to 32 runs on a 2-vCPU
    x86-64 machine: 1 run 13 us against 88 us, 8 runs 45 us against
    92 us; with indices spread up to 1e6 the paths meet at 12 to 13
    runs, with every index below 64 (more direct terms) near 20.  Long
    lists keep the numpy pass unchanged, so their results keep their
    bits.  The arithmetic is the same on both paths except pow, log1p
    and expm1, where libm and numpy's SIMD loops may differ by an ulp;
    the allowance below covers either.

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
    if len(starts) < _FLOAT_RUNS_BELOW:
        return _bracket_on_floats(starts, values, p, exp2)
    import numpy as np

    a = np.asarray(starts, dtype=float)
    v = np.ldexp(np.asarray(values, dtype=float), -exp2)
    b = np.append(a[1:], np.inf)
    n = np.arange(a[0], _DIRECT_BELOW, dtype=float)
    direct = (v[np.searchsorted(a, n, side="right") - 1] / n) ** p
    em = b > _DIRECT_BELOW
    a, b = np.maximum(a[em], float(_DIRECT_BELOW)), b[em]
    pieces = _em_pieces(np, a, b, v[em], p, _em_factors(p))
    return _bracket(direct, pieces, n.size + a.size, p)


def _bracket_on_floats(starts, values, p: float, exp2: int) -> tuple[float, float]:
    """power_runs_bracket run by run on Python floats (short run lists)."""
    direct: list[float] = []
    runs = []  # the last run is infinite, so there is at least one
    factors = _em_factors(p)
    for a, b, v in zip(starts, [*starts[1:], math.inf], values):
        a, v = float(a), math.ldexp(float(v), -exp2)
        direct.extend((v / n) ** p for n in range(int(a), int(min(b, _DIRECT_BELOW))))
        if b > _DIRECT_BELOW:
            runs.append(_em_pieces(math, max(a, float(_DIRECT_BELOW)), b, v, p, factors))
    return _bracket(direct, list(zip(*runs)), len(direct) + len(runs), p)


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
    on [-1, 1] as Python floats: from the tables for n = 16 and 32, from
    numpy's leggauss for any other n."""
    if n in _GL_HALVES:
        nodes, weights = _GL_HALVES[n]
        return tuple(-x for x in reversed(nodes)) + nodes, tuple(reversed(weights)) + weights
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(n)
    return tuple(nodes.tolist()), tuple(weights.tolist())


@lru_cache(maxsize=64)
def _gl_arrays(*ns: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only arrays of the nodes and weights of the gl_rule(n) for
    each n in ns, side by side."""
    import numpy as np

    nodes = np.array([x for n in ns for x in gl_rule(n)[0]])
    weights = np.array([w for n in ns for w in gl_rule(n)[1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int) -> float:
    """n-point Gauss-Legendre estimate of the integral of fn over [a, b].

    The weighted node values are reduced with fsum so the result does
    not depend on accumulation order.
    """
    import numpy as np

    nodes, weights = _gl_arrays(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(fn(mid + half * nodes), dtype=float)
    return half * math.fsum((weights * vals).tolist())


def gauss_legendre_pairs(
    fn: Callable[[np.ndarray], np.ndarray], a, b, n: int
) -> tuple[list[float], list[float]]:
    """n- and 2n-point Gauss-Legendre estimates of the integral of fn
    over every interval [a[i], b[i]], in one numpy pass.

    fn receives a 2-D array of nodes, one row per interval (the n-point
    nodes, then the 2n-point ones), and returns the integrand there.
    Element by element this is the arithmetic of gauss_legendre, with
    the same fsum reduction per rule, so each estimate is bit-identical
    to a gauss_legendre call on its interval.
    """
    import numpy as np

    nodes, weights = _gl_arrays(n, 2 * n)
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    weighted = weights * np.asarray(fn(mid + half * nodes), dtype=float)
    halves = half[:, 0].tolist()
    coarse = [h * math.fsum(row) for h, row in zip(halves, weighted[:, :n].tolist())]
    fine = [h * math.fsum(row) for h, row in zip(halves, weighted[:, n:].tolist())]
    return coarse, fine


@dataclass(frozen=True)
class QuadratureOutcome:
    """Result of an adaptive integration pass."""

    value: float
    error_bound: float   # sum of per-interval doubling estimates
    converged: bool      # False when the split budget ran out
    subdivisions: int    # splits actually performed


def adaptive_integral(
    fn: Callable[[np.ndarray], np.ndarray],
    intervals: Sequence[tuple[float, float]],
    rel_tol: float,
    nodes: int,
    max_subdivisions: int,
) -> QuadratureOutcome:
    """Integrate fn over a union of intervals with certified estimates.

    Every interval is evaluated at ``nodes`` and ``2*nodes`` points; the
    difference of the two estimates is taken as that interval's error.
    An interval is accepted once its error is at most rel_tol times the
    current estimate of the whole integral, otherwise it is bisected.
    When the split budget is exhausted the remaining intervals are
    accepted as-is and their estimates are folded into the reported
    error bound, with ``converged=False``.
    """
    if not intervals:
        return QuadratureOutcome(0.0, 0.0, True, 0)

    # work items carry their coarse estimate so the running total is
    # available before the fine pass
    work = [(a, b, gauss_legendre(fn, a, b, nodes)) for a, b in intervals]
    pending_estimate = math.fsum(est for _, _, est in work)

    accepted_vals: list[float] = []
    accepted_errs: list[float] = []
    accepted_total = 0.0
    splits = 0
    converged = True

    while work:
        a, b, coarse = work.pop()
        pending_estimate -= coarse
        fine = gauss_legendre(fn, a, b, 2 * nodes)
        err = abs(fine - coarse)
        current_total = abs(accepted_total + pending_estimate + fine)
        if err <= rel_tol * current_total or err == 0.0:
            accepted_vals.append(fine)
            accepted_errs.append(err)
            accepted_total += fine
        elif splits >= max_subdivisions:
            converged = False
            accepted_vals.append(fine)
            accepted_errs.append(err)
            accepted_total += fine
        else:
            splits += 1
            m = 0.5 * (a + b)
            left = (a, m, gauss_legendre(fn, a, m, nodes))
            right = (m, b, gauss_legendre(fn, m, b, nodes))
            work.append(left)
            work.append(right)
            pending_estimate += left[2] + right[2]

    value = math.fsum(accepted_vals)
    error = math.fsum(accepted_errs) + 4.0 * EPS * abs(value)
    return QuadratureOutcome(value, error, converged, splits)


def power_bracket_to_norm(lo_pow: float, hi_pow: float, p: float) -> tuple[float, float]:
    """Map a bracket on a p-th power sum to (value, error_bound).

    Returns the midpoint of the corresponding norm bracket and a bound
    that covers both the half-width and representation rounding.
    """
    lo = max(lo_pow, 0.0) ** (1.0 / p)
    hi = max(hi_pow, 0.0) ** (1.0 / p)
    return 0.5 * (lo + hi), 0.5 * (hi - lo) + 4.0 * EPS * (1.0 + hi)


def stable_pth_root_shift(c: float, nu: float, p: float) -> float:
    """Evaluate ``c - (c**p - nu**p)**(1/p)`` without cancellation.

    For 0 <= nu <= c the expression equals ``-c*expm1(log1p(-x)/p)``
    with ``x = (nu/c)**p``, which keeps full relative accuracy even when
    the difference is many orders below c.
    """
    if c == 0.0:
        return 0.0
    if not 0.0 <= nu <= c:
        raise ValueError("requires 0 <= nu <= c")
    if nu == c:
        return c
    x = (nu / c) ** p
    return -c * math.expm1(math.log1p(-x) / p)


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
