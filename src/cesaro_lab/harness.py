"""Inequality harness for pointwise-weakly-null function families.

A FunctionShiftFamily multiplies a fixed nonnegative profile g by
disjointly supported unit blocks, so that ||f_n(t)|| = g(t) for every n
and (f_n(t))_n is weakly null pointwise by construction.  Against such
a family every limsup/liminf of norms is exactly computable: past a
stabilization index the difference f_n - f has the disjoint splitting
form and its norm profile is the explicit function

    phi(t) = (g(t)**pX + ||f(t)||**pX)**(1/pX).

On top of this the module checks the two averaged Opial inequalities
(thm31) and their strict form (cor32) from ||g||, ||phi|| and their
error bounds alone, forming no p-th power of a norm, so at every scale
where the norms are floats; the constructive positive-gap recipes
(thm33/thm34) together with their conclusions, the Cesaro-sum variant
(prop21, whose limsups are still estimated over a finite range of k),
and the sup-norm sharpness example showing the constant 2 cannot be
improved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .model import (
    MAX_INDEX,
    CElement,
    CheckReport,
    CesaroLabError,
    DomainError,
    Exponent,
    InvalidExponent,
    NormResult,
    SpaceMismatch,
    SpaceSpec,
    StepFunction,
    TaggedVector,
    UnsupportedSpace,
    as_exponent,
    common_refinement,
    p_norms,
    pointwise_norm,
    require_positive_finite,
)
from .numerics import EPS, stable_pth_root_shift, theta_integral
from .opial import VectorShiftFamily, lp_modulus
from .scalar import DEFAULT_TOL, ces_fun_norm, lr_fun_norm
from .vector import SlotShiftFamily, SumElement, cesaro_sum_norm


class TauOutOfRange(CesaroLabError):
    """tau must lie strictly between 0 and the norm of f."""


class TauTooLarge(CesaroLabError):
    """tau fails the admissibility constraint q tau < eps."""


class ExponentOrder(CesaroLabError):
    """The integrability exponent must exceed p."""


class HypothesisViolation(CesaroLabError):
    """A stated hypothesis fails; the message names which one."""


class DegenerateInput(CesaroLabError):
    """The input is zero almost everywhere."""


# ---------------------------------------------------------------------------
# weakly null function families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionShiftFamily:
    """f_n(t) = g(t) * (block shifted by offset + n*stride).

    The profile g is a nonnegative scalar step function, the block a
    unit vector in an lp space with p > 1 (which is what makes disjoint
    translates weakly null).  Then ||f_n(t)|| = g(t) identically in n.
    ``shifts`` is the VectorShiftFamily of the block, which validates
    stride and offset.
    """

    profile: StepFunction
    space: SpaceSpec
    block: TaggedVector
    offset: int = 0
    stride: int = 1
    shifts: VectorShiftFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.profile.is_scalar:
            raise SpaceMismatch("the profile must be a scalar step function")
        if any(v < 0.0 for v in self.profile.values):
            raise ValueError("the profile must be nonnegative")
        if not self.space.lp_above_one:
            raise UnsupportedSpace("shift families need an lp component space with p > 1 "
                                   "(structural weak nullity)")
        norm = self.space.vector_norm(self.block)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"the block must have unit norm, got {norm!r}")
        object.__setattr__(self, "shifts", VectorShiftFamily(self.block, self.stride, self.offset))

    def term(self, n: int) -> StepFunction:
        shifted = self.shifts.term(n)
        vals = tuple(
            shifted.scale(v) if v != 0.0 else TaggedVector.zero()
            for v in self.profile.values
        )
        return StepFunction(self.profile.partition, vals, self.space)

    def stabilization_index(self, f: StepFunction) -> int:
        """First n with all shifted blocks clear of f's cell supports."""
        if f.is_zero():
            return 1
        probe = TaggedVector.basis(f.max_support_index())
        return self.shifts.stabilization_index(probe)


def _norm_profile(f: StepFunction) -> StepFunction:
    """The scalar profile t -> ||f(t)|| of a vector-mode f."""
    if f.is_scalar:
        raise SpaceMismatch("f must be a vector-mode step function")
    return pointwise_norm(f)


def eval_phi(fam: FunctionShiftFamily, f: StepFunction) -> StepFunction:
    """phi(t) = liminf_n ||f_n(t) - f(t)||, exact via cell-wise splitting.

    Once the shifts clear f's support the pointwise difference has
    disjoint supports, so the liminf is attained and equals
    (g(t)**pX + ||f(t)||**pX)**(1/pX).  The profile g and the scalar
    ||f(.)|| are refined together, so ||f(t)|| is computed once per cell
    of f.
    """
    return _phi(fam, f, _norm_profile(f))


def _phi(fam: FunctionShiftFamily, f: StepFunction, fn: StepFunction) -> StepFunction:
    """eval_phi from the profile fn = _norm_profile(f) a caller already took."""
    if f.space != fam.space:
        raise SpaceMismatch("f lives in a different space than the family")
    g, fn = common_refinement(fam.profile, fn)
    # where one of g and ||f|| vanishes, phi is the other, exactly
    return StepFunction(g.partition, tuple(p_norms(list(zip(g.values, fn.values)), fam.space.p)))


# ---------------------------------------------------------------------------
# the averaged inequalities
# ---------------------------------------------------------------------------

def _conclusion(g_norm: NormResult, phi_norm: NormResult, eta: float, p: float) -> tuple[float, float, float]:
    """(lhs, rhs, error budget) of ||g|| + eta <= 2**(1-1/p) ||phi||, the
    comparison of Theorem 3.1 (eta = 0) and of the conclusions of
    Theorems 3.3 and 3.4."""
    factor = 2.0 ** (1.0 - 1.0 / p)
    return g_norm.value + eta, factor * phi_norm.value, g_norm.error_bound + factor * phi_norm.error_bound


class _Quantities:
    def quantities(self) -> dict[str, float]:
        """Every field in field order, a NormResult as its value, except
        the verdicts holds1 and holds2 and the level-set intervals A."""
        out = {}
        for fd in fields(self):
            if fd.name not in ("A", "holds1", "holds2"):
                v = getattr(self, fd.name)
                out[fd.name] = v.value if isinstance(v, NormResult) else v
        return out


@dataclass
class Thm31Report(_Quantities):
    """Both averaged-inequality checks with all intermediates.

    Inequality 1 of Theorem 3.1, 2**(p-1)(||phi||**p - ||g||**p) <=
    2**(p-1)||phi||**p - ||g||**p for the exact limsups ||g|| of ||f_n||
    and ||phi|| of ||f_n - f|| (g_norm, phi_norm), is held divided by
    ||phi||**p > 0, which leaves the same inequality in r = ||g||/||phi||:
    lhs1 = 2**(p-1)(1 - r**p) <= rhs1 = 2**(p-1) - r**p, with r = 0 where
    ||g|| = 0 (both undivided sides are then 0).  r lies in [0, 1], so
    every term lies in [0, 2**(p-1)] at any scale of the norms.
    Inequality 2 compares ||g|| with 2**(1-1/p)||phi|| (_conclusion).

    Neither verdict can fail on a shift family: lhs1 - rhs1 =
    -(2**(p-1) - 1) r**p <= 0, and phi >= g pointwise, so ||g|| <=
    ||phi|| <= 2**(1-1/p)||phi|| by the monotonicity of the norm.
    """

    p: float
    r: float
    lhs1: float
    rhs1: float
    holds1: bool
    slack1: float
    lhs2: float
    rhs2: float
    holds2: bool
    slack2: float
    g_norm: NormResult
    phi_norm: NormResult
    stabilization_index: int
    error_budget1: float
    error_budget2: float


def _ratio_sides(g_norm: NormResult, phi_norm: NormResult, p: float) -> tuple[float, float, float, float]:
    """(r, lhs1, rhs1, budget1) of inequality 1 in the ratio form.

    The exact ratio R lies in [g.lower/phi.upper, g.upper/phi.lower] and
    in [0, 1] (phi >= g), so |R**p - r**p| is at most the spread, the
    larger distance of the ends' powers from r**p.  Rounding (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 2-3;
    u = EPS/2): an end is within 3u, its power within (3p + 2)u, and
    the spread adds u, which (3p + 3) EPS covers twice.  lhs1 moves by
    2**(p-1) and rhs1 by 1 per unit of R**p; 2**(p-1) is within an ulp,
    and 1 - r**p and the sides round once each: 8u 2**(p-1) in all.
    """
    r = g_norm.value / phi_norm.value if g_norm.value else 0.0
    r_lo = g_norm.lower / phi_norm.upper if g_norm.lower else 0.0
    r_hi = min(g_norm.upper / phi_norm.lower, 1.0) if phi_norm.lower else 1.0
    rp = r ** p
    spread = max(rp - r_lo ** p, r_hi ** p - rp)
    two = 2.0 ** (p - 1.0)
    budget1 = (two + 1.0) * (spread + (3.0 * p + 3.0) * EPS) + 4.0 * EPS * two
    return r, two * (1.0 - rp), two - rp, budget1


def check_thm31(
    fam: FunctionShiftFamily,
    f: StepFunction,
    p,
    tol: float = DEFAULT_TOL,
) -> Thm31Report:
    """Check both averaged inequalities on a shift family from the two
    norms ||g|| and ||phi||, each normed once.

    All limsups are exact: ||f_n|| = ||g|| for every n, and past the
    stabilization index ||f_n - f|| = ||phi|| identically.
    """
    p = as_exponent(p)
    pw = p.p
    g_norm = ces_fun_norm(fam.profile, p, tol)
    phi_norm = ces_fun_norm(eval_phi(fam, f), p, tol)

    r, lhs1, rhs1, budget1 = _ratio_sides(g_norm, phi_norm, pw)
    lhs2, rhs2, budget2 = _conclusion(g_norm, phi_norm, 0.0, pw)

    return Thm31Report(
        p=pw,
        r=r,
        lhs1=lhs1,
        rhs1=rhs1,
        holds1=bool(lhs1 <= rhs1 + budget1),
        slack1=rhs1 - lhs1,
        lhs2=lhs2,
        rhs2=rhs2,
        holds2=bool(lhs2 <= rhs2 + budget2),
        slack2=rhs2 - lhs2,
        g_norm=g_norm,
        phi_norm=phi_norm,
        stabilization_index=fam.stabilization_index(f),
        error_budget1=budget1,
        error_budget2=budget2,
    )


def check_cor32(
    fam: FunctionShiftFamily,
    f: StepFunction,
    p,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Strict form for nonzero f: a positive gap ||phi|| - ||g|| and a
    positive margin in the 2**(1-1/p) comparison, both beyond the
    combined error bounds.

    The gap stands in for ||phi||**p - ||g||**p of Theorem 3.1: x**p is
    increasing on x >= 0, so with exact limits that difference is
    positive exactly when the gap is, and the gap needs no p-th power,
    which would leave the float range for far smaller or larger norms.

    The margin comparison follows from the gap's: margin - margin_error
    = (2**(1-1/p) - 1)(||phi|| - phi_error) + (gap - gap_error), and at
    p = 1 the two are the same float operations.  So the gap decides
    every verdict, and no test can tell the margin's comparison apart.
    """
    if f.is_zero():
        raise DegenerateInput("f vanishes almost everywhere")
    p = as_exponent(p)
    g_norm = ces_fun_norm(fam.profile, p, tol)
    phi_norm = ces_fun_norm(eval_phi(fam, f), p, tol)
    gap = phi_norm.value - g_norm.value
    gap_error = g_norm.error_bound + phi_norm.error_bound
    lhs, rhs, margin_error = _conclusion(g_norm, phi_norm, 0.0, p.p)
    margin = rhs - lhs
    return CheckReport(
        check="cor32_strictness",
        holds=gap > gap_error and margin > margin_error,
        quantities={
            "p": p.p,
            "gap": gap,
            "gap_error": gap_error,
            "margin": margin,
            "margin_error": margin_error,
            "lhs": lhs,
            "rhs": rhs,
        },
        mode="quadrature",
    )


# ---------------------------------------------------------------------------
# constructive eta recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaRecipe33(_Quantities):
    """Constructive positive-gap chain from the level-set route.

    A is the tau-level set of ||f(.)||; t0 the exact point where half of
    A's measure has accumulated; theta the integral of t**(-p) over
    [t0, 1]; w the component-space modulus at (tau, M); then

        nu    = min(w lambda(A) (theta / 2)**(1/p), 2**(1-1/p)(3R+1))
        omega = 2**(1-1/p)(3R+1) - (2**(p-1)(3R+1)**p - nu**p)**(1/p)
        eta   = min(omega, 1)

    eta is positive whenever w > 0 and lambda(A) > 0.
    """

    p: float
    M: float
    R: float
    tau: float
    A: tuple[tuple[float, float], ...]
    lambda_A: float
    t0: float
    theta: float
    w: float
    nu: float
    omega: float
    eta: float


@dataclass(frozen=True)
class EtaRecipe34(_Quantities):
    """Positive-gap chain driven by an integrability bound instead of a
    level set: Q lower-bounds the measure of the tau-level set from
    ||f||_r <= K, then the chain proceeds as in the level-set recipe
    with lambda(A) replaced by Q and t0 = 1 - Q/2."""

    p: float
    r: float
    eps: float
    M: float
    K: float
    R: float
    tau: float
    s: float
    s_prime: float
    q: float
    Q: float
    t0: float
    theta: float
    w: float
    nu: float
    omega: float
    eta: float


def _level_set(profile: StepFunction, tau: float) -> tuple[tuple[tuple[float, float], ...], float]:
    """Cells where the profile is >= tau, merged, with total measure."""
    intervals: list[tuple[float, float]] = []
    for (a, b), v in zip(profile.partition.cells, profile.values):
        if v >= tau:
            if intervals and intervals[-1][1] == a:
                intervals[-1] = (intervals[-1][0], b)
            else:
                intervals.append((a, b))
    lam = math.fsum(b - a for a, b in intervals)
    return tuple(intervals), lam


def _half_measure_crossing(intervals, lam: float) -> float:
    """Minimal t with lambda(A intersect [0, t]) >= lambda(A)/2.

    The cumulative measure is piecewise linear; the crossing is solved
    exactly inside the interval where it happens.
    """
    target = 0.5 * lam
    acc = 0.0
    for a, b in intervals:
        width = b - a
        if acc + width >= target:
            return a + (target - acc)
        acc += width
    return intervals[-1][1]  # unreachable for lam > 0


def _theta(t0: float, p: float, one_minus_t0: float | None = None) -> float:
    """theta_integral, with DomainError where theta leaves the float range."""
    try:
        return theta_integral(t0, p, one_minus_t0)
    except OverflowError:
        raise DomainError(f"the integral of t**-p over [t0, 1] exceeds the float range at p = {p!r}") from None


def _chain_tail(w: float, measure: float, theta: float, p: float, R: float):
    """Shared nu -> omega -> eta tail of both recipes; nu forms no p-th power."""
    cap = 2.0 ** (1.0 - 1.0 / p) * (3.0 * R + 1.0)
    if not math.isfinite(cap):
        raise DomainError(f"the cap 2**(1-1/p)(3R + 1) exceeds the float range at R = {R!r}")
    nu = min(w * measure * (theta / 2.0) ** (1.0 / p), cap)
    # omega = cap - (cap**p - nu**p)**(1/p), evaluated cancellation-free
    omega = stable_pth_root_shift(cap, nu, p)
    eta = min(omega, 1.0)
    return nu, omega, eta


def compute_eta_thm33(
    f: StepFunction,
    p,
    M: float,
    R: float,
    tau: float | None = None,
    tol: float = DEFAULT_TOL,
) -> EtaRecipe33:
    """Run the level-set recipe for a nonzero vector-mode f, 0 < tau < ||f||.

    tau defaults to half of ||f||, and DegenerateInput is raised when
    that is 0 (f vanishes almost everywhere); ||f|| is computed once
    either way.  w is lp_modulus(f.space, tau, M), the modulus of f's
    component space.
    """
    return _eta_thm33(f, p, M, R, tau, tol)[0]


def _eta_thm33(f: StepFunction, p, M: float, R: float, tau: float | None,
               tol: float) -> tuple[EtaRecipe33, StepFunction]:
    """compute_eta_thm33, and the profile t -> ||f(t)|| it took."""
    p = as_exponent(p)
    require_positive_finite(DomainError, M=M, R=R)
    profile = _norm_profile(f)
    fnorm = ces_fun_norm(profile, p, tol)
    if tau is None:
        tau = 0.5 * fnorm.value
        if tau == 0.0:
            raise DegenerateInput("f vanishes almost everywhere; no admissible tau")
    if not (0.0 < tau < fnorm.value):
        raise TauOutOfRange(
            f"tau must lie strictly between 0 and ||f|| = {fnorm.value!r}, got {tau!r}"
        )
    w = lp_modulus(f.space, tau, M)

    intervals, lam = _level_set(profile, tau)
    # tau < ||f|| forces a positive-measure level set (internal invariant)
    assert lam > 0.0, "level set of measure zero despite tau < ||f||"
    t0 = _half_measure_crossing(intervals, lam)
    theta = _theta(t0, p.p)
    nu, omega, eta = _chain_tail(w, lam, theta, p.p, R)
    return EtaRecipe33(
        p=p.p, M=M, R=R, tau=tau, A=intervals, lambda_A=lam,
        t0=t0, theta=theta, w=w, nu=nu, omega=omega, eta=eta,
    ), profile


def compute_eta_thm34(
    p,
    r: float,
    eps: float,
    M: float,
    K: float,
    R: float,
    tau: float,
    space: SpaceSpec,
) -> EtaRecipe34:
    """Run the integrability-driven recipe for 1 < p < r <= inf; w is
    lp_modulus(space, tau, M), the modulus of the component space.

    s = r/p may be infinite; its conjugate is taken to be 1 in that
    case.  Requires q tau < eps with q conjugate to p.  Q is homogeneous
    of degree 0 in (eps, tau, K), which are first divided by the power
    of two that puts K in [1, 2), so the p-th powers stay in range.
    """
    p = as_exponent(p)
    if p.is_one:
        raise InvalidExponent("the recipe requires p > 1")
    pw = p.p
    if not r > pw:
        raise ExponentOrder(f"need p < r, got p = {pw!r}, r = {r!r}")
    require_positive_finite(DomainError, eps=eps, M=M, K=K, R=R, tau=tau)
    q = p.q
    if math.isinf(r):
        s = math.inf
        s_prime = 1.0  # conjugate of an infinite exponent
    else:
        s = r / pw
        s_prime = s / (s - 1.0)
    if q * tau >= eps:
        raise TauTooLarge(f"admissibility requires q * tau < eps (got q = {q!r}, tau = {tau!r}, eps = {eps!r})")
    exp2 = math.frexp(K)[1] - 1
    eps_k, tau_k, K_k = (math.ldexp(x, -exp2) for x in (eps, tau, K))
    try:
        base = eps_k ** pw / q ** pw - tau_k ** pw
    except OverflowError:
        raise DomainError(f"eps**p or tau**p leaves the float range at p = {pw!r}") from None
    try:
        Q = min(base ** s_prime * K_k ** (-pw * s_prime), 1.0)
    except OverflowError:
        raise DomainError(f"the level-set measure bound Q leaves the float range (K = {K!r}, eps = {eps!r})") from None
    if Q == 0.0:
        raise DomainError(f"the level-set measure bound Q underflows (K = {K!r}, eps = {eps!r})")
    t0 = 1.0 - Q / 2.0
    theta = _theta(t0, pw, one_minus_t0=Q / 2.0)
    w = lp_modulus(space, tau, M)
    nu, omega, eta = _chain_tail(w, Q, theta, pw, R)
    return EtaRecipe34(
        p=pw, r=r, eps=eps, M=M, K=K, R=R, tau=tau,
        s=s, s_prime=s_prime, q=q, Q=Q, t0=t0, theta=theta,
        w=w, nu=nu, omega=omega, eta=eta,
    )


# ---------------------------------------------------------------------------
# full theorem checks
# ---------------------------------------------------------------------------

def _verify_family_bounds(fam: FunctionShiftFamily, p, M: float, R: float,
                          tol: float) -> NormResult:
    """Hypotheses are verified, not trusted: sup_n ||f_n|| = ||g|| <= R
    and the pointwise limit g(t) <= M."""
    g_norm = ces_fun_norm(fam.profile, p, tol)
    if g_norm.value > R + g_norm.error_bound:
        raise HypothesisViolation(
            f"R: sup_n of the family norms is {g_norm.value!r} > R = {R!r}"
        )
    g_max = max(fam.profile.values)
    if g_max > M:
        raise HypothesisViolation(
            f"M: the pointwise norm limit reaches {g_max!r} > M = {M!r}"
        )
    return g_norm


def _check_conclusion(check: str, fam: FunctionShiftFamily, f: StepFunction, profile: StepFunction,
                      p: Exponent, g_norm: NormResult, recipe, hypotheses: dict[str, float],
                      tol: float) -> CheckReport:
    """The conclusion limsup||f_n|| + eta <= 2**(1-1/p) limsup||f_n - f||
    shared by Theorems 3.3 and 3.4, with the exact limsups ||g|| and
    ||phi|| of the family; profile is the theorem's _norm_profile(f),
    which phi reuses, and hypotheses are the norms a theorem verified
    besides ||g||, reported after the limsups."""
    phi_norm = ces_fun_norm(_phi(fam, f, profile), p, tol)
    lhs, rhs, budget = _conclusion(g_norm, phi_norm, recipe.eta, p.p)
    quantities = {
        "limsup_fn": g_norm.value,
        "limsup_fn_minus_f": phi_norm.value,
        **hypotheses,
        "lhs": lhs,
        "rhs": rhs,
        "slack": rhs - lhs,
        "error_budget": budget,
        **recipe.quantities(),
    }
    return CheckReport(check=check, holds=lhs <= rhs + budget, quantities=quantities, mode="quadrature")


def verify_thm33(
    fam: FunctionShiftFamily,
    f: StepFunction,
    p,
    M: float,
    R: float,
    tau: float | None = None,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Verify hypotheses, run the level-set recipe, check its conclusion
    limsup||f_n|| + eta <= 2**(1-1/p) limsup||f_n - f||.

    tau is passed to compute_eta_thm33, which defaults it to half the
    norm of f; any admissible tau produces a valid (generally
    different) eta, and the report records the one used.
    """
    p = as_exponent(p)
    g_norm = _verify_family_bounds(fam, p, M, R, tol)
    recipe, profile = _eta_thm33(f, p, M, R, tau, tol)
    return _check_conclusion("thm33_conclusion", fam, f, profile, p, g_norm, recipe, {}, tol)


def verify_thm34(
    fam: FunctionShiftFamily,
    f: StepFunction,
    p,
    r: float,
    eps: float,
    M: float,
    K: float,
    R: float,
    tau: float | None = None,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Like verify_thm33 but under the integrability hypotheses
    ||f||_r <= K and ||f|| >= eps; tau defaults to eps/(2q)."""
    p = as_exponent(p)
    g_norm = _verify_family_bounds(fam, p, M, R, tol)
    profile = _norm_profile(f)
    f_r = lr_fun_norm(profile, r)
    if f_r.value - f_r.error_bound > K:
        raise HypothesisViolation(f"K: ||f||_r = {f_r.value!r} exceeds K = {K!r}")
    f_ces = ces_fun_norm(profile, p, tol)
    if f_ces.value + f_ces.error_bound < eps:
        raise HypothesisViolation(
            f"eps: ||f|| = {f_ces.value!r} falls below eps = {eps!r}"
        )
    if tau is None:
        tau = eps / (2.0 * p.q)
    recipe = compute_eta_thm34(p, r, eps, M, K, R, tau, f.space)
    return _check_conclusion("thm34_conclusion", fam, f, profile, p, g_norm, recipe,
                             {"f_r_norm": f_r.value, "f_ces_norm": f_ces.value}, tol)


# ---------------------------------------------------------------------------
# Cesaro sums and the sharpness example
# ---------------------------------------------------------------------------

def check_prop21(
    fam: SlotShiftFamily,
    x: SumElement,
    window: tuple[int, int] = (100, 200),
    tol: float = 1e-10,
) -> CheckReport:
    """Windowed Opial check for slot shifts in a Cesaro sum.

    Slot-shifted norms decay without stabilizing, so the limsups are
    windowed estimates; the strict inequality must hold with a margin
    exceeding the window drift plus the norm error bounds.  For x = 0
    the sequence of differences coincides with the terms and only the
    nonstrict form is asserted.
    """
    fam.require_same_sum(x)
    lo, hi = window
    if fam.slot(hi) > MAX_INDEX:
        raise DomainError("the window's last slot exceeds 2**53, the largest slot")
    norms = []
    diffs = []
    for k in range(lo, hi + 1):
        term = fam.term(k)
        norms.append(cesaro_sum_norm(term, tol).value)
        diffs.append(cesaro_sum_norm(term.sub(x), tol).value)
    est_norm = max(norms)
    est_diff = max(diffs)
    drift = (max(norms) - min(norms)) + (max(diffs) - min(diffs))
    x_norm = 0.0 if x.is_zero else cesaro_sum_norm(x, tol).value
    margin = est_diff - est_norm
    if x.is_zero:
        holds = abs(margin) <= 2.0 * tol  # nonstrict: equality expected
        notes = "x = 0: nonstrict comparison (terms coincide with differences)"
    else:
        holds = margin > drift + 2.0 * tol
        notes = "windowed empirical estimate, not certified"
    return CheckReport(
        check="prop21_opial",
        holds=holds,
        quantities={
            "limsup_norm_estimate": est_norm,
            "limsup_diff_estimate": est_diff,
            "margin": margin,
            "window_drift": drift,
            "window_lo": float(lo),
            "window_hi": float(hi),
            "x_norm": x_norm,
        },
        mode="windowed",
        notes=notes,
    )


def check_sharpness_footnote(lam: float = 1.0, center_tail: float = 1.0) -> CheckReport:
    """Sharpness of the constant 2 in limsup||x_n|| <= 2 limsup||x_n - x||.

    In the sup-norm space of convergent sequences take x_n = 2*lam*e_n
    and x with constant value lam*center_tail.  Every term has norm
    2*lam while ||x_n - x|| = lam for the constant-one center, so the
    ratio of the limsups is exactly 2 and the bound is attained.
    """
    if lam == 0.0:
        raise DomainError("lam must be nonzero")
    x = CElement(TaggedVector.zero(), lam * center_tail)
    # the sequences are constant in n; three terms witness that
    norm_vals = []
    diff_vals = []
    for n in (1, 2, 3):
        x_n = CElement(TaggedVector.basis(n, 2.0 * lam), 0.0)
        norm_vals.append(x_n.sup_norm())
        diff_vals.append(x_n.sub(x).sup_norm())
    limsup_norm = max(norm_vals)
    limsup_diff = max(diff_vals)
    ratio = limsup_norm / limsup_diff
    holds = limsup_norm <= 2.0 * limsup_diff
    return CheckReport(
        check="sharpness_constant_two",
        holds=holds,
        quantities={
            "limsup_norm": limsup_norm,
            "limsup_diff": limsup_diff,
            "ratio": ratio,
            "lam": lam,
            "center_tail": center_tail,
        },
        mode="exact",
        notes="constant-in-n sequences; limits are exact",
    )
