"""Inequality harness against extended-precision recipe oracles.

The eta-chain oracles below recompute the full constructive chains with
mpmath at 50 digits, straight from their defining formulas; the
implementation must match them to well below the acceptance tolerances.
"""

from __future__ import annotations

import bisect
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesaro_lab import (
    DegenerateInput,
    DomainError,
    ExponentOrder,
    FunctionShiftFamily,
    HypothesisViolation,
    InvalidExponent,
    SpaceMismatch,
    SpaceSpec,
    StepFunction,
    SumElement,
    SlotShiftFamily,
    TaggedVector,
    TauOutOfRange,
    TauTooLarge,
    UnsupportedSpace,
    cesaro_sum_norm,
    check_cor32,
    check_prop21,
    check_sharpness_footnote,
    check_thm31,
    compute_eta_thm33,
    compute_eta_thm34,
    eval_phi,
    scale,
    verify_thm33,
    verify_thm34,
    weighted_l1_norm,
)
from cesaro_lab import harness, model
from cesaro_lab.model import NormResult, _scale_exponent, pointwise_norm
from cesaro_lab.numerics import stable_pth_root_shift, theta_integral
from cesaro_lab.opial import lp_modulus
from cesaro_lab.scalar import DEFAULT_TOL, ces_fun_norm, ces_seq_norm
from cesaro_lab.suite import _hardy_near_extremal
from test_opial import sum_norm_oracle

mp.mp.dps = 50

L2 = SpaceSpec.lp(2.0)


def worked_family() -> FunctionShiftFamily:
    return FunctionShiftFamily(
        profile=StepFunction.constant(1.0),
        space=L2,
        block=TaggedVector.basis(1),
        offset=1,
        stride=1,
    )


def worked_f() -> StepFunction:
    return StepFunction.constant(TaggedVector.basis(1), L2)


def chain_tail_oracle(w, measure, theta, p, R):
    cap = mp.mpf(2) ** (1 - 1 / mp.mpf(p)) * (3 * R + 1)
    nu = min((mp.mpf(w) ** p * mp.mpf(measure) ** p * mp.mpf(theta) / 2) ** (1 / mp.mpf(p)), cap)
    omega = cap - (cap ** p - nu ** p) ** (1 / mp.mpf(p))
    return nu, omega, min(omega, mp.mpf(1))


def eta33_oracle(p, px, tau, M, R, lam_A, t0):
    p, tau, M, R = map(mp.mpf, (p, tau, M, R))
    w = (M ** px + tau ** px) ** (1 / mp.mpf(px)) - M
    theta = (mp.mpf(t0) ** (1 - p) - 1) / (p - 1) if p != 1 else -mp.log(t0)
    return chain_tail_oracle(w, lam_A, theta, p, R)


def eta34_oracle(p, px, r, eps, M, K, R, tau):
    p, r, eps, M, K, R, tau = map(mp.mpf, (p, r, eps, M, K, R, tau))
    q = p / (p - 1)
    s = r / p
    sp = mp.mpf(1) if mp.isinf(s) else s / (s - 1)
    Q = min((eps ** p / q ** p - tau ** p) ** sp * K ** (-p * sp), mp.mpf(1))
    t0 = 1 - Q / 2
    theta = (t0 ** (1 - p) - 1) / (p - 1)
    w = (M ** px + tau ** px) ** (1 / mp.mpf(px)) - M
    nu, omega, eta = chain_tail_oracle(w, Q, theta, p, R)
    return Q, t0, theta, w, eta


# ---------------------------------------------------------------------------
# families and phi
# ---------------------------------------------------------------------------

def test_family_validation():
    good = worked_family()
    assert good.term(1).values[0].indices == (3,)  # e_1 shifted by offset 1 + stride
    with pytest.raises(UnsupportedSpace):
        FunctionShiftFamily(StepFunction.constant(1.0), SpaceSpec.lp(1.0), TaggedVector.basis(1))
    with pytest.raises(ValueError):
        FunctionShiftFamily(StepFunction.constant(1.0), L2, TaggedVector.basis(1, 2.0))
    with pytest.raises(ValueError):
        FunctionShiftFamily(StepFunction.constant(-1.0), L2, TaggedVector.basis(1))
    with pytest.raises(SpaceMismatch):
        FunctionShiftFamily(
            StepFunction.constant(TaggedVector.basis(1), L2), L2, TaggedVector.basis(1)
        )


def test_eval_phi_constant_case():
    phi = eval_phi(worked_family(), worked_f())
    assert phi.values == (math.sqrt(2.0),)


def test_eval_phi_zero_f():
    f0 = StepFunction.constant(TaggedVector.zero(), L2)
    phi = eval_phi(worked_family(), f0)
    assert phi.values == (1.0,)  # phi collapses to the profile


def test_eval_phi_half_support():
    f = StepFunction.vector((0.0, 0.5, 1.0), (TaggedVector.basis(1), TaggedVector.zero()), L2)
    phi = eval_phi(worked_family(), f)
    assert phi.values == (math.sqrt(2.0), 1.0)


def test_eval_phi_space_mismatch():
    f = StepFunction.constant(TaggedVector.basis(1), SpaceSpec.lp(3.0))
    with pytest.raises(SpaceMismatch):
        eval_phi(worked_family(), f)


def test_eval_phi_norms_each_cell_of_f_once(monkeypatch):
    # the profile has 8 cells and f 2, so the refinement has 8 cells
    fam = FunctionShiftFamily(
        profile=StepFunction.scalar(tuple(k / 8 for k in range(9)), tuple(0.25 * k for k in range(8))),
        space=L2,
        block=TaggedVector.basis(1),
        offset=1,
    )
    f = StepFunction.vector((0.0, 0.5, 1.0), (TaggedVector.from_pairs([(1, 0.6), (2, 0.8)]),
                                              TaggedVector.basis(2, 3.0)), L2)
    expected = eval_phi(fam, f)
    normed = []
    p_norms = model.p_norms

    def counting(rows, p):
        normed.extend(rows)
        return p_norms(rows, p)

    # pointwise_norm looks the helper up in model; eval_phi's own call for
    # the (g, ||f||) pairs of the refinement goes through harness's name
    monkeypatch.setattr(model, "p_norms", counting)
    phi = eval_phi(fam, f)
    assert phi == expected and len(phi.values) == 8
    assert normed == [[abs(c) for _, c in v.entries] for v in f.values]


@pytest.mark.parametrize("theorem", ["thm33", "thm34"])
def test_theorem_checks_norm_each_cell_of_f_once(monkeypatch, theorem):
    # the recipe (thm33) or the hypotheses (thm34) take the profile
    # ||f(.)||, and the conclusion's phi reuses it
    fam = FunctionShiftFamily(
        profile=StepFunction.scalar(tuple(k / 8 for k in range(9)), tuple(0.1 * (k + 1) for k in range(8))),
        space=L2,
        block=TaggedVector.basis(1),
        offset=1,
    )
    f = StepFunction.vector((0.0, 0.5, 1.0), (TaggedVector.from_pairs([(1, 0.6), (2, 0.8)]),
                                              TaggedVector.basis(2, 3.0)), L2)

    def run():
        if theorem == "thm33":
            return verify_thm33(fam, f, 2.0, M=1.0, R=1.0)
        return verify_thm34(fam, f, 2.0, r=4.0, eps=0.5, M=1.0, K=3.0, R=1.0)

    expected = run()
    normed = []
    p_norms = model.p_norms

    def counting(rows, p):
        normed.extend(rows)
        return p_norms(rows, p)

    monkeypatch.setattr(model, "p_norms", counting)
    rpt = run()
    assert rpt.holds and rpt.quantities == expected.quantities
    assert normed == [[abs(c) for _, c in v.entries] for v in f.values]


def phi_per_cell(fam, f):
    """eval_phi as it was computed before model.p_norms: the refinement
    by a set union and a bisect per refined cell, ||f(t)|| by
    vector_norm per cell of f, and phi cell by cell, the nonzero one of
    g and ||f|| where the other vanishes."""
    pts = sorted(set(fam.profile.partition.breakpoints) | set(f.partition.breakpoints))
    px = fam.space.p

    def pnorm(mags):
        exp2 = _scale_exponent(max(mags), px)
        return math.ldexp(math.fsum([math.ldexp(m, -exp2) ** px for m in mags]) ** (1.0 / px), exp2)

    def on(h, vals):
        return [vals[bisect.bisect_right(h.partition.breakpoints, a) - 1] for a in pts[:-1]]

    norms = [0.0 if v.is_zero else abs(v.entries[0][1]) if len(v.entries) == 1
             else pnorm([abs(c) for _, c in v.entries]) for v in f.values]
    vals = [g if n == 0.0 else n if g == 0.0 else pnorm([g, n])
            for g, n in zip(on(fam.profile, fam.profile.values), on(f, norms))]
    return tuple(pts), tuple(vals)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1.5, 2.0, 3.0]), st.integers(1, 40), st.integers(1, 15), st.integers(0, 2**32 - 1))
def test_eval_phi_is_the_per_cell_formula_bit_for_bit(px, profile_cells, f_cells, seed):
    rng = np.random.default_rng(seed)
    space = SpaceSpec.lp(px)
    edges = np.sort(rng.uniform(0.0, 1.0, size=profile_cells - 1)).tolist()
    # f shares some of the profile's breakpoints
    f_edges = sorted(set(np.sort(rng.uniform(0.0, 1.0, size=f_cells - 1)).tolist())
                     | set(rng.choice([0.5, *edges], size=min(3, len(edges) + 1)).tolist()))
    profile = [0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 3.0)) for _ in range(len(edges) + 1)]
    fam = FunctionShiftFamily(profile=StepFunction.scalar((0.0, *edges, 1.0), profile), space=space,
                              block=TaggedVector.basis(1), offset=1)
    cells = [TaggedVector.from_pairs([(int(i), float(rng.uniform(-2.0, 2.0))) for i in rng.choice(5, size=k) + 1])
             for k in rng.integers(0, 4, size=len(f_edges) + 1)]
    f = StepFunction.vector((0.0, *f_edges, 1.0), cells, space)
    phi = eval_phi(fam, f)
    pts, vals = phi_per_cell(fam, f)
    assert phi.partition.breakpoints == pts
    assert [v.hex() for v in phi.values] == [v.hex() for v in vals]


def test_phi_dominates_profile_cellwise():
    # the splitting profile never drops below g, exactly, cell by cell
    rng = np.random.default_rng(41)
    for _ in range(20):
        px = float(rng.choice([1.5, 2.0, 3.0]))
        space = SpaceSpec.lp(px)
        raw = TaggedVector.from_pairs([(int(i), float(rng.uniform(0.2, 2.0))) for i in range(1, 4)])
        block = raw.scale(1.0 / space.vector_norm(raw))
        fam = FunctionShiftFamily(
            profile=StepFunction.scalar((0.0, 0.4, 1.0), tuple(rng.uniform(0.0, 2.0, size=2))),
            space=space,
            block=block,
            stride=block.width,
        )
        cells = tuple(
            TaggedVector.basis(1, float(rng.uniform(-1.0, 1.0))) if rng.uniform() < 0.7 else TaggedVector.zero()
            for _ in range(2)
        )
        f = StepFunction.vector((0.0, 0.5, 1.0), cells, space)
        phi = eval_phi(fam, f)
        g = fam.profile.on_partition(phi.partition)
        assert all(pv >= gv for pv, gv in zip(phi.values, g.values))


# ---------------------------------------------------------------------------
# thm31 / cor32
# ---------------------------------------------------------------------------

def test_thm31_worked_example():
    # ||g|| = 1 and ||phi|| = 2**(1/2): r = 2**(-1/2), lhs1 = 2 (1 - 1/2), rhs1 = 2 - 1/2
    rpt = check_thm31(worked_family(), worked_f(), 2.0)
    assert abs(rpt.r - 2.0 ** -0.5) <= 1e-10
    assert abs(rpt.lhs1 - 1.0) <= 1e-8
    assert abs(rpt.rhs1 - 1.5) <= 1e-8
    assert abs(rpt.lhs2 - 1.0) <= 1e-10
    assert abs(rpt.rhs2 - 2.0) <= 1e-8
    assert rpt.holds1 and rpt.holds2
    assert rpt.lhs2 == rpt.g_norm.value  # ||g|| + 0.0 is ||g||, bit for bit
    q = rpt.quantities()
    assert (q["g_norm"], q["phi_norm"]) == (rpt.g_norm.value, rpt.phi_norm.value)


def test_thm31_quantities_are_the_fields_without_the_verdicts():
    q = check_thm31(worked_family(), worked_f(), 2.0).quantities()
    # every field but the verdicts; g_norm and phi_norm are the limsups
    # of ||f_n|| and ||f_n - f||, listed once
    assert list(q) == ["p", "r", "lhs1", "rhs1", "slack1", "lhs2", "rhs2", "slack2",
                       "g_norm", "phi_norm", "stabilization_index", "error_budget1", "error_budget2"]


def test_thm31_zero_f():
    f0 = StepFunction.constant(TaggedVector.zero(), L2)
    rpt = check_thm31(worked_family(), f0, 2.0)
    # phi = g, so r = 1, lhs1 = 0 and rhs1 = 2**(p-1) - 1
    assert abs(rpt.r - 1.0) <= 1e-12
    assert abs(rpt.lhs1) <= 1e-12
    assert abs(rpt.rhs1 - 1.0) <= 1e-10
    assert rpt.holds1 and rpt.holds2


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_thm31_on_a_zero_profile_has_a_rounding_budget(p):
    # ||g|| = 0 with no error, so r = 0 exactly: budget1 is rounding,
    # not the trivial bracket r in [0, 1] (a budget of 2**(p-1) + 1)
    fam = FunctionShiftFamily(profile=StepFunction.constant(0.0), space=L2, block=TaggedVector.basis(1),
                              offset=1, stride=1)
    rpt = check_thm31(fam, StepFunction.constant(TaggedVector.basis(1, 1e-300), L2), p)
    assert rpt.g_norm.error_bound == 0.0 and rpt.r == 0.0
    assert rpt.holds1 and rpt.holds2
    assert rpt.error_budget1 < 1e-13


def test_thm31_half_indicator_oracle():
    # phi = sqrt(2) on (0, 1/2], 1 on (1/2, 1]; with c = (sqrt2 - 1)/2 the
    # closed-form norm power is 1 + 1/2 + 2 c ln 2 + c**2
    c = (mp.sqrt(2) - 1) / 2
    phi_power = 1 + mp.mpf(1) / 2 + 2 * c * mp.log(2) + c ** 2
    f = StepFunction.vector((0.0, 0.5, 1.0), (TaggedVector.basis(1), TaggedVector.zero()), L2)
    rpt = check_thm31(worked_family(), f, 2.0)
    # ||g|| = 1, so r = 1/||phi||
    assert abs(rpt.r - float(1 / mp.sqrt(phi_power))) <= 1e-9
    assert abs(rpt.phi_norm.value ** 2 - float(phi_power)) <= 1e-9
    assert rpt.holds1 and rpt.holds2


def test_thm31_p1_agrees_with_weighted_route():
    f = StepFunction.vector((0.0, 0.5, 1.0), (TaggedVector.basis(1), TaggedVector.zero()), L2)
    fam = worked_family()
    rpt = check_thm31(fam, f, 1.0)
    phi = eval_phi(fam, f)
    r_weighted = weighted_l1_norm(fam.profile).value / weighted_l1_norm(phi).value
    assert abs(rpt.r - r_weighted) <= 1e-8 * r_weighted
    assert rpt.holds1 and rpt.holds2


def test_cor32_strict_margins():
    rpt = check_cor32(worked_family(), worked_f(), 2.0)
    assert rpt.holds
    # margin = 2 - 1 = 1 for the unit example
    assert abs(rpt.quantities["margin"] - 1.0) <= 1e-8


def test_cor32_tiny_scaling_still_strict():
    f = StepFunction.vector((0.0, 0.5, 1.0), (TaggedVector.basis(1), TaggedVector.zero()), L2)
    for factor in (1e-4, 1e-6):
        rpt = check_cor32(worked_family(), scale(f, factor), 2.0)
        assert rpt.holds, rpt.quantities
        assert rpt.quantities["gap"] > rpt.quantities["gap_error"]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-160, 1e155, 1e200, 1e300])
def test_thm31_holds_on_the_scaled_worked_family(c, p):
    # profile c, block e_1 in l2, f = c e_1: ||phi|| = 2**(1/2) ||g|| at
    # every scale, so r = 2**(-1/2), though the p-th powers of the norms
    # underflow or overflow at most of these scales
    fam = FunctionShiftFamily(profile=StepFunction.constant(c), space=L2, block=TaggedVector.basis(1),
                              offset=1, stride=1)
    rpt = check_thm31(fam, StepFunction.constant(TaggedVector.basis(1, c), L2), p)
    q = rpt.quantities()
    assert all(math.isfinite(v) for v in q.values()), q
    assert rpt.holds1 and rpt.holds2, q
    assert rpt.error_budget1 > 0.0 and rpt.error_budget2 > 0.0
    # for r and its limit in [1/2, 1] and p >= 3/2, |r - R| <= |r**p - R**p| <= budget1
    assert abs(rpt.r - 2.0 ** -0.5) <= rpt.error_budget1
    two = 2.0 ** (p - 1.0)
    assert math.isclose(rpt.lhs1, two * (1.0 - 2.0 ** (-p / 2.0)), rel_tol=1e-9)
    assert math.isclose(rpt.rhs1, two - 2.0 ** (-p / 2.0), rel_tol=1e-9)


def test_thm31_budget1_covers_the_norms_errors(monkeypatch):
    # norms 1 and 2 within 2**-20 each: r**p moves by up to about
    # p 2**-20 relative, which the budget must cover on both sides
    fam = worked_family()
    monkeypatch.setattr(harness, "ces_fun_norm", lambda h, p, tol: NormResult(
        1.0 if h is fam.profile else 2.0, 2.0 ** -20))
    rpt = check_thm31(fam, worked_f(), 3.0)
    assert rpt.r == 0.5
    widest = max((1.0 + 2.0 ** -20) / (2.0 - 2.0 ** -20), 0.5) ** 3 - 0.125
    assert rpt.error_budget1 >= 5.0 * widest  # 2**(p-1) + 1 per unit of r**p


@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-160, 1e200, 1e300])
def test_cor32_holds_on_the_scaled_worked_family(c, p):
    # profile c, block e_1 in l2, f = c e_1: ||g|| = c||1||, ||phi|| = 2**(1/2)||g||.
    # Both norms and the verdict are representable, though at most of
    # these scales the p-th powers of the norms underflow or overflow.
    fam = FunctionShiftFamily(profile=StepFunction.constant(c), space=L2, block=TaggedVector.basis(1),
                              offset=1, stride=1)
    rpt = check_cor32(fam, StepFunction.constant(TaggedVector.basis(1, c), L2), p)
    q = rpt.quantities
    assert rpt.holds, q
    assert q["gap_error"] > 0.0 and q["gap"] > q["gap_error"]
    assert math.isclose(q["gap"], (math.sqrt(2.0) - 1.0) * q["lhs"], rel_tol=1e-9)


@pytest.mark.parametrize("p", [2.0, 1.0])
def test_cor32_fails_where_the_gap_is_within_its_error(p):
    # f scaled down until the two norms differ by less than their errors:
    # the strict inequality is not certified.  At p = 2 the margin is
    # about 0.41, so the gap alone decides; at p = 1 the margin is the gap
    f = StepFunction.vector((0.0, 0.5, 1.0), (TaggedVector.basis(1), TaggedVector.zero()), L2)
    rpt = check_cor32(worked_family(), scale(f, 1e-7), p)
    q = rpt.quantities
    assert 0.0 < q["gap"] <= q["gap_error"]
    assert not rpt.holds
    if p == 1.0:
        assert (q["margin"], q["margin_error"]) == (q["gap"], q["gap_error"])
    else:
        assert q["margin"] > q["margin_error"]


def test_cor32_fails_where_the_gap_equals_its_error(monkeypatch):
    # norms 1 and 1 + 2**-29, each within 2**-30: the gap is exactly its
    # error, so the limits may be equal and the check must not hold
    fam = worked_family()
    monkeypatch.setattr(harness, "ces_fun_norm", lambda h, p, tol: NormResult(
        1.0 if h is fam.profile else 1.0 + 2.0 ** -29, 2.0 ** -30))
    rpt = check_cor32(fam, worked_f(), 2.0)
    q = rpt.quantities
    assert q["gap"] == q["gap_error"] == 2.0 ** -29
    assert q["margin"] > q["margin_error"]
    assert not rpt.holds


def test_norm_warnings_reach_the_notes_of_cor32_and_the_conclusions():
    # both norms of a family on the 41-cell near-extremal step miss tol at p = 1.5
    fam = FunctionShiftFamily(profile=_hardy_near_extremal(1.5, 41), space=L2, block=TaggedVector.basis(1),
                              offset=1, stride=1)
    wide = harness.ces_fun_norm(fam.profile, 1.5).warning
    assert wide is not None
    assert check_cor32(fam, worked_f(), 1.5).notes == f"g_norm: {wide} | phi_norm: {wide}"
    conclusion = verify_thm33(fam, worked_f(), 1.5, M=1e8, R=1e3)
    assert conclusion.notes == f"limsup_fn: {wide} | limsup_fn_minus_f: {wide}"
    assert check_cor32(fam, worked_f(), 3.0).notes == ""
    assert check_cor32(worked_family(), worked_f(), 1.5).notes == ""


def test_cor32_rejects_zero_f():
    with pytest.raises(DegenerateInput):
        check_cor32(worked_family(), StepFunction.constant(TaggedVector.zero(), L2), 2.0)


def test_thm31_battery_cross_refinement():
    # the report is partition-refinement stable within error bounds
    f = StepFunction.vector((0.0, 0.5, 1.0), (TaggedVector.basis(1), TaggedVector.zero()), L2)
    r1 = check_thm31(worked_family(), f, 2.0)
    f_ref = f.on_partition(f.partition.refine_uniform(4))
    r2 = check_thm31(worked_family(), f_ref, 2.0)
    assert abs(r1.r - r2.r) <= r1.error_budget1 + r2.error_budget1


# ---------------------------------------------------------------------------
# eta recipes
# ---------------------------------------------------------------------------

def test_eta33_worked_chain():
    recipe = compute_eta_thm33(worked_f(), 2.0, M=1.0, R=1.0, tau=0.5)
    assert recipe.A == ((0.0, 1.0),)
    assert recipe.lambda_A == 1.0
    assert recipe.t0 == 0.5
    assert abs(recipe.theta - 1.0) <= 1e-15
    nu_o, omega_o, eta_o = eta33_oracle(2.0, 2.0, 0.5, 1.0, 1.0, 1.0, 0.5)
    assert abs(recipe.w - float(mp.sqrt(mp.mpf(5)) / 2 - 1)) <= 1e-15
    assert abs(recipe.nu - float(nu_o)) <= 1e-15
    assert abs(recipe.eta - float(eta_o)) <= 1e-12
    # frozen decimal from the oracle
    assert abs(recipe.eta - 6.157477361207266e-4) <= 1e-9
    assert recipe.eta > 0.0


def test_eta33_level_set_depends_only_on_tau():
    # any constant profile above tau yields the full-interval level set
    for c in (0.6, 1.0, 5.0):
        f = StepFunction.constant(TaggedVector.basis(1, c), L2)
        recipe = compute_eta_thm33(f, 2.0, M=1.0, R=1.0, tau=0.5)
        assert recipe.A == ((0.0, 1.0),)
        assert recipe.t0 == 0.5


def test_eta33_partial_level_set():
    f = StepFunction.vector(
        (0.0, 0.25, 0.75, 1.0),
        (TaggedVector.basis(1, 2.0), TaggedVector.basis(1, 0.1), TaggedVector.basis(1, 2.0)),
        L2,
    )
    recipe = compute_eta_thm33(f, 2.0, M=1.0, R=1.0, tau=1.0)
    assert recipe.A == ((0.0, 0.25), (0.75, 1.0))
    assert recipe.lambda_A == 0.5
    # cumulative measure reaches 1/4 exactly at t = 0.25
    assert recipe.t0 == 0.25
    assert recipe.eta > 0.0


def test_eta33_tau_out_of_range():
    with pytest.raises(TauOutOfRange):
        compute_eta_thm33(worked_f(), 2.0, M=1.0, R=1.0, tau=1.5)
    with pytest.raises(TauOutOfRange):
        compute_eta_thm33(worked_f(), 2.0, M=1.0, R=1.0, tau=0.0)
    with pytest.raises(DomainError):
        compute_eta_thm33(worked_f(), 2.0, M=-1.0, R=1.0, tau=0.5)


def test_eta34_worked_chain_rationals():
    recipe = compute_eta_thm34(2.0, 4.0, 1.0, 1.0, 1.0, 1.0, 0.25, L2)
    assert recipe.s == 2.0 and recipe.s_prime == 2.0 and recipe.q == 2.0
    assert recipe.Q == 9.0 / 256.0      # exactly dyadic in doubles
    assert recipe.t0 == 503.0 / 512.0   # exactly dyadic in doubles
    Q_o, t0_o, theta_o, w_o, eta_o = eta34_oracle(2.0, 2.0, 4.0, 1.0, 1.0, 1.0, 1.0, 0.25)
    assert abs(recipe.theta - float(theta_o)) <= 1e-12 * recipe.theta
    assert abs(recipe.theta - 9.0 / 503.0) <= 1e-12
    assert abs(recipe.w - float(w_o)) <= 1e-15
    assert abs(recipe.eta - float(eta_o)) <= 1e-9 * max(1.0, recipe.eta)
    assert recipe.eta > 0.0
    assert abs(recipe.eta - 9.2572170940555016e-10) <= 1e-15


def test_eta34_infinite_r():
    recipe = compute_eta_thm34(2.0, math.inf, 1.0, 1.0, 1.0, 1.0, 0.25, L2)
    assert recipe.s == math.inf
    assert recipe.s_prime == 1.0  # conjugate of an infinite exponent
    # Q = (eps**p/q**p - tau**p) * K**(-p)
    assert recipe.Q == 0.25 - 0.0625
    assert recipe.eta > 0.0


def test_eta34_monotone_in_K():
    etas = []
    for K in (1.0, 2.0, 8.0, 64.0):
        etas.append(compute_eta_thm34(2.0, 4.0, 1.0, 1.0, K, 1.0, 0.25, L2).eta)
    assert all(a > b for a, b in zip(etas, etas[1:]))
    assert etas[-1] > 0.0


def test_theta_integral_with_t0_rounding_to_one():
    # Q/2 = 5e-21 is far below 2**-53, so t0 = 1 - Q/2 rounds to 1.0; the
    # exact complement still fixes the integral of t**-p over [t0, 1]
    half_q = 1e-20 / 2.0
    assert 1.0 - half_q == 1.0
    for p in (1.0, 1.5, 2.0, 3.0):
        oracle = mp.quad(lambda t: t ** (-p), [1 - mp.mpf(half_q), 1])
        got = theta_integral(1.0 - half_q, p, one_minus_t0=half_q)
        assert abs(got - float(oracle)) <= 4e-16 * float(oracle)
    with pytest.raises(ValueError):
        theta_integral(1.0, 2.0)
    with pytest.raises(ValueError):
        theta_integral(0.5, 2.0, one_minus_t0=0.0)


def test_eta34_with_a_vanishing_Q():
    # Q = (3/16)**2 * K**-4 is about 3.5e-22: t0 rounds to 1.0
    recipe = compute_eta_thm34(2.0, 4.0, 1.0, 1.0, 1e5, 1.0, 0.25, L2)
    assert recipe.t0 == 1.0 and 0.0 < recipe.Q < 2.0 ** -53
    assert abs(recipe.theta - recipe.Q / 2.0) <= 1e-15 * recipe.theta
    assert recipe.eta >= 0.0


def test_eta34_guards():
    with pytest.raises(TauTooLarge):
        compute_eta_thm34(2.0, 4.0, 1.0, 1.0, 1.0, 1.0, 0.5, L2)  # q p tau hits eps
    with pytest.raises(ExponentOrder):
        compute_eta_thm34(2.0, 1.5, 1.0, 1.0, 1.0, 1.0, 0.1, L2)
    with pytest.raises(InvalidExponent):
        compute_eta_thm34(1.0, 4.0, 1.0, 1.0, 1.0, 1.0, 0.1, L2)
    with pytest.raises(DomainError):
        compute_eta_thm34(2.0, 4.0, -1.0, 1.0, 1.0, 1.0, 0.1, L2)


def test_eta33_nu_takes_no_pth_power_at_a_tiny_tau():
    # w = (1 + tau**3)**(1/3) - 1 is about 3.3e-121, so w**3 underflows:
    # nu = w lambda(A) (theta/2)**(1/p) must still be the true 3.03e-121
    f = StepFunction.constant(TaggedVector.basis(1), SpaceSpec.lp(3.0))
    recipe = compute_eta_thm33(f, 3.0, M=1.0, R=1.0, tau=1e-40)
    assert recipe.lambda_A == 1.0 and recipe.t0 == 0.5
    with mp.workdps(200):
        w = (1 + mp.mpf(1e-40) ** 3) ** (1 / mp.mpf(3)) - 1
        nu = w * (mp.mpf(1.5) / 2) ** (1 / mp.mpf(3))  # theta = 3/2 over [1/2, 1] at p = 3
        assert recipe.nu > 0.0
        assert abs(recipe.nu - nu) <= 4 * math.ulp(float(nu))


def test_verify_thm33_keeps_a_positive_eta_where_the_pth_powers_underflow():
    # at R = 1e300 and p = 2, (nu/cap)**2 is about 4e-604: eta = cap -
    # (cap**2 - nu**2)**(1/2) is about 8.2e-304, not 0
    r = verify_thm33(worked_family(), worked_f(), 2.0, M=1.0, R=1e300)
    q = r.quantities
    with mp.workdps(100):
        p = mp.mpf(2)
        cap = 2 ** (1 - 1 / p) * (3 * mp.mpf(1e300) + 1)
        omega = -cap * mp.expm1(mp.log1p(-(mp.mpf(q["nu"]) / cap) ** p) / p)
    assert q["eta"] == q["omega"] > 0.0
    assert abs(q["omega"] - omega) <= 4 * math.ulp(float(omega))
    assert abs(q["omega"] - 8.2e-304) <= 1e-305


def shift_oracle(c, nu, p, sign):
    """c*((1 + sign*(nu/c)**p)**(1/p) - 1) at 400 digits, on the given doubles."""
    with mp.workdps(400):
        c, nu, p = mp.mpf(c), mp.mpf(nu), mp.mpf(p)
        return c * mp.expm1(mp.log1p(sign * (nu / c) ** p) / p)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e307), st.floats(min_value=1e-330, max_value=0.5),
       st.one_of(st.floats(min_value=1.01, max_value=6.0), st.sampled_from([1.5, 2.0, 3.0])))
def test_root_shifts_are_accurate_where_the_pth_power_underflows(c, ratio, p):
    # both the lp modulus w and omega = cap - (cap**p - nu**p)**(1/p):
    # within 8 ulps of the 400-digit value, and within a few subnormal
    # ulps where that value is below 2**-1020 (nu/c <= 1/2: nearer 1,
    # omega's log1p(-x) amplifies the rounding of x whatever the branch)
    nu = c * ratio
    if nu == 0.0:
        return
    for got, sign in ((lp_modulus(SpaceSpec.lp(p), nu, c), 1), (stable_pth_root_shift(c, nu, p), -1)):
        exact = abs(shift_oracle(c, nu, p, sign))
        assert abs(got - exact) <= 8 * math.ulp(float(exact)) + 8 * 5e-324


def test_root_shifts_at_the_reported_underflows():
    # w at M = 1e300, tau = 0.5 in l2 is 1.25e-301, not 0
    assert abs(lp_modulus(L2, 0.5, 1e300) - 1.25e-301) <= 2 * math.ulp(1.25e-301)
    # in l3 at tau = 1e-40: w and nu are about 3.3e-121 and 3.03e-121; eta
    # = cap - (cap**3 - nu**3)**(1/3) is about 2.3e-364, below the
    # smallest subnormal, so 0 is its correctly rounded value
    l3 = SpaceSpec.lp(3.0)
    w = lp_modulus(l3, 1e-40, 1.0)
    assert abs(w - shift_oracle(1.0, 1e-40, 3.0, 1)) <= 2 * math.ulp(w)
    recipe = compute_eta_thm33(StepFunction.constant(TaggedVector.basis(1), l3), 3.0, M=1.0, R=1.0, tau=1e-40)
    cap = 2.0 ** (1.0 - 1.0 / 3.0) * 4.0
    assert abs(shift_oracle(cap, recipe.nu, 3.0, -1)) < mp.mpf(5e-324) / 2
    assert recipe.eta == 0.0


def test_recipes_with_a_cap_past_the_float_range_raise():
    # 2**(1-1/p)(3R + 1) overflows for R above about 6e307: a DomainError, not eta = nan
    with pytest.raises(DomainError, match="cap"):
        verify_thm33(worked_family(), worked_f(), 2.0, M=1.0, R=1e308)
    with pytest.raises(DomainError, match="cap"):
        verify_thm34(worked_family(), worked_f(), 2.0, r=4.0, eps=1.0, M=1.0, K=1.0, R=1e308)


# ---------------------------------------------------------------------------
# full verifications
# ---------------------------------------------------------------------------

def test_verify_thm33_worked():
    rpt = verify_thm33(worked_family(), worked_f(), 2.0, M=1.0, R=1.0, tau=0.5)
    assert rpt.holds
    assert abs(rpt.quantities["lhs"] - (1.0 + 6.157477361207266e-4)) <= 1e-8
    assert abs(rpt.quantities["rhs"] - 2.0) <= 1e-8


def test_verify_thm33_default_tau():
    rpt = verify_thm33(worked_family(), worked_f(), 2.0, M=1.0, R=1.0)
    assert rpt.holds
    assert abs(rpt.quantities["tau"] - 0.5) <= 1e-10  # half of ||f|| = 1


def test_verify_thm33_default_tau_norms_f_once(monkeypatch):
    f = StepFunction.vector((0.0, 0.3, 1.0), (TaggedVector.basis(1, 0.8), TaggedVector.basis(2, 0.4)), L2)
    profile = pointwise_norm(f)
    seen = []

    def counting(h, p, tol=DEFAULT_TOL):
        seen.append(h)
        return ces_fun_norm(h, p, tol)

    monkeypatch.setattr(harness, "ces_fun_norm", counting)
    rpt = verify_thm33(worked_family(), f, 2.0, M=1.0, R=1.0)
    assert sum(h == profile for h in seen) == 1
    assert len(seen) == 3  # ||g||, ||f|| and ||phi||
    assert rpt.quantities["tau"] == 0.5 * ces_fun_norm(profile, 2.0).value


def test_compute_eta_thm33_default_tau():
    recipe = compute_eta_thm33(worked_f(), 2.0, M=1.0, R=1.0)
    assert recipe.tau == 0.5 * ces_fun_norm(pointwise_norm(worked_f()), 2.0).value
    assert recipe == compute_eta_thm33(worked_f(), 2.0, M=1.0, R=1.0, tau=recipe.tau)
    with pytest.raises(DegenerateInput):
        compute_eta_thm33(StepFunction.constant(TaggedVector.zero(), L2), 2.0, M=1.0, R=1.0)


def test_recipe_quantities_are_the_fields_without_the_level_set():
    r33 = compute_eta_thm33(worked_f(), 2.0, M=1.0, R=1.0, tau=0.5)
    assert list(r33.quantities()) == ["p", "M", "R", "tau", "lambda_A", "t0", "theta", "w", "nu", "omega", "eta"]
    r34 = compute_eta_thm34(2.0, 4.0, 1.0, 1.0, 1.0, 1.0, 0.25, L2)
    assert list(r34.quantities()) == ["p", "r", "eps", "M", "K", "R", "tau", "s", "s_prime", "q", "Q",
                                      "t0", "theta", "w", "nu", "omega", "eta"]
    for recipe in (r33, r34):
        assert all(v == getattr(recipe, k) for k, v in recipe.quantities().items())


def test_verify_thm33_randomized_conclusions():
    # hypothesis-satisfying instances: M covers max g, R covers ||g||
    rng = np.random.default_rng(47)
    for k in range(15):
        px = float(rng.choice([1.5, 2.0, 3.0]))
        space = SpaceSpec.lp(px)
        raw = TaggedVector.from_pairs([(int(i), float(rng.uniform(0.2, 1.5))) for i in (1, 2)])
        block = raw.scale(1.0 / space.vector_norm(raw))
        fam = FunctionShiftFamily(
            profile=StepFunction.scalar((0.0, 0.6, 1.0), tuple(rng.uniform(0.1, 1.5, size=2))),
            space=space,
            block=block,
            offset=int(rng.integers(0, 3)),
            stride=block.width,
        )
        f = StepFunction.vector(
            (0.0, 0.5, 1.0),
            (TaggedVector.basis(1, float(rng.uniform(0.3, 1.5))), TaggedVector.basis(2, float(rng.uniform(0.1, 0.8)))),
            space,
        )
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        M = max(fam.profile.values) + float(rng.uniform(0.1, 1.0))
        R = ces_fun_norm(fam.profile, p).value + float(rng.uniform(0.1, 1.0))
        rpt = verify_thm33(fam, f, p, M=M, R=R)
        assert rpt.holds, rpt.quantities
        assert rpt.quantities["eta"] > 0.0


def test_verify_thm33_hypothesis_violations():
    fam = worked_family()
    with pytest.raises(HypothesisViolation, match="R"):
        verify_thm33(fam, worked_f(), 2.0, M=1.0, R=0.5, tau=0.25)
    with pytest.raises(HypothesisViolation, match="M"):
        verify_thm33(fam, worked_f(), 2.0, M=0.5, R=1.0, tau=0.25)


def test_verify_thm34_worked():
    rpt = verify_thm34(worked_family(), worked_f(), 2.0, r=4.0, eps=1.0, M=1.0, K=1.0, R=1.0, tau=0.25)
    assert rpt.holds
    assert rpt.quantities["eta"] > 0.0
    assert abs(rpt.quantities["f_r_norm"] - 1.0) <= 1e-12


def test_verify_thm34_default_tau_and_guards():
    rpt = verify_thm34(worked_family(), worked_f(), 2.0, r=4.0, eps=1.0, M=1.0, K=1.0, R=1.0)
    assert rpt.holds
    assert abs(rpt.quantities["tau"] - 0.25) <= 1e-15  # eps / (2q)
    with pytest.raises(HypothesisViolation, match="K"):
        verify_thm34(worked_family(), worked_f(), 2.0, r=4.0, eps=1.0, M=1.0, K=0.5, R=1.0)
    with pytest.raises(HypothesisViolation, match="eps"):
        verify_thm34(worked_family(), worked_f(), 2.0, r=4.0, eps=2.0, M=1.0, K=1.0, R=1.0)
    # no absolute slack: ||f|| = ||f||_r = 1e-20 violates eps = 5e-13 and K = 1e-30
    tiny = StepFunction.constant(TaggedVector.basis(1, 1e-20), L2)
    with pytest.raises(HypothesisViolation, match="eps"):
        verify_thm34(worked_family(), tiny, 2.0, r=4.0, eps=5e-13, M=1.0, K=1.0, R=1.0)
    with pytest.raises(HypothesisViolation, match="K"):
        verify_thm34(worked_family(), tiny, 2.0, r=4.0, eps=1e-20, M=1.0, K=1e-30, R=1.0)


# ---------------------------------------------------------------------------
# prop21 and the sharpness example
# ---------------------------------------------------------------------------

def test_prop21_unit_vector():
    x = SumElement(2.0, ((1, TaggedVector.basis(1)),), L2)
    fam = SlotShiftFamily(TaggedVector.basis(1), L2, 2.0, offset=1, stride=1)
    rpt = check_prop21(fam, x, window=(60, 120))
    assert rpt.holds
    assert rpt.mode == "windowed"
    assert rpt.quantities["margin"] > rpt.quantities["window_drift"]


def test_prop21_zero_center_nonstrict():
    x = SumElement.zero(2.0, L2)
    fam = SlotShiftFamily(TaggedVector.basis(1), L2, 2.0, offset=1, stride=1)
    rpt = check_prop21(fam, x, window=(60, 90))
    assert rpt.holds
    assert abs(rpt.quantities["margin"]) <= 1e-9


def test_prop21_zero_family():
    x = SumElement(2.0, ((1, TaggedVector.basis(1)),), L2)
    fam = SlotShiftFamily(TaggedVector.zero(), L2, 2.0, offset=1, stride=1)
    rpt = check_prop21(fam, x, window=(10, 20))
    assert rpt.holds
    assert rpt.quantities["limsup_norm_estimate"] == 0.0


def test_prop21_space_mismatch():
    x = SumElement(2.0, ((1, TaggedVector.basis(1)),), SpaceSpec.lp(3.0))
    fam = SlotShiftFamily(TaggedVector.basis(1), L2, 2.0, offset=1, stride=1)
    with pytest.raises(SpaceMismatch):
        check_prop21(fam, x)


def reference_prop21(fam, x, window, tol=1e-10):
    """holds and quantities of check_prop21 through SumElements: every
    term and difference built as one and normed by ces_seq_norm of its
    component norms, the TaggedVector route that the window and
    cesaro_sum_norm go around."""
    lo, hi = window
    norms, diffs = [], []
    for k in range(lo, hi + 1):
        term = fam.term(k)
        norms.append(ces_seq_norm(term.component_norms(), fam.p, tol).value)
        diffs.append(ces_seq_norm(term.sub(x).component_norms(), fam.p, tol).value)
    drift = (max(norms) - min(norms)) + (max(diffs) - min(diffs))
    margin = max(diffs) - max(norms)
    holds = abs(margin) <= 2.0 * tol if x.is_zero else margin > drift + 2.0 * tol
    x_norm = 0.0 if x.is_zero else ces_seq_norm(x.component_norms(), fam.p, tol).value
    return holds, {"limsup_norm_estimate": max(norms), "limsup_diff_estimate": max(diffs), "margin": margin,
                   "window_drift": drift, "window_lo": float(lo), "window_hi": float(hi), "x_norm": x_norm}


@st.composite
def prop21_inputs(draw):
    """(fam, x, window): a block of up to 3 entries (zero in about one
    draw of eight), stride 1 to 3, a window of 1 to 12 terms, and x with
    up to 14 components (from 11 on, the reference's difference columns
    are arrays, the window's lists),
    some at window slots: the block itself (a zero gap), the block plus
    an entry, or another vector."""
    space = draw(st.sampled_from([L2, SpaceSpec.lp(1.0), SpaceSpec.lp(3.0)]))
    p = draw(st.sampled_from([1.5, 2.0, 3.0]))

    def coeff():
        return draw(st.floats(min_value=1e-3, max_value=1e3)) * draw(st.sampled_from([-1.0, 1.0]))

    def vector(min_size):
        idx = sorted(draw(st.lists(st.integers(min_value=1, max_value=6), min_size=min_size, max_size=3,
                                   unique=True)))
        return TaggedVector(idx, [coeff() for _ in idx])

    block = TaggedVector() if draw(st.integers(min_value=0, max_value=7)) == 0 else vector(1)
    fam = SlotShiftFamily(block, space, p, offset=draw(st.integers(min_value=0, max_value=40)),
                          stride=draw(st.integers(min_value=1, max_value=3)))
    lo = draw(st.integers(min_value=1, max_value=30))
    window = (lo, lo + draw(st.integers(min_value=0, max_value=11)))
    in_window = [fam.slot(k) for k in range(window[0], window[1] + 1)]
    slots = draw(st.lists(st.sampled_from(in_window) | st.integers(min_value=1, max_value=fam.slot(window[1]) + 5),
                          max_size=14, unique=True))
    comps = []
    for s in sorted(slots):
        kind = draw(st.sampled_from(["block", "perturbed", "other"]))
        if s in in_window and not block.is_zero and kind != "other":
            comps.append((s, block if kind == "block" else block.add(TaggedVector.basis(7, coeff()))))
        else:
            comps.append((s, vector(1)))
    return fam, SumElement(p, tuple(comps), space), window


E12 = TaggedVector((1, 2), (0.6, -0.8))


@settings(deadline=None)
@given(prop21_inputs())
# x at a window slot with a nonzero gap, and with the block itself there
@example((SlotShiftFamily(E12, L2, 2.0, offset=0, stride=1), SumElement(2.0, ((7, E12.scale(2.0)),), L2), (5, 9)))
@example((SlotShiftFamily(E12, L2, 2.0, offset=0, stride=1), SumElement(2.0, ((2, E12), (7, E12)), L2), (5, 9)))
# x = 0, and a zero block, at stride 3
@example((SlotShiftFamily(E12, L2, 3.0, offset=1, stride=3), SumElement.zero(3.0, L2), (4, 10)))
@example((SlotShiftFamily(TaggedVector(), L2, 3.0, offset=1, stride=3),
          SumElement(3.0, ((4, E12), (13, E12)), L2), (1, 6)))
# 12 components: every difference column has 12 or 13 entries (arrays)
@example((SlotShiftFamily(E12, L2, 1.5, offset=2, stride=2),
          SumElement(1.5, tuple((s, E12.scale(0.5 * s)) for s in range(1, 25, 2)), L2), (3, 14)))
def test_prop21_at_its_window_ends_keeps_the_bits_of_the_full_window(case):
    fam, x, window = case
    rpt = check_prop21(fam, x, window)
    holds, quantities = reference_prop21(fam, x, window)
    assert rpt.holds == holds
    assert {k: v.hex() for k, v in rpt.quantities.items()} == {k: v.hex() for k, v in quantities.items()}


# placement of x -> (stride, x's last slot as (k, d): slot(k) + d, or None
# for x = 0 and () for x at slot 1 alone, window, norms taken: x, the
# terms at lo and hi, and the differences up to x's last slot, at the
# first k past it and at hi)
_PROP21_PLACEMENTS = {
    "x before the window": (1, (), (100, 200), 1 + 2 + 2),
    "x = 0": (1, None, (100, 200), 1 + 2 + 2),
    "last slot at lo": (1, (100, 0), (100, 200), 1 + 2 + 2 + 1),
    "last slot inside the window": (1, (150, 0), (100, 200), 1 + 2 + 51 + 1 + 1),
    "last slot between two window slots": (3, (150, 2), (100, 200), 1 + 2 + 51 + 1 + 1),
    "last slot at hi": (1, (200, 0), (100, 200), 1 + 2 + 101),
    "last slot past the window": (3, (200, 4), (100, 200), 1 + 2 + 101),
    "a one-term window": (1, (), (100, 100), 1 + 1 + 1),
}


@pytest.mark.parametrize("placement", list(_PROP21_PLACEMENTS))
def test_prop21_norms_the_window_ends_and_every_difference_up_to_the_last_slot_of_x(placement, monkeypatch):
    stride, last, window, taken = _PROP21_PLACEMENTS[placement]
    fam = SlotShiftFamily(E12, L2, 2.5, offset=6, stride=stride)
    if last is None:
        x = SumElement.zero(2.5, L2)
    else:
        x = SumElement(2.5, ((1, E12),) + (((fam.slot(last[0]) + last[1], E12.scale(2.0)),) if last else ()), L2)
    calls = []
    real = harness.cesaro_sum_norm
    monkeypatch.setattr(harness, "cesaro_sum_norm", lambda y, tol: calls.append(y) or real(y, tol))
    rpt = check_prop21(fam, x, window)
    assert len(calls) == taken
    holds, quantities = reference_prop21(fam, x, window)
    assert rpt.holds == holds
    assert {k: v.hex() for k, v in rpt.quantities.items()} == {k: v.hex() for k, v in quantities.items()}


def _window_error(fam, x, window) -> float:
    """The largest error bound of a norm over the full window."""
    return max(max(cesaro_sum_norm(fam.term(k)).error_bound, cesaro_sum_norm(fam.term(k).sub(x)).error_bound)
               for k in range(window[0], window[1] + 1))


# a quantity of the window ends moves from the full window's by at most
# these multiples of the largest error bound: the two estimates are each
# a norm within that bound of a monotone sequence's end, the margin is
# their difference and the drift sums four such ends
_MOVE_BOUND = {"limsup_norm_estimate": 2.0, "limsup_diff_estimate": 2.0, "margin": 4.0, "window_drift": 8.0}


@pytest.mark.parametrize("p", [1.01, 1.5, 3.0, 8.0])
def test_prop21_at_extreme_scales_stays_within_the_bounds_of_the_full_window(p):
    """A block and x of norms 1e-8 to 1e8, windows at slots 1 and 1000,
    and x before the window or with its last slot inside.  Where
    consecutive norms differ by less than an ulp the window ends can
    move by rounding; each moved quantity stays within the carried
    bounds, and with x before the window the estimate of the largest
    difference is within its bound of the exact ||x_lo - x||."""
    window = (1, 41)
    for b, c, start, stride, inside in itertools.product((1e-8, 1.0, 1e8), (1e-8, 1.0, 1e8), (1, 1000),
                                                         (1, 3), (False, True)):
        fam = SlotShiftFamily(E12.scale(b), L2, p, offset=start - stride, stride=stride)
        comps = ((1, E12.scale(c)), (fam.slot(20), E12.scale(-c))) if inside else ((1, E12.scale(c)),)
        x = SumElement(p, comps, L2)
        rpt = check_prop21(fam, x, window)
        holds, quantities = reference_prop21(fam, x, window)
        assert rpt.holds == holds
        moved = {key: abs(rpt.quantities[key] - value) for key, value in quantities.items()
                 if rpt.quantities[key] != value}
        if moved:
            error = _window_error(fam, x, window)
            assert all(by <= _MOVE_BOUND[key] * error for key, by in moved.items()), (b, c, start, stride, moved)
        if start > 1 and not inside:
            diff = fam.term(window[0]).sub(x)
            with mp.workdps(40):
                exact = sum_norm_oracle(diff)
                assert abs(mp.mpf(rpt.quantities["limsup_diff_estimate"]) - exact) <= cesaro_sum_norm(diff).error_bound


@pytest.mark.parametrize("window", [(0, 5), (-3, 2), (5, 3), (1.5, 4), (2, 4.5)])
def test_prop21_refuses_a_malformed_window(window):
    fam = SlotShiftFamily(E12, L2, 2.0, offset=0, stride=1)
    with pytest.raises(DomainError, match="window"):
        check_prop21(fam, SumElement(2.0, ((1, E12),), L2), window)


def test_prop21_refuses_a_window_past_the_largest_slot():
    fam = SlotShiftFamily(E12, L2, 2.0, offset=2**53 - 5, stride=1)
    with pytest.raises(DomainError, match="exceeds 2"):
        check_prop21(fam, SumElement.zero(2.0, L2), window=(1, 10))


def test_sharpness_footnote():
    rpt = check_sharpness_footnote()
    assert rpt.holds
    assert rpt.quantities["limsup_norm"] == 2.0
    assert rpt.quantities["limsup_diff"] == 1.0
    assert rpt.quantities["ratio"] == 2.0


def test_sharpness_scales_homogeneously():
    for lam in (0.5, 3.0, -2.0):
        rpt = check_sharpness_footnote(lam=lam)
        assert rpt.quantities["ratio"] == 2.0
        assert rpt.quantities["limsup_norm"] == 2.0 * abs(lam)


def test_sharpness_zero_center():
    rpt = check_sharpness_footnote(center_tail=0.0)
    assert rpt.quantities["ratio"] == 1.0
    assert rpt.holds
