"""Opial moduli: splitting identity, closed forms, witness estimator.

The closed-form oracle for the lp modulus is the witness-grid
minimization of (L**p + c**p)**(1/p) - L over levels L in (0, R] and
c >= eps: decreasing in L and increasing in c, so the minimum sits at
L = R, c = eps.  The grid evaluation below confirms that before the
closed form is trusted.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mp_oracles as oracles
from cesaro_lab import (
    SCHUR,
    DomainError,
    EmptyWitnessSet,
    ModulusQuery,
    SpaceMismatch,
    SpaceSpec,
    SumElement,
    SlotShiftFamily,
    TaggedVector,
    UnsupportedSpace,
    VectorShiftFamily,
    cesaro_sum_norm,
    estimate_eta_empirical,
    eta_closed_form,
    r_closed_form,
    splitting_check,
)
from cesaro_lab.opial import lp_modulus

L2 = SpaceSpec.lp(2.0)


def witness_grid_oracle(p: float, eps: float, R: float, m: int = 400) -> float:
    """Brute-force minimum of (L**p + c**p)**(1/p) - L over the
    constraint grid; lower levels only increase the value."""
    best = math.inf
    for j in range(1, m + 1):
        L = R * j / m
        for c in (eps, 1.5 * eps, 2.0 * eps):
            best = min(best, (L ** p + c ** p) ** (1.0 / p) - L)
    return best


# ---------------------------------------------------------------------------
# shift families and the splitting identity
# ---------------------------------------------------------------------------

def test_shift_family_validation():
    with pytest.raises(ValueError):
        VectorShiftFamily(TaggedVector.zero(), stride=1)
    base = TaggedVector.from_pairs([(1, 1.0), (3, 1.0)])  # width 3
    with pytest.raises(ValueError):
        VectorShiftFamily(base, stride=2)
    fam = VectorShiftFamily(base, stride=3)
    assert fam.term(1).indices == (4, 6)
    assert fam.term(2).indices == (7, 9)  # disjoint from term 1


def test_stabilization_index():
    fam = VectorShiftFamily(TaggedVector.basis(1), stride=1, start_offset=0)
    assert fam.stabilization_index(TaggedVector.zero()) == 1
    assert fam.stabilization_index(TaggedVector.basis(1)) == 1
    assert fam.stabilization_index(TaggedVector.basis(7)) == 7
    # term(7) lives at index 8 > 7, term(6) collides
    assert fam.term(6).indices == (7,)


def test_splitting_orthogonal_basis():
    # magnitudes 1 are scaled by 2**-1: 2 * 0.5**2 = 0.5, i.e. 2 = 0.5 * 2**(2*1)
    rpt = splitting_check(TaggedVector.basis(1), VectorShiftFamily(TaggedVector.basis(1), 1, 1), 2.0)
    assert rpt.holds
    assert rpt.quantities["exp2"] == 1.0
    assert rpt.quantities["lhs_power"] == 0.5
    assert rpt.quantities["rhs_power"] == 0.5


def test_splitting_zero_center():
    # 2**3 = 8 = 0.5**3 * 2**(3*2)
    fam = VectorShiftFamily(TaggedVector.basis(1, 2.0), 1, 0)
    rpt = splitting_check(TaggedVector.zero(), fam, 3.0)
    assert rpt.holds
    assert rpt.quantities["exp2"] == 2.0
    assert rpt.quantities["lhs_power"] == rpt.quantities["rhs_power"] == 0.125


def test_splitting_hand_example():
    # x = 2e_1 + e_2, base 3e_1 shifted past it, p = 3: 27 + 9 = 36, which
    # is 0.5625 * 2**(3*2) on the magnitudes scaled by 2**-2
    x = TaggedVector.from_pairs([(1, 2.0), (2, 1.0)])
    fam = VectorShiftFamily(TaggedVector.basis(1, 3.0), stride=1, start_offset=2)
    rpt = splitting_check(x, fam, 3.0)
    assert rpt.holds
    assert rpt.quantities["exp2"] == 2.0
    assert rpt.quantities["lhs_power"] == 0.5625
    assert rpt.quantities["rhs_power"] == 0.5625
    assert rpt.quantities["stabilization_index"] == 1.0


@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_splitting_check_at_the_ends_of_the_float_range(c, monkeypatch):
    # unscaled, c**3 overflows at 1e200 and is 0 at 1e-200, where every
    # power sum would be 0 and the check would pass whatever sub returns
    x = TaggedVector.basis(1, c)
    fam = VectorShiftFamily(TaggedVector.basis(1, c), 1, 1)
    with monkeypatch.context() as patch:
        patch.setattr(TaggedVector, "sub", lambda self, other: self)  # drops x
        assert not splitting_check(x, fam, 3.0).holds
    rpt = splitting_check(x, fam, 3.0)
    assert rpt.holds
    assert rpt.quantities["rel_dev"] <= 1e-15
    assert 0.25 <= rpt.quantities["rhs_power"] < 2.0
    exp2 = int(rpt.quantities["exp2"])
    assert math.ldexp(0.5, exp2) <= c < math.ldexp(1.0, exp2)


def test_splitting_random_battery():
    rng = np.random.default_rng(31)
    for k in range(60):
        nnz = int(rng.integers(1, 5))
        idx = sorted(int(i) for i in rng.choice(np.arange(1, 20), size=nnz, replace=False))
        x = TaggedVector(tuple(idx), tuple(float(rng.uniform(0.1, 2.0)) for _ in idx))
        width = int(rng.integers(1, 4))
        base = TaggedVector(tuple(range(1, width + 1)), tuple(float(rng.uniform(0.1, 2.0)) for _ in range(width)))
        fam = VectorShiftFamily(base, stride=base.width + int(rng.integers(0, 3)), start_offset=int(rng.integers(0, 5)))
        rpt = splitting_check(x, fam, (1.5, 2.0, 3.0)[k % 3])
        assert rpt.holds
        assert rpt.quantities["rel_dev"] <= 1e-14


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_eta_closed_form_values():
    assert abs(eta_closed_form(ModulusQuery(L2, 1.0, 1.0)) - (math.sqrt(2) - 1.0)) <= 1e-12
    got = eta_closed_form(ModulusQuery(SpaceSpec.lp(3.0), 1.0, 2.0))
    assert abs(got - (9.0 ** (1.0 / 3.0) - 2.0)) <= 1e-12


def test_eta_closed_form_matches_witness_grid():
    for p, eps, R in [(2.0, 1.0, 1.0), (3.0, 1.0, 2.0), (1.5, 0.5, 1.0)]:
        grid = witness_grid_oracle(p, eps, R)
        closed = eta_closed_form(ModulusQuery(SpaceSpec.lp(p), eps, R))
        assert closed <= grid + 1e-12
        assert abs(closed - grid) <= 1e-6  # grid attains it at L = R, c = eps


def test_eta_degenerates_on_schur_spaces():
    assert eta_closed_form(ModulusQuery(SpaceSpec.lp(1.0), 1.0, 1.0)) is SCHUR
    assert eta_closed_form(ModulusQuery(SpaceSpec.finite_l1(4), 1.0, 1.0)) is SCHUR


def test_eta_small_eps_limit():
    prev = math.inf
    for eps in (1.0, 0.1, 0.01, 0.001):
        val = eta_closed_form(ModulusQuery(L2, eps, 1.0))
        assert 0.0 < val < prev
        prev = val
    assert prev < 1e-5


def test_eta_monotone_in_eps_and_R():
    eps_grid = [0.2, 0.5, 1.0, 2.0]
    vals = [eta_closed_form(ModulusQuery(L2, e, 1.0)) for e in eps_grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))  # nondecreasing in eps
    R_grid = [0.5, 1.0, 2.0, 4.0]
    vals = [eta_closed_form(ModulusQuery(L2, 1.0, R)) for R in R_grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # nonincreasing in R


def test_modulus_query_domain_errors():
    with pytest.raises(DomainError):
        ModulusQuery(L2, 0.0, 1.0)
    with pytest.raises(DomainError):
        ModulusQuery(L2, 1.0, -1.0)
    with pytest.raises(DomainError):
        r_closed_form(L2, 0.0)


def test_r_closed_form():
    assert abs(r_closed_form(L2, 1.0) - (math.sqrt(2) - 1.0)) <= 1e-12
    # Schur convention
    for c in (0.25, 1.0, 10.0):
        assert r_closed_form(SpaceSpec.lp(1.0), c) == 1.0
        assert r_closed_form(SpaceSpec.finite_l1(2), c) == 1.0
    # r(c) agrees with eta(eps=c, R=1)
    for c in (0.3, 1.0, 2.5):
        assert r_closed_form(L2, c) == eta_closed_form(ModulusQuery(L2, c, 1.0))
    # c -> 0 limit
    assert r_closed_form(L2, 1e-8) < 1e-12


def test_unsupported_spaces_raise():
    with pytest.raises(UnsupportedSpace):
        eta_closed_form(ModulusQuery(SpaceSpec.cesaro_sum(2.0), 1.0, 1.0))
    with pytest.raises(UnsupportedSpace):
        r_closed_form(SpaceSpec.cesaro_sum(2.0), 1.0)


# ---------------------------------------------------------------------------
# empirical estimator
# ---------------------------------------------------------------------------

def test_canonical_witness_attains_closed_form():
    query = ModulusQuery(L2, 1.0, 1.0)
    witnesses = [(TaggedVector.basis(1), VectorShiftFamily(TaggedVector.basis(1), 1, 1))]
    rpt = estimate_eta_empirical(query, witnesses)
    assert rpt.per_witness == (rpt.estimate,)
    assert abs(rpt.estimate - (math.sqrt(2.0) - 1.0)) <= 1e-12
    assert abs(rpt.closed_form_gap) <= 1e-12


def test_grid_witnesses_stay_above_closed_form():
    query = ModulusQuery(SpaceSpec.lp(1.5), 0.7, 1.3)
    rpt = estimate_eta_empirical(query, 8)
    closed = eta_closed_form(query)
    assert rpt.estimate >= closed - 1e-12
    assert abs(rpt.closed_form_gap) <= 1e-12  # the grid includes L = R


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1.01, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0]),
       st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=0.5, max_value=2.0))
# the difference of the two witness norms fell below the modulus here
@example(4.0, 0.1844833814380478, 1.9043741830112948)
@example(6.0, 0.19604845527937498, 1.3748455736308822)
def test_the_grid_estimate_is_an_upper_bound_of_the_modulus(p, eps, R):
    # the benchmark's modulus jobs draw eps and R from these ranges
    space = SpaceSpec.lp(p)
    est = estimate_eta_empirical(ModulusQuery(space, eps, R), 5).estimate
    assert est >= lp_modulus(space, eps, R) * (1.0 - 1e-12)


@pytest.mark.parametrize("eps, R", [(1.6e-6, 1.0), (1e-3, 1e3), (1e3, 1e-3)])
def test_the_grid_estimate_keeps_its_digits_where_eps_is_far_from_R(eps, R):
    # at eps/R = 1.6e-6 and p = 3 the difference of the norms was 0
    # against a modulus of 1.4e-18
    for p in (1.01, 3.0, 6.0):
        est = estimate_eta_empirical(ModulusQuery(SpaceSpec.lp(p), eps, R), 5).estimate
        exact = oracles.lp_modulus(p, eps, R)
        assert abs(mp.mpf(est) - exact) <= 1e-14 * exact


def test_empty_witness_set():
    query = ModulusQuery(L2, 1.0, 1.0)
    # every x below the eps threshold
    witnesses = [(TaggedVector.basis(1, 0.5), VectorShiftFamily(TaggedVector.basis(1), 1, 1))]
    with pytest.raises(EmptyWitnessSet):
        estimate_eta_empirical(query, witnesses)


def test_cesaro_sum_witnesses_are_exact():
    # limsup ||x_k|| = 0, so a tiny R keeps the witness; eps still filters
    space = SpaceSpec.cesaro_sum(2.0)
    x = SumElement(2.0, ((1, TaggedVector.basis(1)),), L2)
    fam = SlotShiftFamily(TaggedVector.basis(1, 5.0), L2, 2.0, offset=1, stride=1)
    rpt = estimate_eta_empirical(ModulusQuery(space, eps=0.5, R=1e-9), [(x, fam)])
    assert rpt.estimate == cesaro_sum_norm(x).value
    assert rpt.per_witness == (rpt.estimate,)
    assert rpt.closed_form_gap is None
    with pytest.raises(EmptyWitnessSet):
        estimate_eta_empirical(ModulusQuery(space, eps=1.5, R=2.0), [(x, fam)])


def random_sum_element(rng, p: float, stack: SpaceSpec) -> SumElement:
    slots = sorted(rng.choice(np.arange(1, 40), size=4, replace=False).tolist())
    comps = []
    for slot in slots:
        idx = sorted(rng.choice(np.arange(1, 4), size=2, replace=False).tolist())
        comps.append((slot, TaggedVector(tuple(map(int, idx)), tuple(float(rng.uniform(-3, 3)) for _ in idx))))
    return SumElement(p, tuple(comps), stack)


@pytest.mark.parametrize("stack", [SpaceSpec.lp(2.0), SpaceSpec.finite_l1(3)], ids=["lp2", "l1"])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 4.0])
def test_sum_witness_estimate_is_the_exact_norm(p, stack):
    rng = np.random.default_rng(int(10 * p))
    x = random_sum_element(rng, p, stack)
    fam = SlotShiftFamily(TaggedVector.basis(2, 7.0), stack, p, offset=3, stride=2)
    rpt = estimate_eta_empirical(ModulusQuery(SpaceSpec.cesaro_sum(p), eps=1e-3, R=1.0), [(x, fam)])
    norm = cesaro_sum_norm(x)
    assert rpt.estimate == norm.value
    assert abs(mp.mpf(rpt.estimate) - oracles.sum_norm(x)) <= norm.error_bound
    # the gap of every component: dropping one moves the norm far past the bound
    for k in range(len(x.components)):
        dropped = SumElement(p, x.components[:k] + x.components[k + 1:], stack)
        assert abs(mp.mpf(rpt.estimate) - oracles.sum_norm(dropped)) > 1e3 * norm.error_bound
    # ||x_k - x|| approaches the limit ||x|| from above once the slots clear x
    diffs = [cesaro_sum_norm(fam.term(k).sub(x)).value for k in (100, 10_000, 10**8)]
    assert diffs[0] > diffs[1] > diffs[2] > norm.value - norm.error_bound


def test_sum_witness_in_another_sum_is_a_mismatch():
    space = SpaceSpec.cesaro_sum(2.0)
    x = SumElement(2.0, ((1, TaggedVector.basis(1)),), L2)
    query = ModulusQuery(space, eps=0.5, R=1.0)
    for fam in (SlotShiftFamily(TaggedVector.basis(1), SpaceSpec.lp(3.0), 2.0),
                SlotShiftFamily(TaggedVector.basis(1), L2, 1.5)):
        with pytest.raises(SpaceMismatch):
            estimate_eta_empirical(query, [(x, fam)])


def test_sum_witness_for_a_query_of_another_p_is_a_mismatch():
    # x and its family agree (the p = 2 sum over l2); the query is the p = 3 sum
    x = SumElement(2.0, ((1, TaggedVector.basis(1)),), L2)
    fam = SlotShiftFamily(TaggedVector.basis(1), L2, 2.0)
    with pytest.raises(SpaceMismatch, match="p = 2.0 sum for a p = 3.0 query"):
        estimate_eta_empirical(ModulusQuery(SpaceSpec.cesaro_sum(3.0), 0.5, 1.0), [(x, fam)])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_witness_gaps_scale_past_the_float_range(p):
    # (1e200)**p overflows for p >= 2; the gap is homogeneous of degree 1
    # in (eps, R).  Every witness norm is a root of a sum near 1 on
    # scaled data, so the estimate scales to within a few ulps.
    space = SpaceSpec.lp(p)
    big = estimate_eta_empirical(ModulusQuery(space, 1e200, 1e200), 5)
    unit = estimate_eta_empirical(ModulusQuery(space, 1.0, 1.0), 5)
    assert math.isfinite(big.estimate)
    assert abs(big.estimate - 1e200 * unit.estimate) <= 8 * math.ulp(big.estimate)
    eta = eta_closed_form(ModulusQuery(space, 1e200, 1e200))
    assert big.estimate >= eta - 8 * math.ulp(eta)


def test_modulus_inputs_must_be_positive_and_finite():
    for eps, R in ((math.nan, 1.0), (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(DomainError, match="must be positive and finite"):
            ModulusQuery(L2, eps, R)
    with pytest.raises(DomainError, match="c must be positive and finite"):
        r_closed_form(L2, math.nan)


def test_lp_modulus_needs_lp_above_one():
    assert abs(lp_modulus(L2, 1.0, 1.0) - (math.sqrt(2.0) - 1.0)) <= 1e-15
    for space in (SpaceSpec.lp(1.0), SpaceSpec.finite_l1(3), SpaceSpec.cesaro_sum(2.0)):
        with pytest.raises(UnsupportedSpace):
            lp_modulus(space, 1.0, 1.0)
