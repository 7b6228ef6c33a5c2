"""Core data model: vectors, partitions, step functions, results."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab import (
    CElement,
    DomainError,
    Exponent,
    InvalidExponent,
    NormResult,
    Partition,
    SpaceMismatch,
    SpaceSpec,
    StepFunction,
    TaggedVector,
    UnsupportedSpace,
    add,
    common_refinement,
    pointwise_norm,
    scale,
)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_conjugate_exponent():
    assert Exponent(2.0).q == 2.0
    assert Exponent(1.5).q == 3.0
    assert Exponent(1.0).q == math.inf
    assert abs(Exponent(3.0).q - 1.5) < 1e-15


@pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.inf, math.nan])
def test_exponent_rejects_out_of_range(bad):
    with pytest.raises(InvalidExponent):
        Exponent(bad)


# ---------------------------------------------------------------------------
# tagged vectors
# ---------------------------------------------------------------------------

def test_tagged_vector_validation():
    with pytest.raises(ValueError):
        TaggedVector(((2, 1.0), (1, 1.0)))  # decreasing
    with pytest.raises(ValueError):
        TaggedVector(((1, 0.0),))  # stored zero
    with pytest.raises(ValueError):
        TaggedVector(((0, 1.0),))  # index below 1
    assert TaggedVector.zero().is_zero


def test_tagged_vector_structure():
    v = TaggedVector.from_pairs([(5, 2.0), (2, -1.0)])
    assert v.support == (2, 5)
    assert v.min_index == 2 and v.max_index == 5 and v.width == 4
    assert v.coefficient(2) == -1.0
    assert v.coefficient(3) == 0.0


def test_shift_and_restrict():
    v = TaggedVector.from_pairs([(1, 1.0), (3, 2.0)])
    assert v.shift(2).support == (3, 5)
    with pytest.raises(ValueError):
        v.shift(-1)  # would push index 1 to 0
    assert v.restrict(2).support == (1,)
    assert v.restrict(0).is_zero


def test_add_cancels_exact_zeros():
    v = TaggedVector.basis(3, 1.5)
    assert v.add(v.scale(-1.0)).is_zero
    w = v.add(TaggedVector.basis(1, 2.0))
    assert w.support == (1, 3)


coeffs = st.floats(min_value=-10, max_value=10, allow_nan=False).filter(lambda c: abs(c) > 1e-8)
vectors = st.lists(
    st.tuples(st.integers(min_value=1, max_value=40), coeffs), max_size=6
).map(TaggedVector.from_pairs)


@settings(max_examples=50, deadline=None)
@given(vectors, vectors)
def test_addition_is_coefficientwise(a, b):
    s = a.add(b)
    for i in set(a.support) | set(b.support):
        assert s.coefficient(i) == a.coefficient(i) + b.coefficient(i)


@settings(max_examples=50, deadline=None)
@given(vectors, st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_scaling_is_coefficientwise(a, lam):
    s = a.scale(lam)
    for i in a.support:
        assert s.coefficient(i) == a.coefficient(i) * lam


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def test_schur_flag_exactly_for_l1_and_finite():
    assert SpaceSpec.lp(1.0).schur_flag
    assert SpaceSpec.finite_l1(3).schur_flag
    assert not SpaceSpec.lp(2.0).schur_flag
    assert not SpaceSpec.cesaro_sum(2.0).schur_flag


def test_lp_norms():
    v = TaggedVector.from_pairs([(1, 3.0), (2, -4.0)])
    assert SpaceSpec.lp(2.0).vector_norm(v) == 5.0
    assert SpaceSpec.lp(1.0).vector_norm(v) == 7.0
    assert SpaceSpec.finite_l1(2).vector_norm(v) == 7.0
    # a single entry has norm |c| exactly; (c**p)**(1/p) rounds one ulp low here
    c = 1.750091767050976
    assert (c ** 1.5) ** (1 / 1.5) < c
    assert SpaceSpec.lp(1.5).vector_norm(TaggedVector.basis(4, -c)) == c


def test_lp_norms_outside_the_float_range_are_scaled():
    big = TaggedVector.from_pairs([(1, 3e200), (2, -4e200)])
    assert abs(SpaceSpec.lp(2.0).vector_norm(big) - 5e200) <= 1e-15 * 5e200
    tiny = TaggedVector.from_pairs([(1, 3e-200), (2, -4e-200)])
    assert abs(SpaceSpec.lp(2.0).vector_norm(tiny) - 5e-200) <= 1e-15 * 5e-200
    huge = TaggedVector.from_pairs([(1, 1.5e308), (2, 1.5e308)])
    for space in (SpaceSpec.lp(2.0), SpaceSpec.lp(1.0), SpaceSpec.finite_l1(2)):
        with pytest.raises(DomainError):
            space.vector_norm(huge)


@pytest.mark.parametrize("p", [1.0, 1.01, 1.5, 3.0, 6.0])
def test_lp_norms_at_every_magnitude_are_within_2_ulps(p):
    # the root is always taken of a sum near 1 (the largest entry scaled
    # into [1/2, 1)); unscaled, the rounded 1/p cost up to ln(sum) ulps
    rng = random.Random(int(100 * p))
    worst = 0.0
    for scale in (1e-150, 1e-30, 1.0, 1e30, 1e150):
        for _ in range(20):
            coeffs = [scale * rng.uniform(0.1, 10.0) * rng.choice((-1.0, 1.0)) for _ in range(rng.randint(2, 8))]
            norm = SpaceSpec.lp(p).vector_norm(TaggedVector.from_dense(coeffs))
            with mp.workdps(40):
                exact = mp.fsum(abs(mp.mpf(c)) ** p for c in coeffs) ** (1 / mp.mpf(p))
            worst = max(worst, float(abs(norm - exact) / math.ulp(norm)))
    assert worst <= 2.0


def test_finite_l1_dimension_guard():
    v = TaggedVector.basis(5)
    with pytest.raises(SpaceMismatch):
        SpaceSpec.finite_l1(3).vector_norm(v)


def test_no_norm_rule_for_c_and_sums():
    # c has no space kind at all; its elements live in CElement
    with pytest.raises(UnsupportedSpace):
        SpaceSpec("c")
    v = TaggedVector.basis(1)
    with pytest.raises(UnsupportedSpace):
        SpaceSpec.cesaro_sum(2.0).vector_norm(v)


# ---------------------------------------------------------------------------
# c-space elements
# ---------------------------------------------------------------------------

def test_celement_sup_norm():
    ones = CElement(TaggedVector.zero(), 1.0)
    assert ones.sup_norm() == 1.0
    spike = CElement(TaggedVector.basis(7, 2.0), 0.0)
    assert spike.sup_norm() == 2.0
    # 2 e_7 minus the constant-one sequence: values are -1 off the spike, +1 on it
    diff = spike.sub(ones)
    assert diff.sup_norm() == 1.0


# ---------------------------------------------------------------------------
# partitions and step functions
# ---------------------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((0.0, 0.5))  # does not end at 1
    with pytest.raises(ValueError):
        Partition((0.1, 1.0))  # does not start at 0
    with pytest.raises(ValueError):
        Partition((0.0, 0.5, 0.5, 1.0))  # not strictly increasing


def test_partition_cells_and_lookup():
    part = Partition((0.0, 0.25, 1.0))
    assert part.cells == ((0.0, 0.25), (0.25, 1.0))
    assert part.cell_of(0.25) == 0  # cells are left-open
    assert part.cell_of(0.26) == 1
    assert part.cell_of(1.0) == 1
    with pytest.raises(ValueError):
        part.cell_of(0.0)


def test_partition_merge_and_refine():
    a = Partition((0.0, 0.5, 1.0))
    b = Partition((0.0, 0.25, 1.0))
    assert a.merge(b).breakpoints == (0.0, 0.25, 0.5, 1.0)
    assert a.refine_uniform(2).breakpoints == (0.0, 0.25, 0.5, 0.75, 1.0)
    # a cell one ulp wide has no room for interior points
    narrow = Partition((0.0, 0.05, 0.05000000000000001, 1.0))
    refined = narrow.refine_uniform(3).breakpoints
    assert refined[3:5] == (0.05, 0.05000000000000001) and len(refined) == 8


def test_indicator_and_values():
    h = StepFunction.indicator(0.25, 0.75, 2.0)
    assert h.value_at(0.5) == 2.0
    assert h.value_at(0.2) == 0.0
    assert h.value_at(1.0) == 0.0


def test_add_partition_of_unity():
    left = StepFunction.indicator(0.0, 0.5)
    right = StepFunction.indicator(0.5, 1.0)
    s = add(left, right)
    assert s.partition.breakpoints == (0.0, 0.5, 1.0)
    assert s.values == (1.0, 1.0)


def test_scale_and_add_inverse():
    h = StepFunction.scalar((0.0, 0.3, 1.0), (2.0, -1.0))
    z = add(h, scale(h, -1.0))
    assert z.is_zero()
    assert scale(h, 0.0).is_zero()


def test_add_mode_mismatch():
    h = StepFunction.constant(1.0)
    f = StepFunction.constant(TaggedVector.basis(1), SpaceSpec.lp(2.0))
    with pytest.raises(SpaceMismatch):
        add(h, f)
    g = StepFunction.constant(TaggedVector.basis(1), SpaceSpec.lp(3.0))
    with pytest.raises(SpaceMismatch):
        add(f, g)


def test_on_partition_preserves_values():
    h = StepFunction.indicator(0.0, 0.5, 3.0)
    refined = h.on_partition(h.partition.refine_uniform(3))
    for t in (0.1, 0.4, 0.6, 0.99):
        assert refined.value_at(t) == h.value_at(t)
    with pytest.raises(ValueError):
        h.on_partition(Partition((0.0, 0.4, 1.0)))  # not a refinement


def test_common_refinement_round_trip():
    f = StepFunction.scalar((0.0, 0.5, 1.0), (1.0, 2.0))
    g = StepFunction.scalar((0.0, 0.25, 1.0), (5.0, 6.0))
    fr, gr = common_refinement(f, g)
    assert fr.partition == gr.partition
    for t in (0.1, 0.3, 0.7):
        assert fr.value_at(t) == f.value_at(t)
        assert gr.value_at(t) == g.value_at(t)


# ---------------------------------------------------------------------------
# pointwise norm
# ---------------------------------------------------------------------------

def test_pointwise_norm_unit_vector():
    f = StepFunction.constant(TaggedVector.basis(1), SpaceSpec.lp(2.0))
    assert pointwise_norm(f).values == (1.0,)


def test_pointwise_norm_zero():
    f = StepFunction.constant(TaggedVector.zero(), SpaceSpec.lp(2.0))
    assert pointwise_norm(f).values == (0.0,)


def test_pointwise_norm_l1_cells():
    # cells 3 e_1 and e_1 + e_2 under the l1 rule give norms (3, 2)
    f = StepFunction.vector(
        (0.0, 0.5, 1.0),
        (TaggedVector.basis(1, 3.0), TaggedVector.from_dense([1.0, 1.0])),
        SpaceSpec.finite_l1(2),
    )
    assert pointwise_norm(f).values == (3.0, 2.0)


def test_pointwise_norm_commutes_with_scaling():
    f = StepFunction.vector(
        (0.0, 0.5, 1.0),
        (TaggedVector.from_pairs([(1, 1.0), (4, -2.0)]), TaggedVector.basis(2, 0.5)),
        SpaceSpec.lp(2.0),
    )
    lam = -3.0
    lhs = pointwise_norm(scale(f, lam)).values
    rhs = tuple(abs(lam) * v for v in pointwise_norm(f).values)
    assert lhs == pytest.approx(rhs, rel=1e-15)


def test_pointwise_norm_requires_vector_mode():
    with pytest.raises(SpaceMismatch):
        pointwise_norm(StepFunction.constant(1.0))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def test_norm_result_bracket():
    r = NormResult(1.0, 0.25)
    assert r.lower == 0.75 and r.upper == 1.25
    with pytest.raises(ValueError):
        NormResult(-1.0, 0.0)
    with pytest.raises(ValueError):
        NormResult(1.0, -0.1)
