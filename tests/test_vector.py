"""Cesaro sums and vector-valued function norms."""

from __future__ import annotations

import numpy as np
import pytest

from cesaro_lab import (
    InvalidExponent,
    Partition,
    SpaceMismatch,
    SpaceSpec,
    StepFunction,
    SumElement,
    SlotShiftFamily,
    TaggedVector,
    ces_fun_norm,
    ces_seq_norm,
    ces_vfun_norm,
    cesaro_sum_norm,
)

L2 = SpaceSpec.lp(2.0)


def test_sum_element_validation():
    with pytest.raises(ValueError):
        SumElement(2.0, ((2, TaggedVector.basis(1)), (1, TaggedVector.basis(1))), L2)
    with pytest.raises(SpaceMismatch):
        # stack list too short for the occupied slots
        SumElement(2.0, ((3, TaggedVector.basis(1)),), (L2, L2))
    zero = SumElement.zero(2.0, L2)
    assert zero.is_zero


def test_component_norms_skip_zero_slots():
    x = SumElement(
        2.0,
        ((1, TaggedVector.basis(1, 3.0)), (4, TaggedVector.from_dense([3.0, 4.0]))),
        L2,
    )
    norms = x.component_norms()
    assert norms.indices == (1, 4)
    assert norms.coeffs == (3.0, 5.0)


def test_sum_norm_reduces_to_sequence_norm():
    # unit vectors in slots 1 and 2 reduce to the scalar (1, 1) oracle
    x = SumElement(2.0, ((1, TaggedVector.basis(1)), (2, TaggedVector.basis(3))), L2)
    r = cesaro_sum_norm(x, tol=1e-10)
    direct = ces_seq_norm(TaggedVector.from_dense([1.0, 1.0]), 2.0, tol=1e-10)
    assert abs(r.value - direct.value) <= 2e-10
    assert abs(r.value - 1.892019098051842) <= 1e-8


def test_sum_norm_single_unit_slot():
    x = SumElement(2.0, ((1, TaggedVector.basis(7)),), L2)
    assert abs(cesaro_sum_norm(x).value - 1.2825498301618641) <= 1e-8


def test_sum_norm_zero_and_p1():
    assert cesaro_sum_norm(SumElement.zero(2.0, L2)).value == 0.0
    with pytest.raises(InvalidExponent):
        cesaro_sum_norm(SumElement.zero(1.0, L2))


def test_one_dimensional_stack_matches_scalar_norm():
    # components in 1-dimensional l1 slots carry plain absolute values
    rng = np.random.default_rng(5)
    for _ in range(5):
        coeffs = [float(c) for c in rng.uniform(-2, 2, size=3)]
        slots = sorted(int(s) for s in rng.choice(np.arange(1, 10), size=3, replace=False))
        x = SumElement(
            2.0,
            tuple((s, TaggedVector.basis(1, c)) for s, c in zip(slots, coeffs) if c != 0.0),
            SpaceSpec.finite_l1(1),
        )
        scalar = TaggedVector.from_pairs([(s, c) for s, c in zip(slots, coeffs)])
        a = cesaro_sum_norm(x, tol=1e-10).value
        b = ces_seq_norm(scalar, 2.0, tol=1e-10).value
        assert abs(a - b) <= 2e-10


def test_sum_element_algebra():
    x = SumElement(2.0, ((1, TaggedVector.basis(1, 2.0)),), L2)
    y = SumElement(2.0, ((1, TaggedVector.basis(1, -2.0)), (3, TaggedVector.basis(2)),), L2)
    s = x.add(y)
    assert s.components[0][0] == 3  # slot 1 cancelled exactly
    assert x.sub(x).is_zero
    with pytest.raises(SpaceMismatch):
        x.add(SumElement(2.0, (), SpaceSpec.lp(3.0)))


def test_vfun_norm_consistency_with_scalar_profile():
    # f(t) = h(t) e_1 has the same norm as the scalar profile h
    h = StepFunction.indicator(0.0, 0.5)
    f = StepFunction(
        Partition((0.0, 0.5, 1.0)),
        (TaggedVector.basis(1), TaggedVector.zero()),
        L2,
    )
    for p in (1.0, 1.5, 2.0):
        a = ces_vfun_norm(f, p)
        b = ces_fun_norm(h, p)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-14


def test_vfun_norm_examples():
    f = StepFunction.constant(TaggedVector.basis(1), L2)
    assert abs(ces_vfun_norm(f, 2.0).value - 1.0) <= 1e-10
    z = StepFunction.constant(TaggedVector.zero(), L2)
    assert ces_vfun_norm(z, 2.0).value == 0.0
    half = StepFunction(
        Partition((0.0, 0.5, 1.0)), (TaggedVector.basis(1), TaggedVector.zero()), L2
    )
    assert abs(ces_vfun_norm(half, 1.0).value - 0.8465735902799727) <= 1e-10


def test_monotonicity_lift():
    rng = np.random.default_rng(11)
    for _ in range(5):
        vals = [TaggedVector.from_pairs([(1, float(rng.uniform(0.1, 2.0)))]) for _ in range(2)]
        f = StepFunction(Partition((0.0, 0.5, 1.0)), tuple(vals), L2)
        damped = StepFunction(
            Partition((0.0, 0.5, 1.0)), tuple(v.scale(0.5) for v in vals), L2
        )
        a = ces_vfun_norm(damped, 2.0)
        b = ces_vfun_norm(f, 2.0)
        assert a.value <= b.value + a.error_bound + b.error_bound


def test_slot_shift_family_terms():
    fam = SlotShiftFamily(TaggedVector.basis(1), L2, 2.0, offset=1, stride=1)
    t3 = fam.term(3)
    assert t3.components[0][0] == 4
    assert fam.term(5).component_norms().indices == (6,)
    zero_fam = SlotShiftFamily(TaggedVector.zero(), L2, 2.0, offset=1)
    assert zero_fam.term(2).is_zero
