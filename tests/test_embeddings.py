"""Averaging embeddings: block structure, linearity, isometry."""

from __future__ import annotations

import time

import numpy as np
import pytest

from cesaro_lab import (
    DomainError,
    InvalidExponent,
    SpaceSpec,
    SumElement,
    TaggedVector,
    ces_seq_norm,
    embed_S,
    embed_T,
    embedded_outer_norm,
    verify_isometry,
)
from cesaro_lab import embeddings
from cesaro_lab.suite import criterion_05

L2 = SpaceSpec.lp(2.0)


def rand_tagged(rng, max_index=25, max_nnz=5):
    nnz = int(rng.integers(1, max_nnz + 1))
    idx = sorted(int(i) for i in rng.choice(np.arange(1, max_index + 1), size=nnz, replace=False))
    coeffs = tuple(float(rng.uniform(0.2, 2.0)) * (1 if rng.uniform() < 0.5 else -1) for _ in idx)
    return TaggedVector(tuple(idx), coeffs)


def embedded_equal(e1, e2) -> bool:
    """Semantic equality: same represented blocks."""
    if e1.outer_p != e2.outer_p or type(e1.source) is not type(e2.source):
        return False
    n = max(e1.n_stored, e2.n_stored, 1)
    return all(e1.raw_block(m) == e2.raw_block(m) for m in range(1, n + 1))


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------

def test_embed_T_block_norms_e1():
    emb = embed_T(TaggedVector.basis(1), 2.0)
    assert emb.block_norms(5) == [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2]


def test_embed_T_block_norms_ones():
    emb = embed_T(TaggedVector.from_dense([1.0, 1.0]), 2.0)
    assert emb.block_norms(4) == [1.0, 1.0, 2.0 / 3.0, 0.5]


def test_embed_T_zero():
    emb = embed_T(TaggedVector.zero(), 2.0)
    assert emb.n_stored == 0
    assert embedded_outer_norm(emb).value == 0.0


def test_n_stored_is_the_support_maximum():
    vec = TaggedVector.from_pairs([(3, 1.0), (10**9, -2.0)])
    emb = embed_T(vec, 2.0)
    assert emb.n_stored == 10**9
    assert emb.source is vec
    assert emb.raw_block(5) == TaggedVector.basis(3)
    assert emb.raw_block(10**12) == vec
    x = SumElement(2.0, ((2, TaggedVector.basis(1)), (7, TaggedVector.basis(4))), L2)
    assert embed_S(x).n_stored == 7
    # scaling by zero and cancelling sums leave the zero image
    assert emb.scale(0.0).n_stored == 0
    assert emb.add(embed_T(vec.scale(-1.0), 2.0)).n_stored == 0


def test_a_zero_image_keeps_its_source():
    zero = SumElement.zero(2.0, L2)
    emb = embed_S(zero)
    assert emb.source is zero and emb.n_stored == 0
    assert emb.raw_block(3) == zero
    assert embedded_outer_norm(emb).value == 0.0
    assert embed_T(TaggedVector.zero(), 2.0).raw_block(2) == TaggedVector.zero()


def test_images_of_different_stacks_or_kinds_do_not_add():
    x = SumElement(2.0, ((1, TaggedVector.basis(1)),), L2)
    other_stack = SumElement.zero(2.0, SpaceSpec.lp(3.0))
    # a zero image no longer short-circuits the stack check
    with pytest.raises(embeddings.SpaceMismatch):
        embed_S(x).add(embed_S(other_stack))
    with pytest.raises(embeddings.SpaceMismatch):
        embed_S(other_stack).add(embed_S(x))
    with pytest.raises(embeddings.SpaceMismatch):
        embed_T(TaggedVector.zero(), 2.0).add(embed_S(SumElement.zero(2.0, L2)))


def test_embed_T_scaled_coefficients():
    emb = embed_T(TaggedVector.from_dense([1.0, 1.0]), 2.0)
    assert emb.block_coefficients(2) == [(1, 0.5), (2, 0.5)]
    assert emb.block_coefficients(4) == [(1, 0.25), (2, 0.25)]  # tail repeats


def test_embed_requires_p_above_one():
    with pytest.raises(InvalidExponent):
        embed_T(TaggedVector.basis(1), 1.0)
    with pytest.raises(InvalidExponent):
        embed_S(SumElement(1.0, ((1, TaggedVector.basis(1)),), L2))


def test_embed_S_mirrors_component_norms():
    x = SumElement(2.0, ((1, TaggedVector.basis(4)),), L2)
    emb = embed_S(x)
    assert emb.block_norms(3) == [1.0, 0.5, 1.0 / 3.0]
    y = SumElement(2.0, ((1, TaggedVector.basis(1)), (2, TaggedVector.from_dense([3.0, 4.0]))), L2)
    emb2 = embed_S(y)
    # component norms are (1, 5): averages 1, 3, 2, 3/2
    assert emb2.block_norms(4) == [1.0, 3.0, 2.0, 1.5]


# ---------------------------------------------------------------------------
# linearity (exact on derived blocks)
# ---------------------------------------------------------------------------

def test_linearity_of_T():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a, b = rand_tagged(rng), rand_tagged(rng)
        direct = embed_T(a.add(b), 2.0)
        summed = embed_T(a, 2.0).add(embed_T(b, 2.0))
        assert embedded_equal(direct, summed)
        lam = float(rng.uniform(-3, 3))
        assert embedded_equal(embed_T(a.scale(lam), 2.0), embed_T(a, 2.0).scale(lam))


def test_linearity_of_S():
    rng = np.random.default_rng(22)
    for _ in range(15):
        def rand_sum():
            slots = sorted(int(s) for s in rng.choice(np.arange(1, 8), size=2, replace=False))
            return SumElement(2.0, tuple((s, rand_tagged(rng, max_index=5)) for s in slots), L2)
        x, y = rand_sum(), rand_sum()
        assert embedded_equal(embed_S(x.add(y)), embed_S(x).add(embed_S(y)))
        lam = float(rng.uniform(-2, 2))
        if lam != 0.0:
            assert embedded_equal(embed_S(x.scale(lam)), embed_S(x).scale(lam))


# ---------------------------------------------------------------------------
# isometry
# ---------------------------------------------------------------------------

def test_isometry_worked_example():
    rpt = verify_isometry(TaggedVector.from_dense([1.0, 1.0]), 2.0)
    assert rpt.holds
    assert abs(rpt.quantities["direct"] - 1.892019098051842) <= 1e-8
    assert abs(rpt.quantities["embedded"] - rpt.quantities["direct"]) <= 1e-12


def test_isometry_zero():
    rpt = verify_isometry(TaggedVector.zero(), 2.0)
    assert rpt.holds
    assert rpt.quantities["direct"] == 0.0 and rpt.quantities["embedded"] == 0.0


def test_isometry_random_battery():
    rng = np.random.default_rng(23)
    ps = (1.5, 2.0, 3.0)
    for k in range(100):
        vec = rand_tagged(rng)
        rpt = verify_isometry(vec, ps[k % 3], tol=1e-6)
        assert rpt.holds, rpt.quantities
        assert rpt.quantities["rel_diff"] <= 1e-12


def test_isometry_sum_elements():
    rng = np.random.default_rng(24)
    for k in range(30):
        slots = sorted(int(s) for s in rng.choice(np.arange(1, 9), size=2, replace=False))
        x = SumElement((1.5, 2.0, 3.0)[k % 3], tuple((s, rand_tagged(rng, max_index=6)) for s in slots), L2)
        rpt = verify_isometry(x, tol=1e-6)
        assert rpt.holds
        assert rpt.quantities["rel_diff"] <= 1e-12


def test_outer_norm_matches_sequence_norm_directly():
    # the image norm and the direct norm agree with the same tolerance
    vec = TaggedVector.from_pairs([(2, 1.0), (5, -2.0)])
    direct = ces_seq_norm(vec, 1.5, tol=1e-8)
    outer = embedded_outer_norm(embed_T(vec, 1.5), tol=1e-8)
    assert abs(direct.value - outer.value) <= 1e-12 * (1.0 + direct.value)
    assert outer.error_bound <= 1e-8


def test_isometry_at_a_huge_support_index_is_immediate():
    start = time.perf_counter()
    rpt = verify_isometry(TaggedVector.basis(10**12), 2.0)
    assert rpt.holds, rpt.quantities
    assert time.perf_counter() - start < 1.0


def test_mass_beyond_the_float_range_is_a_domain_error():
    emb = embed_T(TaggedVector.from_dense([1e308, 1e308]), 2.0)
    with pytest.raises(DomainError, match="float range"):
        embedded_outer_norm(emb)


def _scale_first_support_block(monkeypatch):
    """Make the block at the first support index (or slot) weigh 1.5
    times its mass: the embedding sums each block's own slice of the
    magnitudes through _slice_masses, and its first slice is the block
    at the first support index."""
    original = embeddings._slice_masses

    def wrong(mags):
        masses = original(mags)
        return [1.5 * masses[0], *masses[1:]]

    monkeypatch.setattr(embeddings, "_slice_masses", wrong)


def test_a_wrong_block_makes_the_isometry_checks_fail(monkeypatch):
    # block 2 lies below the support maximum 5 (slot 1 below slot 3): a
    # route that read only the final block would not see it
    vec = TaggedVector.from_pairs([(2, 1.0), (5, -2.0)])
    x = SumElement(2.0, ((1, TaggedVector.basis(1)), (3, TaggedVector.from_dense([3.0, 4.0]))), L2)
    assert verify_isometry(vec, 2.0).holds
    assert verify_isometry(x).holds
    assert criterion_05(42)["passed"]

    _scale_first_support_block(monkeypatch)
    assert not verify_isometry(vec, 2.0).holds
    assert not verify_isometry(x).holds
    assert not criterion_05(42)["passed"]
