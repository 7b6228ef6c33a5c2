"""Averaging embeddings: block structure, linearity, isometry."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesaro_lab import (
    DomainError,
    InvalidExponent,
    InvalidTolerance,
    SpaceSpec,
    SumElement,
    TaggedVector,
    ces_seq_norm,
    cesaro_sum_norm,
    embed_S,
    embed_T,
    embedded_outer_norm,
    verify_isometry,
)
from cesaro_lab import embeddings
from cesaro_lab.numerics import running_sums
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
        assert rpt.quantities["worst_block_dev_ratio"] <= 1.0


def test_isometry_sum_elements():
    rng = np.random.default_rng(24)
    for k in range(30):
        slots = sorted(int(s) for s in rng.choice(np.arange(1, 9), size=2, replace=False))
        x = SumElement((1.5, 2.0, 3.0)[k % 3], tuple((s, rand_tagged(rng, max_index=6)) for s in slots), L2)
        rpt = verify_isometry(x, tol=1e-6)
        assert rpt.holds
        assert rpt.quantities["worst_block_dev_ratio"] <= 1.0


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
    """Plant a wrong raw_block: the block at the first support index (or
    slot) comes back scaled by 1.5."""
    original = embeddings.EmbeddedElement.raw_block

    def wrong(self, n):
        block = original(self, n)
        src = self.source
        support = src.indices if isinstance(src, TaggedVector) else [s for s, _ in src.components]
        return block.scale(1.5) if support and n == support[0] else block

    monkeypatch.setattr(embeddings.EmbeddedElement, "raw_block", wrong)


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


def test_the_report_carries_one_norm_and_the_worst_block():
    vec = TaggedVector.from_pairs([(2, 1.0), (5, -2.0), (9, 0.5)])
    rpt = verify_isometry(vec, 1.5, tol=1e-8)
    direct = ces_seq_norm(vec, 1.5, tol=1e-8)
    q = rpt.quantities
    assert (q["direct"], q["direct_error"]) == (direct.value, direct.error_bound)
    assert (q["embedded"], q["embedded_error"]) == (direct.value, direct.error_bound)
    assert q["blocks_checked"] == 3.0 and q["worst_block_dev_ratio"] == 0.0
    assert verify_isometry(TaggedVector.basis(4), 2.0).quantities["blocks_checked"] == 1.0
    with pytest.raises(InvalidTolerance):
        verify_isometry(vec, 2.0, tol=0.0)


def test_a_zero_input_fails_when_its_first_block_is_not_zero(monkeypatch):
    assert verify_isometry(SumElement.zero(2.0, L2)).holds
    monkeypatch.setattr(embeddings.EmbeddedElement, "raw_block", lambda self, n: TaggedVector.basis(1))
    assert not verify_isometry(TaggedVector.zero(), 2.0).holds


def test_the_mass_allowance_admits_every_rounding_of_the_two_sums():
    # Neumaier's correction rounds 2**-53 + 2**-120 to 2**-53, and
    # 1 + 2**-53 is a tie: the prefix reads 1.0 where the correctly
    # rounded sum is 1 + 2**-52, two units of roundoff apart
    mags = [1.0, 2.0 ** -53, 2.0 ** -120]
    assert running_sums(mags)[-1] == 1.0 and math.fsum(mags) == 1.0 + 2.0 ** -52
    rpt = verify_isometry(TaggedVector((1, 2, 3), tuple(mags)), 2.0)
    assert rpt.holds and 0.49 < rpt.quantities["worst_block_dev_ratio"] <= 0.5
    # wide magnitudes: the fsum of each leading slice against the
    # Neumaier prefix, at every position
    rng = np.random.default_rng(25)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        mags = list(10.0 ** rng.uniform(-30, 30, size=n))
        for k, prefix in enumerate(running_sums(mags)):
            mass = math.fsum(mags[:k + 1])
            assert abs(mass - prefix) <= embeddings._mass_allowance(mass, k + 1)


@settings(deadline=None)
@given(st.integers(1, 3000), st.integers(-30, 30), st.sampled_from([1.01, 1.5, 2.0, 3.0]),
       st.integers(0, 2**32 - 1))
@example(3000, 30, 1.01, 0)
@example(3000, -30, 3.0, 1)
def test_the_embedded_norm_has_the_direct_norms_bits(nnz, exponent, p, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, 40, size=nnz)
    mags = 10.0 ** (exponent + rng.uniform(-1.0, 1.0, size=nnz))
    vec = TaggedVector(tuple(int(i) for i in np.cumsum(gaps)), tuple(float(m) for m in mags * rng.choice([-1.0, 1.0], size=nnz)))
    slots = min(nnz, 200)
    x = SumElement(p, tuple((int(s), TaggedVector((1, 3), (c, 0.5 * c)))
                            for s, c in zip(vec.indices[:slots], vec.coeffs[:slots])), L2)
    for got, want in ((embedded_outer_norm(embed_T(vec, p)), ces_seq_norm(vec, p)),
                      (embedded_outer_norm(embed_S(x)), cesaro_sum_norm(x))):
        assert (got.value.hex(), got.error_bound.hex()) == (want.value.hex(), want.error_bound.hex())
    rpt = verify_isometry(vec, p)
    assert rpt.holds and rpt.quantities["direct"].hex() == ces_seq_norm(vec, p).value.hex()


def test_a_20000_entry_embedded_norm_takes_under_a_second():
    rng = np.random.default_rng(26)
    vec = TaggedVector(tuple(range(1, 40001, 2)), tuple(float(c) for c in rng.uniform(0.5, 1.5, size=20000)))
    start = time.perf_counter()
    norm = embedded_outer_norm(embed_T(vec, 2.0))
    rpt = verify_isometry(vec, 2.0)
    assert time.perf_counter() - start < 1.0
    assert rpt.holds and rpt.quantities["direct"] == norm.value
