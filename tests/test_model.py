"""Core data model: vectors, partitions, step functions, results."""

from __future__ import annotations

import bisect
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mp_oracles as oracles
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
from cesaro_lab.model import _scale_exponent, p_norms


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
        TaggedVector((2, 1), (1.0, 1.0))  # decreasing
    with pytest.raises(ValueError):
        TaggedVector((1,), (0.0,))  # stored zero
    with pytest.raises(ValueError):
        TaggedVector((0,), (1.0,))  # index below 1
    assert TaggedVector.zero().is_zero


class IntSub(int):
    """An int subclass other than bool: accepted as an index."""


class FloatSub(float):
    """A float subclass: converted to float as a coefficient."""


def pair_loop_entries(pairs):
    """The validator on (index, coefficient) pairs, the reference for
    the columnar one: a coefficient is an int (not a bool) or a float."""
    prev = 0
    clean = []
    for idx, coeff in pairs:
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise ValueError(f"index must be an int, got {idx!r}")
        if idx <= prev:
            raise ValueError("indices must be strictly increasing and >= 1")
        if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            raise ValueError(f"coefficient at index {idx} must be a number, got {coeff!r}")
        try:
            c = float(coeff)
        except OverflowError:
            raise ValueError(f"coefficient at index {idx} exceeds the float range") from None
        if not math.isfinite(c):
            raise ValueError(f"coefficient at index {idx} is not finite")
        if c == 0.0:
            raise ValueError(f"zero coefficient stored at index {idx}")
        clean.append((idx, c))
        prev = idx
    return tuple(clean)


bad_indices = st.one_of(st.integers(min_value=-3, max_value=2**53), st.integers(min_value=1, max_value=60).map(IntSub),
                        st.sampled_from([True, False, 0, -1, 2.0, 2.5, "3", None, math.nan]))
bad_coeffs = st.one_of(st.floats(), st.integers(min_value=-3, max_value=3),
                       st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, True, False, "1.5", "nan", "x",
                                        None, [1.0], FloatSub(2.5), IntSub(3), 5e-324, -1.7976931348623157e308]))


@st.composite
def column_pairs(draw):
    """Index and coefficient columns of one length (0 to 6 or 40 to 70
    entries), valid or with a few entries replaced by bad or
    out-of-order values; indices stay at most 2**53."""
    n = draw(st.one_of(st.integers(min_value=0, max_value=6), st.integers(min_value=40, max_value=70)))
    top = draw(st.sampled_from([100, 10**6, 2**53]))
    indices = sorted(draw(st.sets(st.integers(min_value=1, max_value=top), min_size=n, max_size=n)))
    coeffs = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(bool), min_size=n, max_size=n))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if n else 0):
        k = draw(st.integers(min_value=0, max_value=n - 1))
        if draw(st.booleans()):
            indices[k] = draw(bad_indices)
        else:
            coeffs[k] = draw(bad_coeffs)
    return indices, coeffs


def built_or_raised(build):
    """The entries build() gives, or the type of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(column_pairs())
@example(([True], [1.0]))  # a bool first index passes 0 < i <= MAX_INDEX
@example(([IntSub(2), 3], [1.0, 2.0]))
@example(([1, 2], [True, FloatSub(2.5)]))
@example(([1, 2], [3, 10**400]))  # an int past the float range
@example(([1, 2], [IntSub(3), "1.5"]))  # a numeric string
def test_the_columnar_validator_accepts_and_rejects_as_the_pair_loop(columns):
    indices, coeffs = columns
    new = built_or_raised(lambda: TaggedVector(indices, coeffs).entries)
    assert new == built_or_raised(lambda: pair_loop_entries(zip(indices, coeffs)))
    if isinstance(new, tuple):
        assert all(type(c) is float for _, c in new)


def test_the_validator_rejects_indices_past_2_53_and_unequal_columns():
    assert TaggedVector((1, 2**53), (1.0, -1.0)).max_index == 2**53
    for idx in (2**53 + 1, 2**60, 10**400):
        for n in (2, 60):  # the loop and the bulk check
            with pytest.raises(ValueError, match="at most 2\\*\\*53"):
                TaggedVector((*range(1, n), idx), (1.0,) * n)
    with pytest.raises(ValueError, match="2 indices but 1 coefficients"):
        TaggedVector((1, 2), (1.0,))


def test_tagged_vector_structure():
    v = TaggedVector.from_pairs([(5, 2.0), (2, -1.0)])
    assert v.indices == (2, 5)
    assert v.min_index == 2 and v.max_index == 5 and v.width == 4
    assert v.coeffs == (-1.0, 2.0)


def test_shift_and_restrict():
    v = TaggedVector.from_pairs([(1, 1.0), (3, 2.0)])
    assert v.shift(2).indices == (3, 5)
    with pytest.raises(ValueError):
        v.shift(-1)  # would push index 1 to 0
    assert v.restrict(2).indices == (1,)
    assert v.restrict(0).is_zero


def test_add_cancels_exact_zeros():
    v = TaggedVector.basis(3, 1.5)
    assert v.add(v.scale(-1.0)).is_zero
    w = v.add(TaggedVector.basis(1, 2.0))
    assert w.indices == (1, 3)


coeffs = st.floats(min_value=-10, max_value=10, allow_nan=False).filter(lambda c: abs(c) > 1e-8)
vectors = st.lists(
    st.tuples(st.integers(min_value=1, max_value=40), coeffs), max_size=6
).map(TaggedVector.from_pairs)


@settings(max_examples=50, deadline=None)
@given(vectors, vectors)
def test_addition_is_coefficientwise(a, b):
    s, ca, cb = (dict(zip(v.indices, v.coeffs)) for v in (a.add(b), a, b))
    for i in set(ca) | set(cb):
        assert s.get(i, 0.0) == ca.get(i, 0.0) + cb.get(i, 0.0)


@settings(max_examples=50, deadline=None)
@given(vectors, st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_scaling_is_coefficientwise(a, lam):
    s = a.scale(lam)
    scaled = dict(zip(s.indices, s.coeffs))
    for i, c in zip(a.indices, a.coeffs):
        assert scaled.get(i, 0.0) == c * lam


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
            exact = oracles.lp_norm(coeffs, p)
            worst = max(worst, float(abs(norm - exact) / math.ulp(norm)))
    assert worst <= 2.0


def pnorm_per_row(mags, p):
    """The p-norm of one row as it was computed cell by cell before
    model.p_norms: no norm for a zero row, |c| for one entry, else the
    scaled sum of powers and its root; the reference of the tests below."""
    nonzero = [m for m in mags if m]
    if len(nonzero) < 2:
        return max(mags) if mags else 0.0
    exp2 = _scale_exponent(max(mags), p)
    root = math.fsum([math.ldexp(m, -exp2) ** p for m in mags]) ** (1.0 / p)
    try:
        return math.ldexp(root, exp2)
    except OverflowError:
        raise DomainError("the lp norm exceeds the float range") from None


def outcome(fn, *args):
    """fn(*args), or the type and message of the CesaroLabError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


MAGNITUDES = st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=sys.float_info.max),
                       st.sampled_from([0.5, 1.0, 1e-300, 1e308, 1.7e308, sys.float_info.max, 5e-324]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(MAGNITUDES, max_size=6), max_size=8),
       st.one_of(st.floats(min_value=1.0, max_value=8.0), st.sampled_from([1.5, 2.0, 1100.0, 1e300])))
def test_p_norms_is_the_per_row_formula_bit_for_bit(rows, p):
    # values near 1e308 whose norm overflows, and p where 0.5**p
    # underflows, raise the same DomainError as the per-row formula
    expected = []
    for row in rows:
        expected.append(outcome(pnorm_per_row, row, p))
        if isinstance(expected[-1], tuple):
            assert outcome(p_norms, rows, p) == expected[-1]
            return
    assert [v.hex() for v in p_norms(rows, p)] == [v.hex() for v in expected]
    assert [v.hex() for v in p_norms([tuple(r) for r in rows], p)] == [v.hex() for v in expected]


def test_p_norms_domain_errors():
    with pytest.raises(DomainError, match="exceeds the float range"):
        p_norms([[1.5e308, 1.5e308]], 2.0)
    with pytest.raises(DomainError, match="at every scale"):
        p_norms([[0.5, 0.5]], 1100.0)  # 0.5**1100 underflows
    # one nonzero magnitude is its own norm at any p and magnitude
    assert p_norms([[0.5, 0.0], (0.0, sys.float_info.max), [], (-0.0, 0.0)], 1100.0) == [0.5, sys.float_info.max, 0.0, 0.0]


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


def test_partition_cells():
    part = Partition((0.0, 0.25, 1.0))
    assert part.cells == ((0.0, 0.25), (0.25, 1.0))


def test_partition_merge():
    a = Partition((0.0, 0.5, 1.0))
    b = Partition((0.0, 0.25, 1.0))
    assert a.merge(b).breakpoints == (0.0, 0.25, 0.5, 1.0)


def test_indicator_and_values():
    h = StepFunction.indicator(0.25, 0.75, 2.0)
    assert h.partition.breakpoints == (0.0, 0.25, 0.75, 1.0)
    assert h.values == (0.0, 2.0, 0.0)


def test_add_partition_of_unity():
    left = StepFunction.indicator(0.0, 0.5)
    right = StepFunction.indicator(0.5, 1.0)
    s = add(left, right)
    assert s.partition.breakpoints == (0.0, 0.5, 1.0)
    assert s.values == (1.0, 1.0)


def test_scale_and_add_inverse():
    h = StepFunction(Partition((0.0, 0.3, 1.0)), (2.0, -1.0))
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
    refined = h.on_partition(h.partition.merge(Partition.uniform(3)))
    assert refined.partition.breakpoints == (0.0, 1 / 3, 0.5, 2 / 3, 1.0)
    assert refined.values == (3.0, 3.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        h.on_partition(Partition((0.0, 0.4, 1.0)))  # not a refinement


def test_common_refinement_round_trip():
    f = StepFunction(Partition((0.0, 0.5, 1.0)), (1.0, 2.0))
    g = StepFunction(Partition((0.0, 0.25, 1.0)), (5.0, 6.0))
    fr, gr = common_refinement(f, g)
    assert fr.partition == gr.partition == Partition((0.0, 0.25, 0.5, 1.0))
    assert fr.values == (1.0, 1.0, 2.0) and gr.values == (5.0, 6.0, 6.0)


def refinement_per_cell(f, g):
    """common_refinement as a set union of the breakpoints, sorted, and a
    bisect per refined cell for the cell of f and of g that contains it."""
    pts = tuple(sorted(set(f.partition.breakpoints) | set(g.partition.breakpoints)))

    def values_on(h):
        own = h.partition.breakpoints
        return tuple(h.values[bisect.bisect_right(own, a) - 1] for a in pts[:-1])

    return pts, values_on(f), values_on(g)


@st.composite
def scalar_steps(draw, max_cells=30):
    pts = draw(st.lists(st.floats(min_value=5e-324, max_value=1.0, exclude_max=True), max_size=max_cells - 1,
                        unique=True))
    return StepFunction(Partition([0.0, *sorted(pts), 1.0]),
                        draw(st.lists(st.floats(-10.0, 10.0), min_size=len(pts) + 1, max_size=len(pts) + 1)))


@settings(max_examples=300, deadline=None)
@given(scalar_steps(), scalar_steps(), st.data())
def test_common_refinement_is_the_per_cell_lookup(f, g, data):
    if data.draw(st.booleans()):  # breakpoints of g shared with f or one ulp from them
        near = [s for t in f.partition.breakpoints[1:-1]
                for s in (t, math.nextafter(t, 0.0), math.nextafter(t, 1.0)) if data.draw(st.booleans())]
        pts = sorted(set(near) - {0.0, 1.0})
        g = StepFunction(Partition([0.0, *pts, 1.0]), [float(k) for k in range(len(pts) + 1)])
    pts, f_values, g_values = refinement_per_cell(f, g)
    fr, gr = common_refinement(f, g)
    assert fr.partition.breakpoints == gr.partition.breakpoints == pts
    assert (fr.values, gr.values) == (f_values, g_values)
    assert f.partition.merge(g.partition).breakpoints == pts
    assert f.on_partition(fr.partition) == fr


def test_a_cell_one_ulp_wide_takes_the_value_of_the_cell_that_contains_it():
    # the midpoint of (0.5, 0.5 + ulp) rounds to 0.5, which a lookup by
    # midpoint puts in the cell to the left; (0, 5e-324) has the midpoint
    # 0, which it rejects
    f = StepFunction(Partition((0.0, 0.5, 1.0)), (1.0, 2.0))
    g = StepFunction(Partition((0.0, math.nextafter(0.5, 1.0), 1.0)), (3.0, 4.0))
    assert common_refinement(f, g)[0].values == (1.0, 2.0, 2.0)
    g = StepFunction(Partition((0.0, 5e-324, 1.0)), (3.0, 4.0))
    assert common_refinement(f, g) == (StepFunction(Partition((0.0, 5e-324, 0.5, 1.0)), (1.0, 1.0, 2.0)),
                                       StepFunction(Partition((0.0, 5e-324, 0.5, 1.0)), (3.0, 4.0, 4.0)))


def test_on_partition_rejects_every_partition_that_is_not_a_refinement():
    h = StepFunction(Partition((0.0, 0.25, 0.5, 1.0)), (1.0, 2.0, 3.0))
    for pts in ((0.0, 1.0), (0.0, 0.25, 1.0), (0.0, 0.5, 1.0), (0.0, 0.25, 0.3, 1.0),
                (0.0, 0.1, 0.25, 0.6, 1.0), (0.0, 0.25, math.nextafter(0.5, 1.0), 1.0)):
        with pytest.raises(ValueError, match="must refine"):
            h.on_partition(Partition(pts))
    assert h.on_partition(Partition((0.0, 0.1, 0.25, 0.5, 0.7, 1.0))).values == (1.0, 1.0, 2.0, 3.0, 3.0)


# ---------------------------------------------------------------------------
# pointwise norm
# ---------------------------------------------------------------------------

def per_cell_norms(vectors, p):
    """||v||_p of each vector by the per-row formula (fsum at p = 1)."""
    if p == 1.0:
        try:
            return [math.fsum(abs(c) for _, c in v.entries) for v in vectors]
        except OverflowError:
            raise DomainError("the l1 norm of the vector exceeds the float range") from None
    return [pnorm_per_row([abs(c) for _, c in v.entries], p) for v in vectors]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                                   st.sampled_from([1e300, -1e-300, 1.5e308, -1.7e308])),
                         max_size=5), min_size=1, max_size=12),
       st.sampled_from([1.0, 1.01, 1.5, 2.0, 3.0, 7.5, 1100.0]))
def test_pointwise_norm_is_the_per_cell_formula(cells, p):
    # values near 1e308 whose norm overflows, and p = 1100 where 0.5**p
    # underflows, raise the DomainError of the per-cell formula
    vectors = [TaggedVector.from_dense(c) for c in cells]
    f = StepFunction(Partition.uniform(len(cells)), vectors, SpaceSpec.lp(p))
    expected = outcome(per_cell_norms, vectors, p)
    got = outcome(lambda: list(pointwise_norm(f).values))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        assert [SpaceSpec.lp(p).vector_norm(v).hex() for v in vectors] == [v.hex() for v in expected]


def test_pointwise_norm_unit_vector():
    f = StepFunction.constant(TaggedVector.basis(1), SpaceSpec.lp(2.0))
    assert pointwise_norm(f).values == (1.0,)


def test_pointwise_norm_zero():
    f = StepFunction.constant(TaggedVector.zero(), SpaceSpec.lp(2.0))
    assert pointwise_norm(f).values == (0.0,)


def test_pointwise_norm_l1_cells():
    # cells 3 e_1 and e_1 + e_2 under the l1 rule give norms (3, 2)
    f = StepFunction(
        Partition((0.0, 0.5, 1.0)),
        (TaggedVector.basis(1, 3.0), TaggedVector.from_dense([1.0, 1.0])),
        SpaceSpec.finite_l1(2),
    )
    assert pointwise_norm(f).values == (3.0, 2.0)


def test_pointwise_norm_commutes_with_scaling():
    f = StepFunction(
        Partition((0.0, 0.5, 1.0)),
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
