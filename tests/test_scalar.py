"""Scalar norms against independent oracles.

Every reference comes from mp_oracles.py, which computes each quantity
with mpmath from its definition and nowhere from the implementation:
  * the sequence norm run by run in Hurwitz zeta between support
    indices (exact, no truncated tail),
  * the function norm in closed form cell by cell, for the accuracy
    corpus of both quadrature paths and for the certified cells,
  * the p = 1 norm by its antiderivative, and the Lebesgue norm.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mp_oracles as oracles
from cesaro_lab import (
    DomainError,
    InvalidExponent,
    InvalidTolerance,
    NormResult,
    Partition,
    SpaceSpec,
    StepFunction,
    SumElement,
    TaggedVector,
    add,
    ces_fun_norm,
    ces_seq_norm,
    cesaro_sum_norm,
    check_embedding_inequality,
    embed_S,
    embed_T,
    embedded_outer_norm,
    lp_fun_norm,
    lr_fun_norm,
    verify_isometry,
    weighted_l1_norm,
)
from cesaro_lab import model, numerics
from cesaro_lab import scalar as scalar_module
from cesaro_lab.numerics import p_series_tail_bracket, power_runs_bracket
from cesaro_lab.scalar import _CELL_CHUNK, DEFAULT_TOL, _ces_fun_norm_quadrature, seq_norm_from_prefixes
from cesaro_lab.suite import SEQ_11_NORM, SQRT_ZETA2, _hardy_near_extremal


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def assert_certified(result, oracle, tol):
    """The oracle lies within error_bound of the value, and error_bound
    meets tol without a warning."""
    assert abs(mp.mpf(result.value) - oracle) <= result.error_bound
    assert result.error_bound <= tol
    assert result.warning is None


def random_step(rng, max_interior=4, scale=2.0):
    pts = sorted(set(float(t) for t in rng.uniform(0.05, 0.95, size=int(rng.integers(0, max_interior + 1)))))
    part = Partition(tuple([0.0] + pts + [1.0]))
    return StepFunction(part, tuple(float(v) for v in rng.uniform(-scale, scale, size=part.cell_count)))


# ---------------------------------------------------------------------------
# sequence norm
# ---------------------------------------------------------------------------

def test_seq_norm_rejects_p_one_and_bad_tol():
    with pytest.raises(InvalidExponent):
        ces_seq_norm(TaggedVector.basis(1), 1.0)
    with pytest.raises(InvalidTolerance):
        ces_seq_norm(TaggedVector.basis(1), 2.0, tol=0.0)


def test_seq_norm_zero_vector():
    r = ces_seq_norm(TaggedVector.zero(), 2.0)
    assert r.value == 0.0 and r.error_bound == 0.0 and r.exact


def test_seq_norm_e1_matches_zeta():
    # sqrt(zeta(2)) = pi/sqrt(6), frozen from the oracle (test_oracles.py)
    target = SQRT_ZETA2
    r = ces_seq_norm(TaggedVector.basis(1), 2.0, tol=1e-10)
    assert abs(r.value - target) <= 1e-8
    assert r.error_bound <= 1e-10
    assert abs(r.value - target) <= r.error_bound + 1e-15


def test_seq_norm_ones_pair():
    # 1 + sum_{n>=2} (2/n)^2 = 4 zeta(2) - 3, frozen from the oracle (test_oracles.py)
    target = SEQ_11_NORM
    r = ces_seq_norm(TaggedVector.from_dense([1.0, 1.0]), 2.0, tol=1e-10)
    assert abs(r.value - target) <= 1e-8


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_seq_norm_random_against_oracle(p):
    rng = np.random.default_rng(1234)
    for _ in range(5):
        nnz = int(rng.integers(1, 5))
        idx = sorted(int(i) for i in rng.choice(np.arange(1, 25), size=nnz, replace=False))
        pairs = [(i, float(rng.uniform(-2, 2)) or 0.5) for i in idx]
        pairs = [(i, c if c != 0.0 else 0.5) for i, c in pairs]
        vec = TaggedVector.from_pairs(pairs)
        r = ces_seq_norm(vec, p, tol=1e-9)
        assert_certified(r, oracles.seq_norm(pairs, p), 1e-9)


def test_seq_norm_error_bound_honored():
    vec = TaggedVector.from_pairs([(1, 1.0), (4, -0.5)])
    tight = ces_seq_norm(vec, 2.0, tol=1e-12)
    loose = ces_seq_norm(vec, 2.0, tol=1e-4)
    assert tight.error_bound <= 1e-12
    assert loose.error_bound <= 1e-4
    assert abs(tight.value - loose.value) <= tight.error_bound + loose.error_bound


def test_tail_bracket_shrinks_and_sandwiches():
    p = 1.7
    prev_width = math.inf
    for n in (5, 10, 20, 31, 32, 1000, 10**9):
        lo, hi = p_series_tail_bracket(1.0, p, n)
        true_tail = oracles.zeta_runs([n + 1], [1.0], p)
        assert lo <= true_tail <= hi
        width = hi - lo
        assert width < prev_width
        assert width <= 1e-13 * true_tail
        prev_width = width


ADVERSARIAL_P = (1.01, 1.1, 1.2, 1.5, 2.0, 3.0)
# read once, so that the inputs stay put when a test patches the threshold
DIRECT_BELOW = numerics._DIRECT_BELOW


def adversarial_vectors():
    """Support index up to 1e6, runs of length 1 on both sides of the
    direct/Euler-Maclaurin threshold, and masses from 1e-6 to 1e6."""
    threshold = DIRECT_BELOW
    rng = np.random.default_rng(2024)
    idx = sorted(int(i) for i in rng.choice(np.arange(1, 10**6 + 1), size=40, replace=False))
    mags = 10.0 ** rng.uniform(-6, 6, size=40) * rng.choice([-1.0, 1.0], size=40)
    return [
        [(1, 1.0)],
        [(10**6, 1.0)],
        [(10**6, 1e-6)],
        [(10**6, 1e6)],
        [(i, (-1.0) ** i * 2.0 ** (i - threshold)) for i in range(threshold - 3, threshold + 3)],
        [(threshold - 1, 1e-6), (threshold, 1e6)],
        [(1, 1e-6), (2, 1e6), (999_999, -1.0), (10**6, 1e-6)],
        [(7, 1e6), (threshold - 1, -1e-6), (threshold + 1, 2.5), (1000, -1e6),
         (123_457, 1e-6), (10**6, 1e6)],
        list(zip(idx, mags.tolist())),
    ]


# column builders that send a run list down one path of
# power_runs_bracket, which follows the type of the columns it is handed
BRACKET_PATHS = {"floats": lambda column: np.asarray(column).tolist(),
                 "numpy": lambda column: np.asarray(column, dtype=float)}


def bracket_on(path, starts, values, *rest):
    """power_runs_bracket on columns of path's type."""
    column = BRACKET_PATHS[path]
    return power_runs_bracket(column(starts), column(values), *rest)


def seq_norm_on(path, v, p, tol):
    """The sequence norm of v with its prefix columns of path's type."""
    return seq_norm_from_prefixes(*map(BRACKET_PATHS[path], model.abs_prefix_sums(v)), p, tol)


def seq_norm_violations():
    """Cases where ces_seq_norm misses the Hurwitz oracle or tol, with
    the bracket on each path as the first item.

    tol is 1e-12 relative once the norm exceeds 1: an absolute 1e-10 on
    a norm of 1e6 is below double rounding."""
    bad = []
    for p in ADVERSARIAL_P:
        for pairs in adversarial_vectors():
            oracle = oracles.seq_norm(pairs, p)
            tol = 1e-12 * max(1.0, float(oracle))
            for path in BRACKET_PATHS:
                r = seq_norm_on(path, TaggedVector.from_pairs(pairs), p, tol)
                err = abs(mp.mpf(r.value) - oracle)
                if not (err <= r.error_bound <= tol and r.warning is None):
                    bad.append((path, p, pairs[:3], float(err), r.error_bound, tol))
    return bad


def test_seq_norm_certified_on_adversarial_inputs():
    assert seq_norm_violations() == []


def test_seq_norm_e1_near_p_one_meets_default_tol():
    for p in (1.1, 1.2):
        r = ces_seq_norm(TaggedVector.basis(1), p, tol=1e-10)
        assert_certified(r, oracles.seq_norm([(1, 1.0)], p), 1e-10)


def test_seq_norm_below_rounding_floor_warns_with_honest_bound():
    r = ces_seq_norm(TaggedVector.basis(1), 2.0, tol=1e-18)
    assert r.warning is not None
    assert abs(mp.mpf(r.value) - oracles.seq_norm([(1, 1.0)], 2.0)) <= r.error_bound <= 1e-13


def test_seq_norm_scales_out_of_float_range_inputs():
    big = ces_seq_norm(TaggedVector.basis(1, 1e308), 2.0, tol=1e300)
    assert abs(mp.mpf(big.value) - oracles.seq_norm([(1, 1e308)], 2.0)) <= big.error_bound
    tiny = ces_seq_norm(TaggedVector.basis(3, 1e-310), 2.0)
    assert abs(mp.mpf(tiny.value) - oracles.seq_norm([(3, 1e-310)], 2.0)) <= tiny.error_bound
    with pytest.raises(DomainError):
        ces_seq_norm(TaggedVector.basis(1, 1e308), 1.1)
    with pytest.raises(DomainError):
        ces_seq_norm(TaggedVector.from_dense([1e308, 1e308]), 2.0)


def em_violations():
    """Runs [a, b) summed by Euler-Maclaurin from small a, where every
    Bernoulli correction and the remainder are far above rounding: the
    cases whose bracket, on either path, misses zeta(p, a) - zeta(p, b)."""
    bad = []
    for p in ADVERSARIAL_P:
        for a in (4, 5, 8):
            for b in (a + 1, a + 6, None):
                starts, values = ([a], [1.0]) if b is None else ([a, b], [1.0, 0.0])
                oracle = oracles.zeta_runs(starts, values, p)
                for path in BRACKET_PATHS:
                    lo, hi = bracket_on(path, starts, values, p)
                    if not lo <= oracle <= hi:
                        bad.append((path, p, a, b))
    return bad


def paths_of(violations):
    return {bad[0] for bad in violations}


@pytest.fixture
def em_from_small_indices(monkeypatch):
    monkeypatch.setattr(numerics, "_DIRECT_BELOW", 1)
    return monkeypatch


def test_euler_maclaurin_bracket_holds_at_small_indices(em_from_small_indices):
    assert em_violations() == []


@pytest.mark.parametrize("dropped", range(len(numerics._EM_COEFFS)))
def test_dropping_any_correction_or_the_remainder_is_caught(em_from_small_indices, dropped):
    # the last coefficient is the remainder term; the others are corrections
    coeffs = list(numerics._EM_COEFFS)
    coeffs[dropped] = 0.0
    em_from_small_indices.setattr(numerics, "_EM_COEFFS", tuple(coeffs))
    assert paths_of(em_violations()) == set(BRACKET_PATHS)


def test_dropping_the_first_correction_fails_the_adversarial_check(monkeypatch):
    monkeypatch.setattr(numerics, "_EM_COEFFS", (0.0,) + numerics._EM_COEFFS[1:])
    assert paths_of(seq_norm_violations()) == set(BRACKET_PATHS)


def test_summing_no_index_directly_fails_the_adversarial_check(monkeypatch):
    # Euler-Maclaurin from n = 1 is still a bracket, but far wider than tol
    monkeypatch.setattr(numerics, "_DIRECT_BELOW", 1)
    assert paths_of(seq_norm_violations()) == set(BRACKET_PATHS)


def crossover_cases():
    """Run lists one below, at and one above the crossover: runs of
    length 1 on both sides of _DIRECT_BELOW, and runs spread up to 1e6,
    with increasing values (running sums) and v/a below 1."""
    rng = np.random.default_rng(77)
    crossover, threshold = model._ARRAYS_FROM, DIRECT_BELOW
    cases = []
    for k in (crossover - 1, crossover, crossover + 1):
        first = threshold - k // 2
        cases.append((list(range(first, first + k)), [(j + 1) / (k + 1) for j in range(k)]))
        starts = sorted(int(i) for i in rng.choice(np.arange(1, 10**6), size=k, replace=False))
        sums = np.cumsum(rng.uniform(1e-3, 1.0, size=k))
        top = max(s / i for s, i in zip(sums, starts))
        cases.append((starts, (0.75 * sums / top).tolist()))
    return cases


@pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 2.0, 3.0])
def test_both_bracket_paths_contain_the_oracle_around_the_crossover(p):
    for starts, values in crossover_cases():
        oracle = oracles.zeta_runs(starts, values, p)
        brackets = {}
        for path in BRACKET_PATHS:
            lo, hi = bracket_on(path, starts, values, p)
            assert lo <= oracle <= hi, (path, starts[:2], p)
            brackets[path] = (lo, hi)
        (f_lo, f_hi), (n_lo, n_hi) = brackets["floats"], brackets["numpy"]
        # the midpoints differ by at most the sum of the half-widths
        assert abs((f_lo + f_hi) - (n_lo + n_hi)) <= (f_hi - f_lo) + (n_hi - n_lo)


def test_run_lists_take_the_float_path_and_arrays_the_numpy_path_at_any_length(monkeypatch):
    on_floats = []
    real = numerics._bracket_on_floats
    monkeypatch.setattr(numerics, "_bracket_on_floats",
                        lambda starts, *rest: on_floats.append(len(starts)) or real(starts, *rest))
    # a 40-run list across _DIRECT_BELOW and a 3-run array spread up to 1e6
    runs = list(range(DIRECT_BELOW - 20, DIRECT_BELOW + 20)), [(j + 1) / 41 for j in range(40)]
    spread = np.array([3.0, 40.0, 1e6]), np.array([0.25, 0.5, 0.75])
    for starts, values in (runs, spread, *crossover_cases()):
        lo, hi = power_runs_bracket(starts, values, 2.0)
        assert lo <= oracles.zeta_runs(starts, values, 2.0) <= hi
    assert on_floats == [40, *(len(starts) for starts, _ in crossover_cases())]


@pytest.mark.parametrize("path", sorted(BRACKET_PATHS))
def test_both_bracket_paths_scale_by_exp2_exactly(path):
    for starts, values in crossover_cases():
        for exp2 in (-1000, -3, 3, 1000):
            scaled = [math.ldexp(v, exp2) for v in values]
            assert bracket_on(path, starts, scaled, 1.5, exp2) == bracket_on(path, starts, values, 1.5)


# the float bracket written out on its own: the reference for the
# bit-identity test below, reading _EM_COEFFS and _DIRECT_BELOW at call
# time.  It reduces and bounds on its own (a copy of numerics._bracket's
# sums and rounding allowance), so a change to numerics._bracket moves
# one side of the test only.


def _reference_em_factors(p: float) -> list[tuple[float, float]]:
    factors = []
    rising = p
    for k, coeff in enumerate(numerics._EM_COEFFS):
        factors.append((coeff * rising, p + 2 * k + 1))
        rising *= (p + 2 * k + 1) * (p + 2 * k + 2)
    return factors


def _reference_em_pieces(xp, a, b, v, p: float, factors):
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


def _reference_bracket_on_floats(starts, values, p: float, exp2: int) -> tuple[float, float]:
    direct: list[float] = []
    runs = []  # the last run is infinite, so there is at least one
    factors = _reference_em_factors(p)
    for a, b, v in zip(starts, [*starts[1:], math.inf], values):
        a, v = float(a), math.ldexp(float(v), -exp2)
        direct.extend((v / n) ** p for n in range(int(a), int(min(b, numerics._DIRECT_BELOW))))
        if b > numerics._DIRECT_BELOW:
            runs.append(_reference_em_pieces(math, max(a, float(numerics._DIRECT_BELOW)), b, v, p, factors))
    bodies, remainders, weighted, magnitudes = zip(*runs)
    direct_sum, body_sum = math.fsum(direct), math.fsum(bodies)
    remainder_sum = math.fsum(remainders)
    total = math.fsum([direct_sum, body_sum])
    allowance = ((2.0 * p + 56.0) * 2.0**-52 * (direct_sum + math.fsum(weighted))
                 + 5e-324 * (len(direct) + len(runs) + math.fsum(magnitudes)))
    return total + min(remainder_sum, 0.0) - allowance, total + max(remainder_sum, 0.0) + allowance


@st.composite
def float_bracket_inputs(draw):
    """(starts, values, p, exp2) of a run list as short as list columns
    are (below model._ARRAYS_FROM): 1 to 11 starts near 1, around
    _DIRECT_BELOW or anywhere up to 2**53, increasing values from
    1e-300 to 1e300, and exp2 as _norm_from_prefixes picks it, so that
    the small values of a wide list scale to subnormals or zero."""
    start = st.one_of(st.integers(min_value=1, max_value=8),
                      st.integers(min_value=DIRECT_BELOW - 2, max_value=DIRECT_BELOW + 2),
                      st.integers(min_value=1, max_value=2**53),
                      st.integers(min_value=2**53 - 40, max_value=2**53))
    starts = sorted(draw(st.lists(start, min_size=1, max_size=model._ARRAYS_FROM - 1, unique=True)))
    values = sorted(draw(st.lists(st.floats(min_value=1e-300, max_value=1e300),
                                  min_size=len(starts), max_size=len(starts))))
    _, exp2 = math.frexp(max(v / s for v, s in zip(values, starts)))
    return starts, values, draw(st.floats(min_value=1.001, max_value=8.0)), exp2


def _hex_or_error(call):
    try:
        return [x.hex() for x in call()]
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


@settings(deadline=None)
@given(float_bracket_inputs())
@example(([1, 31, 32, 33], [1e-300, 1e-10, 1.0, 1e300], 1.001, 992))
def test_the_float_bracket_keeps_the_bits_of_the_reference(case):
    starts, values, p, exp2 = case
    for direct_below in (DIRECT_BELOW, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "_DIRECT_BELOW", direct_below)
            expected = _hex_or_error(lambda: _reference_bracket_on_floats(starts, values, p, exp2))
            assert _hex_or_error(lambda: numerics._bracket_on_floats(starts, values, p, exp2)) == expected


@st.composite
def sequence_chain_inputs(draw):
    """(v, x, p, tol): a vector of 1 to 300 entries (both sides of
    model._ARRAYS_FROM), indices from 1 or from near 2**52 or 2**53 on,
    magnitudes from 1e-300 to 1e300 (in about one draw of five the last
    two are 1e308, which overflows the l1 mass), the sum element with
    one component per entry of v, and tol from the default to below the
    rounding floor.

    In about one draw of ten every gap is 1, and in one of ten every gap
    is 10**6; otherwise each gap is 1 or 10**6 one time in twenty and
    log-uniform from 1 to 10**6 (a quarter of them under _DIRECT_BELOW)
    the rest of the time.  The gaps and signs come from one seeded
    generator: hypothesis keeps the choices of up to 10,000 examples in
    its engine's cache, and a choice per gap and per sign would triple
    what the deep profile holds."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=300)))
    # the top start keeps the last index at most model.MAX_INDEX = 2**53
    first = draw(st.sampled_from([1, 20, 2**52 - 150, 2**53 - 300 * 10**6]))
    mags = draw(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=n, max_size=n))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        mags[-2:] = [1e308, 1e308][-n:]
    kind = draw(st.integers(min_value=0, max_value=9))
    rnd = draw(st.randoms(use_true_random=True))
    ends = {8: (1,), 9: (10**6,)}.get(kind, (1, 10**6))

    def gap():
        if kind < 8 and rnd.random() >= 0.05:
            return int(10 ** rnd.uniform(0, 6))
        return rnd.choice(ends)

    gaps = [gap() for _ in range(n)]
    signs = [rnd.choice((-1.0, 1.0)) for _ in range(n)]
    indices = [first + sum(gaps[:k]) for k in range(n)]
    v = TaggedVector(tuple(indices), tuple(m * s for m, s in zip(mags, signs)))
    p = draw(st.sampled_from([1.01, 1.5, 2.0, 3.0]))
    stack = draw(st.sampled_from([SpaceSpec.lp(2.0), SpaceSpec.lp(1.5), SpaceSpec.lp(1.0)]))
    x = SumElement(p, tuple((i, TaggedVector((1, 3), (c, 0.5 * c))) for i, c in zip(v.indices, v.coeffs)), stack)
    tol = draw(st.sampled_from([DEFAULT_TOL, 1e-20, 1e300]))
    return v, x, p, tol


def sequence_chain_outcomes(v, x, p, tol):
    """Value, error_bound and warning (or holds and quantities) of every
    route through the sequence chain, floats by hex, or the exception's
    type and message."""
    calls = [lambda: ces_seq_norm(v, p, tol), lambda: cesaro_sum_norm(x, tol),
             lambda: embedded_outer_norm(embed_T(v, p), tol), lambda: embedded_outer_norm(embed_S(x), tol),
             lambda: verify_isometry(v, p, tol), lambda: verify_isometry(x, None, tol)]
    outcomes = []
    for call in calls:
        try:
            r = call()
        except Exception as exc:
            outcomes.append((type(exc).__name__, str(exc)))
            continue
        if isinstance(r, NormResult):
            floats, flag = [r.value, r.error_bound], r.warning
        else:
            floats, flag = list(r.quantities.values()), r.holds
        # no numpy scalar may reach a report
        assert all(type(f) is float for f in floats)
        outcomes.append(([f.hex() for f in floats], flag))
    return outcomes


@settings(max_examples=60, deadline=None)
@given(sequence_chain_inputs())
@example((TaggedVector(tuple(range(1, 14)), (1e308,) * 13),
          SumElement(2.0, tuple((k, TaggedVector.basis(1, 1e308)) for k in range(1, 14))), 2.0, DEFAULT_TOL))
def test_the_sequence_chain_on_lists_and_on_arrays_follows_its_columns(inputs):
    # every input once with every prefix column as lists and once as
    # arrays, whatever its length: the columns agree bit for bit, the
    # direct route gives the bits of the bracket on columns of that type
    # (the two brackets' pow, log1p and expm1 may differ by an ulp), and
    # no route lets a numpy scalar reach a result
    v, x, p, tol = inputs
    columns = []
    for path, array_from in (("floats", 10**9), ("numpy", 0)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_ARRAYS_FROM", array_from)
            starts, prefixes = model.abs_prefix_sums(v)
            assert isinstance(prefixes, list if path == "floats" else np.ndarray)
            columns.append([float(f).hex() for f in (*starts, *prefixes)])
            direct = _outcome(lambda: ces_seq_norm(v, p, tol))
            sequence_chain_outcomes(v, x, p, tol)
        assert direct == _outcome(lambda: seq_norm_on(path, v, p, tol))
    assert columns[0] == columns[1]


def _outcome(call):
    """value, error_bound (by hex) and warning of a NormResult, or the
    type and message of the exception."""
    try:
        r = call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return r.value.hex(), r.error_bound.hex(), r.warning


@settings(deadline=None)
@given(sequence_chain_inputs(), st.sampled_from([DEFAULT_TOL, 1e-20, 0.0, math.nan]))
def test_the_column_entry_keeps_the_bits_of_ces_seq_norm(inputs, tol):
    # cesaro_sum_norm takes the chain's two steps on its norm column, as
    # ces_seq_norm does on that column as a TaggedVector
    _, x, _, _ = inputs
    expected = _outcome(lambda: ces_seq_norm(x.component_norms(), x.p, tol))
    assert _outcome(lambda: cesaro_sum_norm(x, tol)) == expected


def test_tail_bracket_rejects_bad_args():
    with pytest.raises(ValueError):
        p_series_tail_bracket(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        p_series_tail_bracket(1.0, 2.0, 0)


# ---------------------------------------------------------------------------
# function norm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_the_zero_function_has_norm_zero_with_no_error(p):
    # as the zero sequence: ces_seq_norm(TaggedVector.zero(), p) is (0, 0)
    for h in (StepFunction.constant(0.0), StepFunction(Partition((0.0, 0.3, 1.0)), (0.0, -0.0))):
        assert ces_fun_norm(h, p) == NormResult(0.0, 0.0, exact=True)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_constant_function_norm_is_one(p):
    assert abs(ces_fun_norm(StepFunction.constant(1.0), p).value - 1.0) <= 1e-10


def test_weighted_norm_of_constants():
    # integral of log(1/s) over [0, 1] is exactly 1
    one = weighted_l1_norm(StepFunction.constant(1.0))
    assert abs(one.value - 1.0) <= 1e-15 and one.exact
    assert weighted_l1_norm(StepFunction.constant(0.0)).value == 0.0


def test_half_indicator_p1_closed_form():
    # oracle: int_0^{1/2} 1 dt + int_{1/2}^1 1/(2t) dt = (1 + ln 2)/2
    target = float((1 + mp.log(2)) / 2)
    h = StepFunction.indicator(0.0, 0.5)
    r = ces_fun_norm(h, 1.0)
    assert r.exact
    assert abs(r.value - target) <= 1e-14


def test_half_indicator_p2():
    # oracle: 1/2 + int_{1/2}^1 (2t)^{-2} dt = 3/4, norm sqrt(3)/2
    target = float(mp.sqrt(3) / 2)
    r = ces_fun_norm(StepFunction.indicator(0.0, 0.5), 2.0)
    assert abs(r.value - target) <= 1e-10


def test_linear_profile_limit():
    # steps approximating h(s) = s converge to 1/(2 sqrt 3); at 400 cells
    # the right-endpoint staircase is within 3e-3 and brackets the target
    target = float(1 / (2 * mp.sqrt(3)))
    n = 400
    bps = tuple(k / n for k in range(n + 1))
    upper = StepFunction(Partition(bps), tuple((k + 1) / n for k in range(n)))
    lower = StepFunction(Partition(bps), tuple(k / n for k in range(n)))
    vu = ces_fun_norm(upper, 2.0).value
    vl = ces_fun_norm(lower, 2.0).value
    assert vl <= target <= vu
    assert vu - vl <= 3e-3


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_function_norm_random_against_the_closed_form(p):
    rng = np.random.default_rng(99)
    for _ in range(6):
        h = random_step(rng)
        mine = ces_fun_norm(h, p)
        oracle = oracles.ces_fun_norm(h, p)
        assert abs(mine.value - oracle) <= 1e-6 * (1.0 + oracle)


def test_p1_identity_against_quadrature_route():
    # the closed form and an actual integration of the same functional
    # must agree: this is the log-weight identity, not a shared code path
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = random_step(rng)
        closed = weighted_l1_norm(h)
        quad = _ces_fun_norm_quadrature(h, 1.0, DEFAULT_TOL)
        assert abs(closed.value - quad.value) <= 1e-8 * (1.0 + closed.value)
        oracle = oracles.weighted_l1(h)
        assert abs(closed.value - oracle) <= 1e-8 * (1.0 + oracle)


def test_ces_fun_norm_routes_p1_to_closed_form():
    h = StepFunction.indicator(0.3, 0.9, 2.0)
    assert ces_fun_norm(h, 1.0) == weighted_l1_norm(h)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_fun_norms_reject_a_tol_that_is_not_positive_and_finite(tol):
    h = StepFunction.indicator(0.3, 0.9, 2.0)
    for p in (1.0, 2.0):  # p = 1 takes the closed form, and checks tol all the same
        with pytest.raises(InvalidTolerance):
            ces_fun_norm(h, p, tol)
    with pytest.raises(InvalidTolerance):
        check_embedding_inequality(h, 2.0, tol)


@contextlib.contextmanager
def quadrature_knobs(subdivisions):
    """Run the quadrature with MAX_SUBDIVISIONS patched."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalar_module, "MAX_SUBDIVISIONS", subdivisions)
        yield


# model._ARRAYS_FROM values that send every function down one path of
# the cells' rules (scalar._certified_cells follows the prelude's type)
CELL_PATHS = {"floats": 10**9, "numpy": 0}


@contextlib.contextmanager
def cell_path(path):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_ARRAYS_FROM", CELL_PATHS[path])
        yield


def test_quadrature_budget_exhaustion_is_flagged():
    h = StepFunction(Partition((0.0, 0.2, 0.7, 1.0)), (1.0, 3.0, 0.5))
    with quadrature_knobs(0):
        r = _ces_fun_norm_quadrature(h, 2.0, 1e-30)
    assert r.warning is not None
    healthy = ces_fun_norm(h, 2.0)
    assert healthy.warning is None
    # the starved run still brackets the healthy value
    assert abs(r.value - healthy.value) <= r.error_bound + healthy.error_bound


@pytest.mark.parametrize("p, cells, warns", [(1.5, 41, True), (3.0, 41, False), (1.5, 12, False)])
def test_a_converged_function_norm_whose_bound_misses_tol_says_so(p, cells, warns):
    # Hardy's near-extremal step on 41 cells at p = 1.5: the largest |h|
    # sits on a tiny first cell, so the scaled root is far below 1 and the
    # 4 EPS of power_bracket_to_norm alone is 1.8e-9 of it
    r = ces_fun_norm(_hardy_near_extremal(p, cells), p)
    assert (r.error_bound > DEFAULT_TOL * r.value) == warns
    assert r.warning == (scalar_module.WIDE_BRACKET if warns else None)


# ---------------------------------------------------------------------------
# batched cells against one adaptive_integral call per cell
# ---------------------------------------------------------------------------

# (tol, subdivisions): the default, a starved and a tight one
QUADRATURE_CONFIGS = ((DEFAULT_TOL, scalar_module.MAX_SUBDIVISIONS), (1e-30, 0), (1e-13, 5))


def per_cell_reference(h, p, tol, subdivisions, on_floats=False):
    """The quadrature route cell by cell after the first: (value,
    error_bound, warning), the warning the budget's if a bisection ran
    out and else the wide bracket's if the bound misses tol relative.
    A cell's NODES_PER_CELL-point estimate is a numerics.gauss_legendre
    call on that cell alone (with on_floats, on an integrand that powers
    node by node on Python floats), and the route's bound of that one
    cell (scalar._certified_errors on one-element arrays, or
    _certified_error_on_floats) decides whether the estimate is
    certified.  Every other cell takes one numerics.adaptive_integral
    call on the NODES_PER_CELL- and 2 NODES_PER_CELL-point rules on
    floats, whatever the path, as the route does.  |h| is divided by the
    power of two 2**e that puts its maximum in [1/2, 1), and the norm
    and its bound are multiplied back (the bound plus the smallest
    subnormal), as the route does."""
    nodes = scalar_module.NODES_PER_CELL
    e = math.frexp(max(abs(v) for v in h.values))[1]
    mags = [math.ldexp(abs(v), -e) for v in h.values]
    bps = h.partition.breakpoints
    prefix = [0.0, *numerics.running_sums([m * (b - a) for m, (a, b) in zip(mags, h.partition.cells)])]
    consts = scalar_module._bound_constants(p, nodes, len(mags), tol)

    def rule(k, on_floats, n):
        # the n-point rule over a subinterval of cell k; a node that
        # rounds left of its cell counts as its left end
        if on_floats:
            def power(t):
                return ((prefix[k] + mags[k] * (t - bps[k] if t > bps[k] else 0.0)) / t) ** p

            def fn(t):
                return [[power(x) for x in row] for row in t.tolist()]
        else:
            def fn(t):
                return ((prefix[k] + mags[k] * np.maximum(t - bps[k], 0.0)) / t) ** p
        return lambda a, b: numerics.gauss_legendre(fn, [a], [b], n).item()

    def cell(k):
        a, b = bps[k], bps[k + 1]
        coarse = rule(k, on_floats, nodes)(a, b)
        if on_floats:
            err = scalar_module._certified_error_on_floats(prefix[k], mags[k], a, b, coarse, p, nodes, consts)
        else:
            err = scalar_module._certified_errors(*(np.array([x]) for x in (prefix[k], mags[k], a, b, coarse)),
                                                  p, nodes, consts).item()
        if err <= consts.limit * coarse and prefix[k] >= consts.floor:
            return coarse, err, True
        coarse_on_floats, fine_on_floats = rule(k, True, nodes), rule(k, True, 2 * nodes)
        o = numerics.adaptive_integral(lambda x, y: (coarse_on_floats(x, y), fine_on_floats(x, y)),
                                       a, b, tol, subdivisions)
        return o.value, o.error_bound, o.converged

    outcomes = [cell(k) for k in range(1, len(mags))]
    total = mags[0] ** p * bps[1] + math.fsum(v for v, _, _ in outcomes)
    err = math.fsum(b for _, b, _ in outcomes)
    value, bound = numerics.power_bracket_to_norm(total - err, total + err, p)
    if not all(c for _, _, c in outcomes):
        warning = "quadrature subdivision budget exhausted"
    else:
        warning = scalar_module.WIDE_BRACKET if bound > tol * value else None
    return math.ldexp(value, e), math.ldexp(bound, e) + math.ulp(0.0), warning


def assert_bit_identical_to_per_cell(h, p, path="numpy"):
    for tol, subdivisions in QUADRATURE_CONFIGS:
        with quadrature_knobs(subdivisions), cell_path(path):
            r = _ces_fun_norm_quadrature(h, p, tol)
        assert (r.value, r.error_bound, r.warning) == per_cell_reference(
            h, p, tol, subdivisions, on_floats=path == "floats")


magnitudes = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def many_cell_step_functions(draw):
    # up to 101 cells: both sides of the crossover (model._ARRAYS_FROM)
    pts = draw(st.lists(st.floats(min_value=1e-12, max_value=0.999), max_size=100, unique=True))
    part = Partition(tuple([0.0, *sorted(pts), 1.0]))
    mags = draw(st.lists(magnitudes, min_size=part.cell_count, max_size=part.cell_count))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=part.cell_count, max_size=part.cell_count))
    return StepFunction(part, tuple(m * s for m, s in zip(mags, signs)))


@settings(max_examples=max(60, settings().max_examples // 5), deadline=None)
@given(many_cell_step_functions(), st.floats(min_value=1.0, max_value=6.0))
def test_batched_cells_are_bit_identical_to_per_cell_calls(h, p):
    assert_bit_identical_to_per_cell(h, p)


@settings(max_examples=60, deadline=None)
@given(many_cell_step_functions(), st.floats(min_value=1.0, max_value=6.0))
def test_the_prelude_on_lists_and_on_arrays_gives_the_same_bits(h, p):
    # every function once with its magnitudes, breakpoints and prefix as
    # lists and once as arrays; only the prelude is compared, as the
    # rules' pow may differ by an ulp across the two paths
    results = []
    for path in ("floats", "numpy"):
        with cell_path(path):
            mags, exp2, ends, prefix = scalar_module._quadrature_prelude(h, p)
        assert isinstance(prefix, list if path == "floats" else np.ndarray)
        results.append(([float(v).hex() for v in (*mags, *ends, *prefix)], exp2))
    assert results[0] == results[1]


@pytest.mark.parametrize("cells", [_CELL_CHUNK - 1, _CELL_CHUNK, _CELL_CHUNK + 1, 2 * _CELL_CHUNK + 1])
def test_chunk_edges_are_bit_identical_to_per_cell_calls(cells):
    rng = np.random.default_rng(cells)
    pts = np.sort(rng.uniform(0.0, 1.0, size=cells - 1)).tolist()
    h = StepFunction(Partition((0.0, *pts, 1.0)), tuple(rng.uniform(-3.0, 3.0, size=cells).tolist()))
    for p in (1.5, 3.0):
        assert_bit_identical_to_per_cell(h, p)


def adaptive_calls(monkeypatch):
    """The (a, b, subdivisions) of every scalar adaptive_integral call
    from here on."""
    calls = []

    def recording(rules, a, b, *rest):
        outcome = numerics.adaptive_integral(rules, a, b, *rest)
        calls.append((a, b, outcome.subdivisions))
        return outcome

    monkeypatch.setattr(scalar_module, "adaptive_integral", recording)
    return calls


def test_the_starved_config_exhausts_its_budget_and_the_tight_one_bisects(monkeypatch):
    # what the comparisons with per_cell_reference need of QUADRATURE_CONFIGS:
    # the starved config runs out of its budget, the tight one splits a cell
    h = StepFunction(Partition((0.0, 0.05, 1.0)), (0.0, 1.0))
    calls = adaptive_calls(monkeypatch)
    _, (starved_tol, starved), (tight_tol, tight) = QUADRATURE_CONFIGS
    with quadrature_knobs(starved):
        assert _ces_fun_norm_quadrature(h, 2.0, starved_tol).warning == "quadrature subdivision budget exhausted"
    with quadrature_knobs(tight):
        assert _ces_fun_norm_quadrature(h, 2.0, tight_tol).warning is None
    assert calls == [(0.05, 1.0, 0), (0.05, 1.0, 3)]


@pytest.mark.parametrize("later_cells", [4, 45])
def test_a_pass_with_accepted_and_bisected_cells_is_bit_identical_to_per_cell_calls(later_cells, monkeypatch):
    # h = 1 on [0, 1e-9] and 0 up to 1/2: the integrand (1e-9/t)**p of
    # that cell is too steep for the rule pair, so it alone is bisected;
    # the cells after it are settled in the same pass, by their bound or
    # by their rules' doubling estimate without a split, as the inner
    # average vanishes just left of 1/2 (4 later cells, and 45, a longer
    # pass)
    rng = np.random.default_rng(later_cells)
    h = StepFunction(Partition((0.0, 1e-9, 0.5, *np.linspace(0.5, 1.0, later_cells)[1:].tolist())),
                     (1.0, 0.0, *rng.uniform(0.5, 2.0, size=later_cells - 1).tolist()))
    calls = adaptive_calls(monkeypatch)
    with cell_path("numpy"):
        r = ces_fun_norm(h, 2.0)
    assert [(a, b) for a, b, splits in calls if splits] == [(1e-9, 0.5)]
    assert (r.value, r.error_bound, r.warning) == per_cell_reference(
        h, 2.0, DEFAULT_TOL, scalar_module.MAX_SUBDIVISIONS)
    assert_bit_identical_to_per_cell(h, 2.0)


TINY_CELLS_AND_JUMPS = [
    StepFunction(Partition((0.0, 1e-12, 1.0)), (0.0, 1.0)),
    StepFunction(Partition((0.0, 1e-12, 0.5, 1.0)), (2.0, 0.0, 1.0)),
    StepFunction(Partition((0.0, 0.3, 0.30001, 1.0)), (1.0, 1e6, 1.0)),
    StepFunction(Partition((0.0, 0.5, 0.7, 1.0)), (1e6, 1.0, 1e6)),
]


@pytest.mark.parametrize("h", TINY_CELLS_AND_JUMPS)
def test_tiny_cells_and_jumps_are_bit_identical_to_per_cell_calls(h):
    for p in (1.01, 2.0, 6.0):
        assert_bit_identical_to_per_cell(h, p)


@settings(max_examples=max(60, settings().max_examples // 5), deadline=None)
@given(many_cell_step_functions(), st.floats(min_value=1.0, max_value=6.0))
def test_cells_on_floats_are_bit_identical_to_per_cell_calls_on_floats(h, p):
    assert_bit_identical_to_per_cell(h, p, "floats")


@pytest.mark.parametrize("h", TINY_CELLS_AND_JUMPS)
def test_tiny_cells_and_jumps_on_floats_are_bit_identical_to_per_cell_calls(h):
    for p in (1.01, 2.0, 6.0):
        assert_bit_identical_to_per_cell(h, p, "floats")


def test_functions_below_the_crossover_take_the_float_path(monkeypatch):
    batched = []
    monkeypatch.setattr(scalar_module, "gauss_legendre",
                        lambda fn, a, *rest: batched.append(len(a)) or numerics.gauss_legendre(fn, a, *rest))
    below = model._ARRAYS_FROM
    for cells in range(1, below + 4):
        h = StepFunction(Partition.uniform(cells), tuple(1.0 + k for k in range(cells)))
        ces_fun_norm(h, 1.5)
    # the first cell is integrated exactly; the rules see the others, on
    # floats over the prelude's lists
    assert batched == [cells - 1 for cells in range(1, below + 4) if cells - 1 >= below]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("path", sorted(CELL_PATHS))
def test_a_power_that_overflows_is_a_domain_error_on_both_paths(path):
    # the inner averages round a little above 1, and (1 + ulp)**1e300 overflows
    h = StepFunction(Partition((0.0, 0.1, 0.2, 0.3, 1.0)), (1.0, 1.0, 1.0, 1.0))
    with cell_path(path), pytest.raises(DomainError, match="float range"):
        ces_fun_norm(h, 1e300)


# ---------------------------------------------------------------------------
# both cell paths against the closed-form norm at 40 digits
# ---------------------------------------------------------------------------

CORPUS_P = (1.01, 1.5, 2.0, 3.0, 6.0)
# tiny first cells with no mass or a jump after them
NO_MASS_BEFORE_1e_9 = StepFunction(Partition((0.0, 1e-9, 1.0)), (0.0, 1.0))
JUMP_AFTER_1e_12 = StepFunction(Partition((0.0, 1e-12, 0.1, 1.0)), (1.0, 1e6, 0.0))


def accuracy_corpus():
    """32 step functions with 1 to 16 cells: a first cell from 1e-12 to
    0.3 (log-uniform), the other breakpoints uniform beyond it, values
    that are exact zeros (one in five) or of magnitude 1 to 1e6; then
    the tiny-cell and jump cases above."""
    rng = np.random.default_rng(16)
    corpus = []
    for i in range(32):
        cells = 1 + i % 16
        first = 10.0 ** rng.uniform(-12.0, math.log10(0.3))
        interior = sorted({first, *rng.uniform(first, 1.0, size=cells - 2).tolist()}) if cells > 1 else []
        values = [0.0 if rng.uniform() < 0.2 else float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 6.0))
                  for _ in range(len(interior) + 1)]
        corpus.append(StepFunction(Partition((0.0, *interior, 1.0)), tuple(values)))
    return corpus + TINY_CELLS_AND_JUMPS + [NO_MASS_BEFORE_1e_9, JUMP_AFTER_1e_12]


ACCURACY_CORPUS = accuracy_corpus()
# (case, p) whose error exceeds its error_bound, on both paths alike:
# after a tiny first cell the doubling estimate of the next cell is not
# a bound (ROADMAP item 3; a fix of that empties this set).  Cases 2 and
# 24 are drawn: first cells of 3.2e-12 and 4.1e-9, each followed by a
# jump.
KNOWN_BOUND_VIOLATIONS = {
    (2, 1.01), (2, 1.5), (2, 2.0), (2, 3.0), (24, 2.0),
    *((ACCURACY_CORPUS.index(TINY_CELLS_AND_JUMPS[0]), p) for p in CORPUS_P),
    (ACCURACY_CORPUS.index(NO_MASS_BEFORE_1e_9), 2.0), (ACCURACY_CORPUS.index(NO_MASS_BEFORE_1e_9), 6.0),
    *((ACCURACY_CORPUS.index(JUMP_AFTER_1e_12), p) for p in CORPUS_P),
}


@pytest.mark.parametrize("path", sorted(CELL_PATHS))
def test_both_cell_paths_lie_within_their_bound_of_the_40_digit_norm(path):
    violations = set()
    for case, h in enumerate(ACCURACY_CORPUS):
        for p in CORPUS_P:
            with cell_path(path):
                r = ces_fun_norm(h, p)
            if abs(mp.mpf(r.value) - oracles.ces_fun_norm(h, p)) > r.error_bound:
                violations.add((case, p))
    assert violations == KNOWN_BOUND_VIOLATIONS


# ---------------------------------------------------------------------------
# the certified cells against the closed form of each cell
# ---------------------------------------------------------------------------

def log_uniform(lo: float, hi: float):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda x: 10.0 ** x)


@st.composite
def functions_with_zeros_of_the_inner_average(draw):
    """Step functions whose inner average vanishes, or nearly, just left
    of a run of cells: |h| is 0 or tiny up to z, small on a short cell
    after it, and of size 1/4 to 4 (or 0) on geometric cells beyond, with
    a few random breakpoints; every value times 1e-150, 1 or 1e150."""
    z = draw(st.floats(min_value=0.02, max_value=0.6))
    short = z * draw(log_uniform(1e-9, 0.3))
    ratio = draw(st.floats(min_value=1.1, max_value=4.0))
    geometric = [z + short * (1.0 + (ratio ** j - 1.0) / (ratio - 1.0)) for j in range(12)]
    pts = {z, *(t for t in geometric if t < 1.0)}
    pts |= set(draw(st.lists(st.floats(min_value=1e-6, max_value=0.999), max_size=3)))
    part = Partition(tuple([0.0, *sorted(pts), 1.0]))
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    first = draw(st.one_of(st.just(0.0), log_uniform(1e-12, 1.0)))
    small = draw(st.one_of(st.just(0.0), log_uniform(1e-9, 1.0)))
    rest = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.25, max_value=4.0)),
                         min_size=part.cell_count, max_size=part.cell_count))
    values = [v if t >= z else first * v for v, t in zip(rest, part.breakpoints)]
    values[part.breakpoints.index(z)] = small
    return StepFunction(part, tuple(scale * v for v in values))


def certified_cells_outside_their_bound(h: StepFunction, p: float, path: str, tol: float = DEFAULT_TOL):
    """The cells after the first whose NODES_PER_CELL-point estimate the
    route's bound certifies (on floats or on numpy) and whose closed-form
    integral (oracles.cell_integral, with the prefix of the scaled
    magnitudes summed at its precision) lies outside that bound, and the
    number of certified cells."""
    mags, _, ends, prefix = scalar_module._quadrature_prelude(h, p)
    mags, ends, prefix = (list(map(float, v)) for v in (mags, ends, prefix))
    n = scalar_module.NODES_PER_CELL
    consts = scalar_module._bound_constants(p, n, len(mags), tol)
    outside, certified = [], 0
    with mp.workdps(oracles.CELL_DPS):
        F = mp.mpf(0)
        for k in range(len(mags)):
            fk, mk, a, b = prefix[k], mags[k], ends[k], ends[k + 1]
            if k:
                if path == "floats":
                    est = scalar_module._rule_on_floats(fk, mk, a, p, a, b, n)
                    err = scalar_module._certified_error_on_floats(fk, mk, a, b, est, p, n, consts)
                else:
                    est = numerics.gauss_legendre(scalar_module._integrand(fk, mk, a, p), [a], [b], n).item()
                    err = scalar_module._certified_errors(*(np.array([x]) for x in (fk, mk, a, b, est)),
                                                          p, n, consts).item()
                if err <= consts.limit * est and fk >= consts.floor:
                    certified += 1
                    exact = oracles.cell_integral(F, mk, a, b, p)
                    if abs(est - exact) > err:
                        outside.append((k, est, float(exact), err))
            F += mp.mpf(mk) * (mp.mpf(b) - mp.mpf(a))
    return outside, certified


# |h| = 1 from 0.6 on: the cells (0.6 + 1.5e-5, 0.6 + 3e-5) and on lie
# at their own width from the zero of the inner average, 0.6, and are
# certified in spite of a condition number s/(t_k - s) of 4e4 in t
NEAR_A_ZERO = StepFunction(Partition((0.0, 0.6, 0.6 + 1.5e-5, 0.6 + 3e-5, 0.6 + 6e-5, 0.6 + 1.2e-4, 1.0)),
                           (0.0, 1.0, 1.0, 1.0, 1.0, 1.0))


@settings(max_examples=max(20, settings().max_examples // 5), deadline=None)
@given(functions_with_zeros_of_the_inner_average(), st.floats(min_value=1.01, max_value=6.0),
       st.sampled_from(sorted(CELL_PATHS)))
@example(NEAR_A_ZERO, 2.0, "numpy")
@example(NEAR_A_ZERO, 3.0, "floats")
def test_no_certified_cell_lies_outside_its_bound_of_the_closed_form(h, p, path):
    outside, _ = certified_cells_outside_their_bound(h, p, path)
    assert outside == []


@pytest.mark.parametrize("path", sorted(CELL_PATHS))
def test_certified_cells_of_the_accuracy_corpus_lie_within_their_bound(path):
    certified = 0
    for h in ACCURACY_CORPUS + magnitude_corpus():
        for p in CORPUS_P:
            outside, count = certified_cells_outside_their_bound(h, p, path)
            assert outside == [], (h, p)
            certified += count
    assert certified > 1000


@pytest.mark.parametrize("path", sorted(CELL_PATHS))
def test_cells_at_three_times_their_distance_from_zero_are_all_certified(path, monkeypatch):
    # every cell [a, 3a]: r = 3/2, rho = 2.618, and the 16-point bound is
    # 1e-13 relative, while rho**-16 would leave it at 7e-8
    h = StepFunction(Partition((0.0, *(3.0 ** -k for k in range(12, 0, -1)), 1.0)), (1.0,) * 13)
    rules = []
    monkeypatch.setattr(scalar_module, "adaptive_integral", lambda *args: rules.append(args))
    for p in (1.5, 2.0, 4.0):
        with cell_path(path):
            mags, _, ends, prefix = scalar_module._quadrature_prelude(h, p)
            uncertified = [c for _, _, cells in scalar_module._certified_cells(prefix, mags, ends, p, DEFAULT_TOL)
                           for c in cells]
            r = ces_fun_norm(h, p)
        assert uncertified == [] and rules == []
        assert abs(r.value - 1.0) <= r.error_bound <= 1e-12


def test_only_rejected_cells_are_bisected(monkeypatch):
    calls = adaptive_calls(monkeypatch)
    # the integrand rises from 0 to nearly 1 just right of t = 0.01: the
    # bound misses that cell (F_k = 0), and its two rules disagree, so it
    # is bisected
    jump = StepFunction(Partition((0.0, 0.01, 1.0)), (0.0, 1.0))
    assert ces_fun_norm(jump, 2.0).warning is None
    assert [(a, b) for a, b, _ in calls] == [(0.01, 1.0)] and calls[0][2] > 0
    calls.clear()
    n = 2000
    smooth = StepFunction(Partition(tuple(k / n for k in range(n + 1))), tuple(1.0 + k / n for k in range(n)))
    ces_fun_norm(smooth, 2.0)
    assert len(calls) <= 5


# ---------------------------------------------------------------------------
# function norms outside the float range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [sys.float_info.max, 1e308, 1e-300, 1e-320, 5e-324])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 6.0])
def test_norm_of_an_extreme_constant_is_that_constant(c, p):
    # scaled by a power of two, computed, scaled back: the exact norm c
    for bps in ((0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 1e-300, 1.0)):
        r = ces_fun_norm(StepFunction(Partition(bps), (c,) * (len(bps) - 1)), p)
        assert abs(r.value - c) <= r.error_bound <= 1e-13 * c + math.ulp(0.0)
        assert r.warning is None


def test_p_beyond_every_scale_is_a_domain_error():
    # 3**p overflows and (3/4)**p underflows: no power of two brings it into range
    with pytest.raises(DomainError):
        ces_fun_norm(StepFunction.constant(3.0), 1e6)
    with pytest.raises(DomainError):
        ces_seq_norm(TaggedVector.basis(31), 1e64)


@pytest.mark.parametrize("c, p", [(1e150, 1.5), (1e100, 3.0), (1e-100, 2.0)])
def test_in_range_constants_are_scaled_before_the_root(c, p):
    # unscaled, the root of c**p by the rounded 1/p was off by about
    # ln(c**p) ulps (1e150 at p = 1.5: 1.9e136 against a bound of
    # 8.9e134), and the absolute 4 EPS of the bound swamped 1e-100
    h = StepFunction.constant(c)
    for r in (ces_fun_norm(h, p), lr_fun_norm(h, p)):
        assert abs(mp.mpf(r.value) - mp.mpf(c)) <= r.error_bound <= 1e-14 * c


@pytest.mark.parametrize("path", sorted(CELL_PATHS))
def test_an_ulp_wide_cell_at_a_power_of_two_has_a_finite_norm(path):
    # nodes of (0.5, 0.5 + 2**-53) round below 0.5, where the spacing is
    # finer; unclamped, F + m (t - a) < 0 there and its 1.5-th power is nan
    h = StepFunction(Partition((0.0, 0.5, math.nextafter(0.5, 1.0), 1.0)), (0.0, 1.0, 1.0))
    with cell_path(path):
        r = ces_fun_norm(h, 1.5)
    assert abs(mp.mpf(r.value) - oracles.ces_fun_norm(h, 1.5)) <= r.error_bound
    samples = scalar_module.ces_fun_integrand_samples(h, 1.5)
    assert all(avg >= 0.0 and math.isfinite(integrand) for _, avg, integrand in samples)


def test_a_narrow_cell_of_the_weighted_l1_norm_does_not_cancel():
    # anti(0.6 + 1e-9) - anti(0.6) cancelled to an error of 4.4e-18
    # against a bound of 1.8e-24, as the bound took the size of the difference
    h = StepFunction(Partition((0.0, 0.6, 0.6 + 1e-9, 1.0)), (0.0, 1.0, 0.0))
    for r in (weighted_l1_norm(h), ces_fun_norm(h, 1.0)):
        assert abs(mp.mpf(r.value) - oracles.weighted_l1(h)) <= r.error_bound <= 1e-13 * r.value


MAGNITUDE_P = (1.01, 1.5, 3.0, 6.0)


def magnitude_corpus():
    """Per magnitude 1e-150, 1 and 1e150: a constant, step functions of 2
    to 8 cells (breakpoints uniform in (0, 1); values within a factor 10
    of the magnitude, or exact zeros, one in five) and a bump on a cell
    1e-9 wide."""
    rng = np.random.default_rng(150)
    corpus = []
    for scale in (1e-150, 1.0, 1e150):
        corpus.append(StepFunction.constant(scale * float(rng.uniform(1.0, 10.0))))
        for cells in range(2, 9):
            pts = sorted(set(rng.uniform(0.0, 1.0, size=cells - 1).tolist()))
            values = [0.0 if rng.uniform() < 0.2 else scale * float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1))
                      for _ in range(len(pts) + 1)]
            corpus.append(StepFunction(Partition((0.0, *pts, 1.0)), tuple(values)))
        a = float(rng.uniform(0.1, 0.9))
        corpus.append(StepFunction(Partition((0.0, a, a + 1e-9, 1.0)), (0.0, scale, 0.0)))
    return corpus


def test_every_function_norm_of_the_magnitude_corpus_lies_within_its_bound():
    violations = []
    for case, h in enumerate(magnitude_corpus()):
        results = [("weighted_l1", weighted_l1_norm(h), oracles.weighted_l1(h))]
        for p in MAGNITUDE_P:
            results += [(f"ces p={p}", ces_fun_norm(h, p), oracles.ces_fun_norm(h, p)),
                        (f"lr r={p}", lr_fun_norm(h, p), oracles.lebesgue(h, p))]
        violations += [(case, what) for what, r, exact in results if abs(mp.mpf(r.value) - exact) > r.error_bound]
    assert violations == []


# ---------------------------------------------------------------------------
# Lebesgue norms and the comparison inequality
# ---------------------------------------------------------------------------

def test_lebesgue_norm_scales_out_of_float_range_inputs():
    big = lp_fun_norm(StepFunction.constant(1e308), 2.0)
    assert abs(mp.mpf(big.value) - mp.mpf(1e308)) <= big.error_bound <= 1e-14 * 1e308
    # (1e-300)**3 underflows: the unscaled sum of cubes would be 0
    tiny = StepFunction(Partition((0.0, 0.5, 1.0)), (1e-300, 3e-300))
    oracle = oracles.lebesgue(tiny, 3.0)
    r = lr_fun_norm(tiny, 3.0)
    assert abs(mp.mpf(r.value) - oracle) <= r.error_bound <= 1e-14 * oracle
    report = check_embedding_inequality(StepFunction.constant(1e200), 2.0)
    assert report.holds and report.quantities["lp_norm"] == 1e200
    with pytest.raises(DomainError):  # 0.5**r underflows at every scale
        lr_fun_norm(StepFunction.constant(1e308), 1e300)
    with pytest.raises(InvalidExponent):
        lr_fun_norm(StepFunction.constant(1.0), math.nan)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, 7.5])
def test_lebesgue_norm_keeps_its_bits_in_range(r):
    # in-range data is scaled like any other: the norm keeps its accuracy
    # (within its bound of the 40-digit norm), not its unscaled bits
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = StepFunction(Partition((0.0, 0.3, 0.7, 1.0)), tuple(10.0 ** rng.uniform(-30, 30, size=3)))
        res = lr_fun_norm(h, r)
        assert abs(mp.mpf(res.value) - oracles.lebesgue(h, r)) <= res.error_bound <= 8 * numerics.EPS * res.value


def test_lp_fun_norm_examples():
    assert lp_fun_norm(StepFunction.constant(1.0), 3.0).value == 1.0
    v = lp_fun_norm(StepFunction.indicator(0.0, 0.5), 2.0).value
    assert abs(v - math.sqrt(0.5)) <= 1e-15
    # 4-cell staircase with right endpoints: sum (k/4)^2 / 4 = 30/64
    h = StepFunction(Partition((0.0, 0.25, 0.5, 0.75, 1.0)), (0.25, 0.5, 0.75, 1.0))
    assert abs(lp_fun_norm(h, 2.0).value - math.sqrt(30.0) / 8.0) <= 1e-15
    assert lr_fun_norm(h, math.inf).value == 1.0
    with pytest.raises(InvalidExponent):
        lr_fun_norm(h, 0.5)


def test_embedding_inequality_reports():
    rpt = check_embedding_inequality(StepFunction.constant(1.0), 2.0)
    assert rpt.holds
    assert abs(rpt.quantities["lhs"] - 1.0) <= 1e-10
    assert abs(rpt.quantities["rhs"] - 2.0) <= 1e-12

    h = StepFunction.indicator(0.0, 0.5)
    rpt = check_embedding_inequality(h, 2.0)
    assert rpt.holds
    assert abs(rpt.quantities["lhs"] - math.sqrt(3.0) / 2.0) <= 1e-9
    assert abs(rpt.quantities["rhs"] - math.sqrt(2.0)) <= 1e-12

    zero = check_embedding_inequality(StepFunction.constant(0.0), 2.0)
    assert zero.holds and zero.quantities["lhs"] == 0.0 and zero.quantities["rhs"] == 0.0

    with pytest.raises(InvalidExponent):
        check_embedding_inequality(h, 1.0)


def test_embedding_inequality_notes_carry_the_warning_of_its_norms():
    # the 41-cell near-extremal step misses tol at p = 1.5, not at p = 3
    assert check_embedding_inequality(_hardy_near_extremal(1.5, 41), 1.5).notes == f"lhs: {scalar_module.WIDE_BRACKET}"
    assert check_embedding_inequality(_hardy_near_extremal(3.0, 41), 3.0).notes == ""


def test_restriction_comparison():
    # supported inside [0, a]: both norms finite and the bound holds
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = float(rng.uniform(0.2, 0.8))
        h = StepFunction.indicator(0.05, a, float(rng.uniform(0.5, 3.0)))
        rpt = check_embedding_inequality(h, 2.0)
        assert rpt.holds


# ---------------------------------------------------------------------------
# norm axioms (property-based)
# ---------------------------------------------------------------------------

float_vals = st.floats(min_value=-3, max_value=3, allow_nan=False)


@st.composite
def step_functions(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    pts = draw(
        st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=k - 1, max_size=k - 1, unique=True)
    )
    part = Partition(tuple(sorted([0.0, *pts, 1.0])))
    vals = draw(st.lists(float_vals, min_size=part.cell_count, max_size=part.cell_count))
    return StepFunction(part, tuple(vals))


@settings(max_examples=40, deadline=None)
@given(step_functions(), st.floats(min_value=-4, max_value=4, allow_nan=False),
       st.sampled_from([1.0, 1.5, 2.0]))
def test_absolute_homogeneity(h, lam, p):
    from cesaro_lab import scale as scale_step

    left = ces_fun_norm(scale_step(h, lam), p)
    right = ces_fun_norm(h, p)
    assert abs(left.value - abs(lam) * right.value) <= left.error_bound + abs(lam) * right.error_bound + 1e-12


@settings(max_examples=40, deadline=None)
@given(step_functions(), step_functions(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_triangle_inequality(f, g, p):
    s = ces_fun_norm(add(f, g), p)
    a = ces_fun_norm(f, p)
    b = ces_fun_norm(g, p)
    assert s.value <= a.value + b.value + s.error_bound + a.error_bound + b.error_bound + 1e-12


@settings(max_examples=40, deadline=None)
@given(step_functions(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_refinement_invariance(h, p):
    base = ces_fun_norm(h, p)
    refined = ces_fun_norm(h.on_partition(h.partition.merge(Partition.uniform(3))), p)
    assert abs(base.value - refined.value) <= base.error_bound + refined.error_bound + 1e-12


@pytest.mark.parametrize("n", [16, 32])
def test_node_tables_equal_leggauss_bit_for_bit(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    assert numerics.gl_rule(n) == (tuple(nodes.tolist()), tuple(weights.tolist()))


@pytest.mark.parametrize("n", [16, 32])
def test_rule_nodes_and_weights_are_within_their_stated_errors(n):
    # the rounding allowance of scalar._certified_errors takes every node
    # within EPS/2 of the exact one and every weight within
    # gl_weight_error(n) of it, relative (leggauss's weights, which the
    # tables copy, are not correctly rounded)
    with mp.workdps(40):
        for x, w in zip(*numerics.gl_rule(n)):
            root = mp.findroot(lambda t: mp.legendre(n, t), mp.mpf(x))
            weight = 2 * (1 - root ** 2) / (n * mp.legendre(n - 1, root)) ** 2
            assert abs(x - root) <= numerics.EPS / 2
            assert abs(w - weight) <= numerics.gl_weight_error(n) * weight


def _fsum_array_outcome(values):
    """fsum_array's sum by hex (which tells -0.0 from 0.0), or the type
    and message of what it raises."""
    try:
        return numerics.fsum_array(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_fsum_array_gives_one_result_on_a_list_a_tuple_and_an_array():
    rng = np.random.default_rng(11)
    mixed = (rng.choice([-1.0, 1.0], size=1000) * 10.0 ** rng.uniform(-300, 300, size=1000)).tolist()
    ints = rng.integers(-2**62, 2**62, size=1000).tolist()
    subnormals = [5e-324, -5e-324, 2.0**-1060, -(2.0**-1070), 1e-310, -3e-320]
    overflows = [1e308, 1e308]
    cases = (mixed, ints, [0.1] * 10, [1e308, -1e308, 1e-308], [], [-0.0], [-0.0, -0.0, -0.0],
             [-0.0, 0.0], subnormals, subnormals + [-1.0, 1.0], overflows, [1e308, 1e308, -1e308],
             [math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0])
    for values in cases:
        array = np.array(values, dtype=float)
        strided = np.repeat(array, 3)[::3]  # a view with the same values, every third double
        column = np.stack([array, -array], axis=1)[:, 0]
        assert len(values) < 2 or not (strided.flags.c_contiguous or column.flags.c_contiguous)
        outcomes = {_fsum_array_outcome(v) for v in (values, tuple(values), array, strided, column)}
        assert len(outcomes) == 1, values
    # a sum that overflows raises the same error on every input type
    assert _fsum_array_outcome(np.repeat(np.array(overflows), 2)[::2])[0] == "OverflowError"


def test_fsum_array_is_exactly_rounded_past_2_16_terms():
    # 2**53 + 1 rounds to 2**53 (ties to even), so summing any part of
    # these terms first and rounding it loses a unit the true sum keeps
    values = [0.0] * (2**16 + 5)
    values[0], values[5], values[-1] = 1.0, 2.0**53, 1.0
    for order in (values, values[::-1]):
        assert numerics.fsum_array(order) == math.fsum(order) == 2.0**53 + 2.0
        assert numerics.fsum_array(np.array(order)) == 2.0**53 + 2.0
    rng = np.random.default_rng(3)
    mixed = (rng.choice([-1.0, 1.0], size=2**16 + 5) * 10.0 ** rng.uniform(-20, 20, size=2**16 + 5)).tolist()
    for order in (mixed, mixed[::-1]):
        assert numerics.fsum_array(order) == math.fsum(order)


def running_sums_by_loop(terms):
    """numerics.running_sums as the one loop it was before its array
    path: Neumaier's compensated prefix sums, term by term."""
    s = c = 0.0
    out = []
    for term in terms:
        t = s + term
        c += (s - t) + term if abs(s) >= abs(term) else (term - t) + s
        s = t
        out.append(s + c)
    return out


def bit_keys(values):
    """hex of each value (signed zeros apart), "nan" for any nan."""
    return ["nan" if math.isnan(v) else v.hex() for v in values]


# signed zeros, subnormals, 1e+-300, the largest double, inf and nan
RUNNING_TERMS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-300, -1e-300, 1e300, -1e300,
                     sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan, 2.0**-53]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(RUNNING_TERMS, max_size=300))
@example([-0.0])
@example([-0.0, -0.0, 1.0])
@example([1e308, 1e308, -1e308])
@example([math.inf, 1.0, -math.inf])
def test_running_sums_on_an_array_is_the_loop_bit_for_bit(terms):
    expected = bit_keys(running_sums_by_loop(terms))
    assert bit_keys(numerics.running_sums(terms)) == expected
    assert bit_keys(numerics.running_sums(tuple(terms))) == expected
    on_array = numerics.running_sums(np.array(terms, dtype=float))
    assert isinstance(on_array, np.ndarray)
    assert bit_keys(on_array.tolist()) == expected


# ---------------------------------------------------------------------------
# fsum_columns against math.fsum, column by column
# ---------------------------------------------------------------------------

# one column, the two rule sizes and a long batch
FSUM_COLUMNS = (1, 16, 32, 81)
# cancellation, ties, subnormals, magnitudes where fsum's partial sums
# overflow, inf and nan
FSUM_TERMS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-105, 2.0**-107, 5e-324, -5e-324,
                     1e308, -1e308, sys.float_info.max, math.inf, -math.inf, math.nan]),
)


def fsum_by_column(x):
    """math.fsum of each column, or the exception of the first column that raises."""
    out = []
    for col in x.T.tolist():
        try:
            out.append(math.fsum(col))
        except (OverflowError, ValueError) as exc:
            return exc
    return out


def assert_fsum_columns_is_fsum(x):
    expected = fsum_by_column(x)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            numerics.fsum_columns(x)
    else:
        assert [v.hex() for v in numerics.fsum_columns(x).tolist()] == [v.hex() for v in expected]


def one_column_among_ones(column, cols=16):
    """cols columns of ones, the first replaced by column."""
    x = np.ones((len(column), cols))
    x[:, 0] = column
    return x


# hi rounds 1 + 2**-53 to 1 (ties to even), and the errors 2**-53 and
# 2**-107 add up to 2**-53 in floats, so without the slack the tree
# would return 1 where fsum returns 1 + 2**-52
LOST_IN_THE_ERRORS = [1.0, 2.0**-107] + [0.0] * 6 + [2.0**-53] + [0.0] * 7


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, st.tuples(st.sampled_from([16, 32]), st.sampled_from(FSUM_COLUMNS)),
              elements=FSUM_TERMS),
       st.booleans())
@example(one_column_among_ones(LOST_IN_THE_ERRORS), False)
@example(one_column_among_ones([1.0, 2.0**-53, 2.0**-105] + [0.0] * 13), False)
# fsum's partial sums overflow in these two, where the tree's do not
@example(one_column_among_ones([1e308, 1e308, 1.0] + [0.0] * 5 + [-1e308, -1e308] + [0.0] * 6), False)
@example(one_column_among_ones([math.inf, 1e308, 1e308] + [0.0] * 13), False)
@example(one_column_among_ones([math.inf, -math.inf] + [0.0] * 14), False)
@example(one_column_among_ones([math.nan] + [0.0] * 15), False)
def test_fsum_columns_is_fsum_of_each_column(x, cancel):
    if cancel:  # the second half undoes the first but for a small rest
        half = len(x) // 2
        with np.errstate(all="ignore"):
            x = np.concatenate((x[:half], x[half:] * 2.0**-60 - x[:half][::-1]))
    assert_fsum_columns_is_fsum(x)


def test_fsum_columns_sends_a_sum_near_a_tie_to_fsum(monkeypatch):
    # 1 + 2**-53 is a tie; the exact sum lies 2**-105 above it, closer
    # than the slack of the errors' sum, so the rounding test cannot
    # decide, and fsum rounds it up
    x = one_column_among_ones([1.0, 2.0**-53, 2.0**-105] + [0.0] * 13)
    real_fsum, fsum_calls = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda col: fsum_calls.append(col) or real_fsum(col))
    assert numerics.fsum_columns(x).tolist() == [1.0 + 2.0**-52] + [16.0] * (x.shape[1] - 1)
    assert fsum_calls == [x[:, 0].tolist()]


# ---------------------------------------------------------------------------
# gauss_legendre, the one Gauss-Legendre evaluator
# ---------------------------------------------------------------------------

def gauss_legendre_on_one_interval(fn, a, b, n):
    """The n-point estimate of the integral of fn over [a, b] as a
    single-interval evaluator computed it: the rule on a 1-D node array,
    the weighted values reduced by one fsum."""
    nodes, weights = (np.array(v) for v in numerics.gl_rule(n))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(fn(mid + half * nodes), dtype=float)
    return half * math.fsum((weights * vals).tolist())


@st.composite
def cells_of_a_batch(draw):
    """(a, b, F_k, m_k) of 1 to 81 cells."""
    count = draw(st.integers(min_value=1, max_value=max(FSUM_COLUMNS)))
    out = []
    for _ in range(count):
        a = draw(st.floats(min_value=1e-14, max_value=0.99))
        b = draw(st.floats(min_value=a, max_value=1.0, exclude_min=True))
        out.append((a, b, draw(st.floats(min_value=0.0, max_value=2.0)), draw(st.floats(min_value=0.0, max_value=1.0))))
    return out


@settings(max_examples=80, deadline=None)
@given(cells_of_a_batch(), st.floats(min_value=1.01, max_value=6.0))
def test_each_estimate_of_a_batch_is_that_of_its_interval_alone(cells, p):
    a, b, f, m = (np.array(col) for col in zip(*cells))
    batched = [numerics.gauss_legendre(scalar_module._integrand(f, m, a, p), a, b, rule) for rule in (16, 32)]
    for k, (a_k, b_k, f_k, m_k) in enumerate(cells):
        fn = scalar_module._integrand(f_k, m_k, a_k, p)
        alone = [numerics.gauss_legendre(fn, [a_k], [b_k], rule).item().hex() for rule in (16, 32)]
        literal = [gauss_legendre_on_one_interval(fn, a_k, b_k, rule).hex() for rule in (16, 32)]
        on_floats = [scalar_module._rule_on_floats(f_k, m_k, a_k, p, a_k, b_k, rule) for rule in (16, 32)]
        assert [v[k].item().hex() for v in batched] == alone == literal
        # libm's pow against numpy's: an ulp per node at most
        assert all(math.isclose(x, float.fromhex(y), rel_tol=1e-14, abs_tol=1e-300) for x, y in zip(on_floats, alone))


@pytest.mark.parametrize("a, b, max_subdivisions, splits, converged", [
    (0.2, 1.0, 60, range(1), True),                 # accepted at once
    (1e-9, 0.5, 60, range(4, 60), True),            # bisected to the tol
    (1e-9, 0.5, 3, range(3, 4), False),             # the budget runs out
    (1e-9, 0.5, 0, range(1), False),
])
def test_adaptive_integral_makes_two_rule_pair_calls_per_split(a, b, max_subdivisions, splits, converged):
    # (1e-9/t)**2, the integrand of the cell after a tiny first cell of mass
    fn, calls = scalar_module._integrand(1e-9, 0.0, 1e-9, 2.0), []

    def rules(x, y):
        calls.append((x, y))
        return tuple(numerics.gauss_legendre(fn, [x], [y], rule).item() for rule in (16, 32))

    out = numerics.adaptive_integral(rules, a, b, DEFAULT_TOL, max_subdivisions)
    assert out.converged is converged
    assert out.subdivisions in splits
    assert len(calls) == 1 + 2 * out.subdivisions and calls[0] == (a, b)


def test_an_interval_whose_rules_agree_is_the_doubling_estimate():
    # one interval, accepted at once: the fine rule, and the two rules'
    # difference plus 4 EPS of the fine one as its error
    coarse, fine = 1.0, 1.0 + 2.0**-40
    for tol, converged in ((1e-10, True), (1e-13, False)):  # no split allowed
        out = numerics.adaptive_integral(lambda a, b: (coarse, fine), 0.0, 1.0, tol, 0)
        assert (out.value, out.error_bound, out.converged) == (fine, (fine - coarse) + 4 * numerics.EPS * fine,
                                                               converged)
