"""Targeted property search for the worst error/bound ratio of every
certified norm (Loscher and Sagonas, "Targeted property-based testing",
ISSTA 2017).

Each test draws inputs, measures the error of one certified output
against tests/mp_oracles.py, and steers hypothesis towards the largest
error / error_bound with ``target``; the ratio must stay at most 1.
The file name keeps it out of the default test run, as its deep runs
take minutes.  Run it with the deep profile, and read the highest ratio
that each label reached from the statistics:

    HYPOTHESIS_PROFILE=deep PYTHONPATH=src python -m pytest -q \\
        tests/worst_ratio.py --hypothesis-show-statistics

The function norm misses its bound after a tiny first cell (ROADMAP
item 7), so its search is expected to fail until that is mended.
"""

from __future__ import annotations

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import mp_oracles as oracles
from cesaro_lab import (
    Partition,
    SpaceSpec,
    StepFunction,
    SumElement,
    TaggedVector,
    ces_fun_norm,
    ces_seq_norm,
    cesaro_sum_norm,
    lr_fun_norm,
    weighted_l1_norm,
)
from cesaro_lab.scalar import DEFAULT_TOL


def assert_within_bound(label, result, exact):
    """error / error_bound of result against exact, steered up and at most 1."""
    error = abs(mp.mpf(result.value) - exact)
    if result.error_bound:
        ratio = float(error / result.error_bound)
    else:
        ratio = 0.0 if error == 0 else math.inf
    target(min(ratio, 1e300), label=label)
    assert ratio <= 1.0, (ratio, float(error), result)


def log_uniform(lo: float, hi: float):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda x: 10.0 ** x)


exponents = st.one_of(st.floats(min_value=1.01, max_value=6.0), st.sampled_from([1.01, 1.1, 1.5, 2.0, 3.0]))
tols = st.sampled_from([DEFAULT_TOL, 1e-6, 1e-13])
signed_magnitudes = st.builds(lambda m, s: m * s, log_uniform(1e-6, 1e6), st.sampled_from([-1.0, 1.0]))


@st.composite
def vectors(draw, max_entries=8):
    """1 to 8 entries at indices up to 1e6 (runs of length 1 to 1e6),
    magnitudes from 1e-6 to 1e6."""
    indices = draw(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=max_entries, unique=True))
    coeffs = draw(st.lists(signed_magnitudes, min_size=len(indices), max_size=len(indices)))
    return TaggedVector.from_pairs(zip(sorted(indices), coeffs))


@st.composite
def step_functions(draw):
    """1 to 12 cells: a first cell from 1e-12 to 1/2 (log-uniform), the
    other breakpoints uniform beyond it, and values that are exact zeros
    or of magnitude 1e-3 to 1e3."""
    first = draw(log_uniform(1e-12, 0.5))
    rest = draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True), max_size=10))
    part = Partition((0.0, first, *sorted({t for t in rest if t > first}), 1.0))
    values = draw(st.lists(st.one_of(st.just(0.0), log_uniform(1e-3, 1e3)),
                           min_size=part.cell_count, max_size=part.cell_count))
    return StepFunction(part, tuple(values))


@settings(deadline=None)
@given(vectors(), exponents, tols)
def test_ces_seq_norm_stays_within_its_bound(v, p, tol):
    assert_within_bound("ces_seq_norm", ces_seq_norm(v, p, tol), oracles.seq_norm(zip(v.indices, v.coeffs), p))


# up to 6 components of up to 4 entries at distinct slots up to 1e6
sum_components = st.lists(vectors(max_entries=4), min_size=1, max_size=6)
sum_slots = st.lists(st.integers(1, 10**6), min_size=6, max_size=6, unique=True)
stacks = st.sampled_from([SpaceSpec.lp(2.0), SpaceSpec.lp(1.5), SpaceSpec.finite_l1(10**6)])


@settings(deadline=None)
@given(sum_components, sum_slots, exponents, stacks, tols)
def test_cesaro_sum_norm_stays_within_its_bound(components, slots, p, stack, tol):
    x = SumElement(p, tuple(zip(sorted(slots), components)), stack)
    assert_within_bound("cesaro_sum_norm", cesaro_sum_norm(x, tol), oracles.sum_norm(x))


@pytest.mark.xfail(strict=True, reason="bound missed after a tiny first cell: ROADMAP item 7, FOUND in CHANGES.md")
@settings(deadline=None)
@given(step_functions(), exponents, tols)
def test_ces_fun_norm_stays_within_its_bound(h, p, tol):
    assert_within_bound("ces_fun_norm", ces_fun_norm(h, p, tol), oracles.ces_fun_norm(h, p))


@settings(deadline=None)
@given(step_functions())
def test_weighted_l1_norm_stays_within_its_bound(h):
    assert_within_bound("weighted_l1_norm", weighted_l1_norm(h), oracles.weighted_l1(h))


@settings(deadline=None)
@given(step_functions(), st.one_of(st.floats(min_value=1.0, max_value=8.0), st.sampled_from([1.0, 2.0, 3.0])))
def test_lr_fun_norm_stays_within_its_bound(h, r):
    assert_within_bound("lr_fun_norm", lr_fun_norm(h, r), oracles.lebesgue(h, r))
