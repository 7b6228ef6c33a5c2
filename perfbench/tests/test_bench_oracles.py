"""The benchmark's oracles, pinned to values known in closed form and
to direct numerical integration."""

from __future__ import annotations

import math

import mpmath
import pytest

import oracles

ZETA2 = float(mpmath.zeta(2))


def vec(pairs):
    return {"indices": [i for i, _ in pairs], "coeffs": [c for _, c in pairs]}


def test_seq_norm_e1_is_sqrt_zeta2():
    assert oracles.seq_norm(vec([(1, 1.0)]), 2.0) == pytest.approx(math.sqrt(ZETA2), rel=1e-15)
    assert oracles.seq_norm(vec([(1, 1.0)]), 2.0) == pytest.approx(1.2825498301618641, rel=1e-15)


def test_seq_norm_ones_pair_is_sqrt_4zeta2_minus_3():
    # averages (1, 1, 2/3, 2/4, ...): 1 + 1 + 4 (zeta(2) - 1 - 1/4)
    value = oracles.seq_norm(vec([(1, 1.0), (2, 1.0)]), 2.0)
    assert value == pytest.approx(math.sqrt(4 * ZETA2 - 3), rel=1e-15)
    assert value == pytest.approx(1.892019098051842, rel=1e-15)


def test_seq_norm_with_a_gap_and_a_sign():
    # P_n = 1 for n = 1, 2 and 2 from n = 3 on
    expect = math.sqrt(1 + 1 / 4 + 4 * (ZETA2 - 1 - 1 / 4))
    assert oracles.seq_norm(vec([(1, 1.0), (3, -1.0)]), 2.0) == pytest.approx(expect, rel=1e-14)


def test_seq_norm_shifted_basis_and_other_p():
    assert oracles.seq_norm(vec([(2, 1.0)]), 2.0) == pytest.approx(math.sqrt(ZETA2 - 1), rel=1e-14)
    zeta3 = float(mpmath.zeta(3))
    assert oracles.seq_norm(vec([(1, 2.0)]), 3.0) == pytest.approx(2 * zeta3 ** (1 / 3), rel=1e-15)


def test_block_masses():
    v = vec([(2, 3.0), (5, -1.0)])
    assert oracles.block_masses(v, [1, 2, 4, 5, 10]) == [0.0, 1.5, 0.75, 0.8, 0.4]


def test_sum_norm_reduces_to_component_norms():
    element = {"p": 2.0, "stack": {"space": "lp", "p": 2.0},
               "components": [{"slot": 1, "vector": vec([(1, 0.6), (2, -0.8)])}]}
    assert oracles.sum_norm(element) == pytest.approx(math.sqrt(ZETA2), rel=1e-15)


def constant(cells):
    return {"breakpoints": [k / cells for k in range(cells)] + [1.0], "cells": [1.0] * cells}


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_constant_function_has_norm_one(p):
    lo, hi = oracles.step_bounds(constant(5), p)
    assert lo == hi == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("p", [1.5, 2.5])
def test_noninteger_p_brackets_the_constant(p):
    lo, hi = oracles.step_bounds(constant(3), p)
    assert lo == pytest.approx(1.0, rel=1e-15)
    assert hi == pytest.approx(p / (p - 1.0), rel=1e-15)


@pytest.mark.parametrize("a", [1e-12, 1e-6, 0.25])
def test_tiny_first_cell_closed_form(a):
    step = {"breakpoints": [0.0, a, 1.0], "cells": [0.0, 1.0]}
    lo, hi = oracles.step_bounds(step, 2.0)
    with mpmath.workdps(40):
        A = mpmath.mpf(a)
        expect = float(mpmath.sqrt(1 - 2 * A * mpmath.log(1 / A) - A * A))
    assert lo == hi == pytest.approx(expect, rel=1e-15)


def test_weighted_l1_of_a_half_indicator():
    # int_0^{1/2} log(1/s) ds = 1/2 + ln(2)/2
    step = {"breakpoints": [0.0, 0.5, 1.0], "cells": [1.0, 0.0]}
    lo, hi = oracles.step_bounds(step, 1.0)
    assert lo == hi == pytest.approx(0.5 + 0.5 * math.log(2.0), rel=1e-15)


@pytest.mark.parametrize("p", [2, 3])
def test_integer_closed_form_matches_direct_quadrature(p):
    bps = [0.0, 0.1, 0.35, 0.4, 0.8, 1.0]
    vals = [0.5, -2.0, 0.0, 1.25, 3.0]
    step = {"breakpoints": bps, "cells": vals}
    lo, hi = oracles.step_bounds(step, float(p))
    with mpmath.workdps(30):
        def avg(t, k):
            prior = mpmath.fsum(abs(v) * (b - a) for v, a, b in zip(vals[:k], bps, bps[1:k + 1]))
            return (prior + abs(vals[k]) * (t - bps[k])) / t
        total = mpmath.fsum(mpmath.quad(lambda t, k=k: avg(t, k) ** p, [bps[k], bps[k + 1]])
                            for k in range(len(vals)))
        expect = float(total ** (mpmath.mpf(1) / p))
    assert lo == hi == pytest.approx(expect, rel=1e-14)


def test_phi_on_the_common_refinement():
    family = {"profile": {"breakpoints": [0.0, 0.5, 1.0], "cells": [1.0, 0.0]},
              "space": {"space": "lp", "p": 2.0}, "block": vec([(1, 1.0)]), "offset": 1, "stride": 1}
    f = {"breakpoints": [0.0, 0.25, 1.0], "cells": [vec([]), vec([(1, 3.0), (2, 4.0)])]}
    bps, vals = oracles.phi(family, f)
    assert bps == [0.0, 0.25, 0.5, 1.0]
    assert [float(v) for v in vals] == pytest.approx([1.0, math.sqrt(26.0), 5.0], rel=1e-15)


def test_lp_modulus():
    assert oracles.lp_eta(2.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)


def test_prop21_limsups_sit_at_the_window_start():
    family = {"block": vec([(1, 1.0)]), "space": {"space": "lp", "p": 2.0}, "p": 3.0,
              "offset": 8, "stride": 1}
    x = {"p": 3.0, "stack": {"space": "lp", "p": 2.0}, "components": [{"slot": 1, "vector": vec([(2, 1.0)])}]}
    o = oracles.for_job({"kind": "prop21", "family": family, "x": x, "window": [100, 200]})
    assert o["norm"] == pytest.approx(float(mpmath.zeta(3, 108)) ** (1 / 3), rel=1e-14)
    assert o["diff"] > o["norm"]
