"""Every reference of mp_oracles.py held to a value known in closed form
(exact values to 40 digits), to tanh-sinh quadrature where the cell
integrals have none, and to the acceptance suite's frozen constants."""

from __future__ import annotations

import mpmath as mp
import pytest

import mp_oracles as oracles
from cesaro_lab import Partition, SpaceSpec, StepFunction, SumElement, TaggedVector
from cesaro_lab import suite as acs


def assert_close(reference, known):
    with mp.workdps(oracles.DPS):
        assert abs(reference - known) <= mp.mpf(10) ** -40 * abs(known)


def test_the_sequence_and_sum_norms_are_the_zeta_closed_forms():
    with mp.workdps(oracles.DPS):  # zeta(2) = pi**2/6; 1 + sum_{n>=2} (2/n)**2 = 4 zeta(2) - 3
        e1, ones = mp.pi / mp.sqrt(6), mp.sqrt(4 * mp.pi ** 2 / 6 - 3)
        e1_by_5, e1_by_7 = 5 * e1, 7 * e1
    assert_close(oracles.seq_norm([(1, 1.0)], 2.0), e1)
    assert_close(oracles.seq_norm([(1, 1.0), (2, -1.0)], 2.0), ones)
    assert acs.SQRT_ZETA2 == float(oracles.seq_norm([(1, 1.0)], 2.0))
    assert acs.SEQ_11_NORM == float(oracles.seq_norm([(1, 1.0), (2, 1.0)], 2.0))
    component = ((1, TaggedVector((1, 2), (3.0, -4.0))),)  # l2 norm 5, l1 norm 7
    assert_close(oracles.sum_norm(SumElement(2.0, component, SpaceSpec.lp(2.0))), e1_by_5)
    assert_close(oracles.sum_norm(SumElement(2.0, component, SpaceSpec.finite_l1(2))), e1_by_7)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_a_constant_function_has_norm_one(p):
    for bps in ((0.0, 1.0), (0.0, 0.5, 1.0)):
        h = StepFunction(Partition(bps), (1.0,) * (len(bps) - 1))
        assert_close(oracles.ces_fun_norm(h, p), 1)
        assert_close(oracles.lebesgue(h, p), 1)


def test_the_half_indicator_has_its_closed_form_norms():
    h = StepFunction.indicator(0.0, 0.5)
    with mp.workdps(oracles.DPS):  # int_0^{1/2} log(1/s) ds; 1/2 + int_{1/2}^1 (2t)**-2 dt = 3/4
        weighted, ces2, lebesgue2 = (1 + mp.log(2)) / 2, mp.sqrt(3) / 2, 1 / mp.sqrt(2)
    assert_close(oracles.weighted_l1(h), weighted)
    assert_close(oracles.ces_fun_norm(h, 1.0), weighted)
    assert_close(oracles.ces_fun_norm(h, 2.0), ces2)
    assert_close(oracles.lebesgue(h, 2.0), lebesgue2)


def test_closed_form_norm_matches_mpmath_quadrature():
    # the cell integral's three branches (series, v and s forms) against tanh-sinh
    cases = [(StepFunction(Partition((0.0, 0.3, 0.30001, 1.0)), (1.0, 1e6, 1.0)), 1.5),
             (StepFunction(Partition((0.0, 0.5, 0.7, 1.0)), (1e6, 1.0, 1e6)), 6.0),
             (StepFunction(Partition((0.0, 0.2, 0.6, 1.0)), (3.0, 1.0, 2.0)), 1.01),
             (StepFunction(Partition((0.0, 0.2, 0.6, 1.0)), (0.0, 1.0, 5.0)), 3.0)]
    for h, p in cases:
        with mp.workdps(45):
            bps, mags = h.partition.breakpoints, [abs(mp.mpf(v)) for v in h.values]
            total, F = mags[0] ** p * bps[1], mags[0] * bps[1]
            for k in range(1, len(mags)):
                total += mp.quad(lambda t, F=F, k=k: ((F + mags[k] * (t - bps[k])) / t) ** p,
                                 [bps[k], bps[k + 1]])
                F += mags[k] * (mp.mpf(bps[k + 1]) - bps[k])
            quad = total ** (mp.mpf(1) / p)
            assert abs(oracles.ces_fun_norm(h, p) - quad) <= mp.mpf(10) ** -40 * quad


def test_the_modulus_and_the_eta_recipes_match_the_frozen_constants():
    eta33 = oracles.eta33(2.0, 2.0, 0.5, 1.0, 1.0, 1.0, 0.5)  # tau = t0 = 1/2, M = R = lambda = 1
    eta34 = oracles.eta34(2.0, 2.0, 4.0, 1.0, 1.0, 1.0, 1.0, 0.25)  # r = 4, eps = K = M = R = 1, tau = 1/4
    with mp.workdps(oracles.DPS):
        assert_close(oracles.lp_modulus(2.0, 1.0, 1.0), mp.sqrt(2) - 1)
        assert_close(oracles.lp_modulus(2.0, 0.5, 1.0), mp.sqrt(5) / 2 - 1)
        assert_close(oracles.theta(0.5, 1.0), mp.log(2))
        assert_close(eta33["theta"], 1)
        assert_close(eta34["Q"], mp.mpf(9) / 256)
        assert_close(eta34["t0"], mp.mpf(503) / 512)
        assert_close(eta34["theta"], mp.mpf(9) / 503)
        assert acs.SQRT2_MINUS_1 == float(mp.sqrt(2) - 1)
        assert acs.W33_ORACLE == float(mp.sqrt(5) / 2 - 1)
        assert acs.SQRT_HALF == float(1 / mp.sqrt(2))
    assert abs(acs.ETA33_ORACLE - float(eta33["eta"])) <= 1e-19
    assert abs(acs.THETA34_ORACLE - float(eta34["theta"])) <= 1e-18
    assert abs(acs.ETA34_ORACLE - float(eta34["eta"])) <= 1e-24
