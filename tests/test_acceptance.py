"""Acceptance gate: all fourteen criteria at their stated tolerances.

Each criterion runs through the seeded battery in cesaro_lab.suite and
prints one PASS/FAIL line (visible with ``pytest -s``; under ``-v`` the
per-test result line carries the same information).  The frozen oracle
constants used by the battery are independently recomputed here with
mpmath at 50 digits before anything else is trusted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import cesaro_lab
from cesaro_lab import suite as acs
from cesaro_lab.cli import main as cli_main
from cesaro_lab.numerics import EPS

mp.mp.dps = 50

SEED = 42


@pytest.fixture(scope="module")
def report():
    return acs.run_suite(SEED)


def _criterion(report, cid: int) -> dict:
    entry = next(e for e in report["criteria"] if e["id"] == cid)
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"{status} criterion {cid:2d}: {entry['name']}  {entry['details']}")
    return entry


def test_frozen_constants_match_extended_precision_oracles():
    assert acs.SQRT_ZETA2 == float(mp.sqrt(mp.zeta(2)))
    assert acs.SEQ_11_NORM == float(mp.sqrt(4 * mp.zeta(2) - 3))
    assert acs.SQRT2_MINUS_1 == float(mp.sqrt(2) - 1)
    assert acs.W33_ORACLE == float(mp.sqrt(5) / 2 - 1)
    assert acs.SQRT_HALF == float(1 / mp.sqrt(2))

    # level-set chain at (p=2, tau=1/2, M=R=1, lambda=1, t0=1/2)
    p, tau, M, R = map(mp.mpf, (2, 0.5, 1, 1))
    w = mp.sqrt(M ** 2 + tau ** 2) - M
    theta = (mp.mpf(0.5) ** (1 - p) - 1) / (p - 1)
    cap = 2 ** (1 - 1 / p) * (3 * R + 1)
    nu = min((w ** p * theta / 2) ** (1 / p), cap)
    omega = cap - (cap ** p - nu ** p) ** (1 / p)
    assert abs(acs.ETA33_ORACLE - float(min(omega, 1))) <= 1e-19

    # integrability chain at (p=2, r=4, eps=K=M=R=1, tau=1/4)
    r, eps, K = map(mp.mpf, (4, 1, 1))
    q = p / (p - 1)
    s = r / p
    sp = s / (s - 1)
    Q = min((eps ** p / q ** p - (mp.mpf(1) / 4) ** p) ** sp * K ** (-p * sp), mp.mpf(1))
    t0 = 1 - Q / 2
    theta = (t0 ** (1 - p) - 1) / (p - 1)
    assert Q == mp.mpf(9) / 256
    assert t0 == mp.mpf(503) / 512
    assert abs(acs.THETA34_ORACLE - float(theta)) <= 1e-18
    w = mp.sqrt(M ** 2 + (mp.mpf(1) / 4) ** 2) - M
    nu = min((w ** p * Q ** p * theta / 2) ** (1 / p), cap)
    omega = cap - (cap ** p - nu ** p) ** (1 / p)
    assert abs(acs.ETA34_ORACLE - float(min(omega, 1))) <= 1e-24


def test_criterion_01_constant_norms(report):
    entry = _criterion(report, 1)
    assert entry["passed"]
    assert entry["details"]["worst_abs_dev"] <= 1e-10


def test_criterion_02_sequence_oracles(report):
    entry = _criterion(report, 2)
    assert entry["passed"]
    assert entry["details"]["e1_dev"] <= 1e-8
    assert entry["details"]["ones_dev"] <= 1e-8


def test_criterion_03_weighted_identity(report):
    entry = _criterion(report, 3)
    assert entry["passed"]
    assert entry["details"]["worst_dev_ratio"] <= 1.0


def test_criterion_04_hardy_comparison(report):
    entry = _criterion(report, 4)
    assert entry["passed"]
    # the near-extremal corpus comes within 8% of Hardy's constant
    assert 0.9 <= entry["details"]["worst_ratio"] <= 1.0


def test_criterion_05_isometry(report):
    entry = _criterion(report, 5)
    assert entry["passed"]
    assert entry["details"]["worst_block_dev_ratio"] <= 1.0


def test_criterion_06_monotonicity(report):
    entry = _criterion(report, 6)
    assert entry["passed"]


def test_criterion_07_splitting(report):
    entry = _criterion(report, 7)
    assert entry["passed"]
    assert entry["details"]["worst_rel_dev"] <= 1e-14


def test_criterion_08_moduli(report):
    entry = _criterion(report, 8)
    assert entry["passed"]
    assert entry["details"]["closed_form_dev"] <= 1e-12
    assert entry["details"]["gap"] <= 1e-12


def test_criterion_09_thm31(report):
    entry = _criterion(report, 9)
    assert entry["passed"]
    for key in ("r_dev", "lhs1_dev", "rhs1_dev", "lhs2_dev", "rhs2_dev"):
        assert entry["details"][key] <= 1e-8
    assert entry["details"]["worst_phi_dev_ratio"] <= 1.0


def test_criterion_10_cor32(report):
    entry = _criterion(report, 10)
    assert entry["passed"]
    assert entry["details"]["worst_gap_margin"] > 0.0


def test_criterion_11_thm33(report):
    entry = _criterion(report, 11)
    assert entry["passed"]
    assert entry["details"]["w_rel_dev"] <= 4 * EPS
    assert entry["details"]["eta_rel_dev"] <= 16 * EPS
    assert entry["details"]["worst_w_dev_ratio"] <= 1.0
    assert entry["details"]["conclusion_holds"]


def test_criterion_12_thm34(report):
    entry = _criterion(report, 12)
    assert entry["passed"]
    assert entry["details"]["Q"] == 9.0 / 256.0
    assert entry["details"]["t0"] == 503.0 / 512.0
    assert entry["details"]["theta_rel_dev"] <= 4 * EPS
    assert entry["details"]["eta_rel_dev"] <= 24 * EPS
    assert entry["details"]["worst_w_dev_ratio"] <= 1.0


def test_criterion_13_sharpness(report):
    entry = _criterion(report, 13)
    assert entry["passed"]
    assert entry["details"]["ratio"] == 2.0


def test_criterion_14_determinism(report, tmp_path):
    entry = _criterion(report, 14)
    assert entry["passed"]
    # end-to-end: two CLI suite runs with the same seed are byte-identical
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["suite", "--seed", str(SEED), "--out", str(a)]) == 0
    assert cli_main(["suite", "--seed", str(SEED), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert rep["passed"] is True


def test_whole_battery_passes(report):
    failed = [e["id"] for e in report["criteria"] if not e["passed"]]
    assert report["passed"] and not failed, f"failed criteria: {failed}"


def test_entries_carry_only_plain_values(report):
    # reports render through render_json, which knows no numpy scalar
    plain = {bool, int, float, str}
    for entry in report["criteria"]:
        assert type(entry["passed"]) is bool
        assert {type(v) for v in entry["details"].values()} <= plain, entry["id"]


# the suite's report at seed 42 on stdout, from a fresh interpreter
SUITE = "import sys; from cesaro_lab import cli; sys.exit(cli.main(['suite', '--seed', '42']))"


def test_suite_reports_do_not_depend_on_the_hash_seed():
    src = str(Path(cesaro_lab.__file__).resolve().parents[1])
    reports = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", SUITE], env=env, capture_output=True, timeout=300, check=True)
        reports.append(done.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["passed"] is True


def test_the_suite_stream_keeps_its_first_draws():
    # every suite number moves if random.Random's str seeding, randrange
    # or sample changes; CPython promises only random()'s sequence
    rng = acs._rng(42, 5)
    assert [rng.random().hex() for _ in range(8)] == [
        "0x1.fedc94ee378f2p-2", "0x1.153956335b664p-2", "0x1.64463b5d05492p-2", "0x1.504e1cfd37f69p-1",
        "0x1.123c7ae9a7c17p-1", "0x1.2b29c98a905aep-1", "0x1.1342fe2db79d3p-1", "0x1.9a133909f0f00p-4"]
    assert [rng.randrange(1, 100) for _ in range(4)] == [75, 80, 7, 85]
    assert rng.sample(range(1, 31), 4) == [6, 10, 16, 14]
