"""Command-line front end: reports, exit codes, plot data."""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath as mp

from cesaro_lab import cli, numerics
from cesaro_lab.cli import COMMANDS, OPTIONS, main
from cesaro_lab.schemas import render_json


def write(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def run(args) -> int:
    return main(args)


def test_norm_seq_report(tmp_path):
    inp = write(tmp_path / "v.json", {"indices": [1], "coeffs": [1.0]})
    out = tmp_path / "report.json"
    assert run(["norm-seq", inp, "--p", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == "cesaro-lab-report/7"
    assert abs(rep["outputs"]["norm"]["value"] - 1.2825498301618641) <= 1e-8
    assert rep["inputs"]["p"] == 2.0


def test_norm_fun_report(tmp_path):
    inp = write(tmp_path / "h.json", {"breakpoints": [0, 1], "cells": [1.0]})
    out = tmp_path / "report.json"
    assert run(["norm-fun", inp, "--p", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["outputs"]["norm"]["value"] - 1.0) <= 1e-10
    assert rep["outputs"]["norm"]["error_bound"] <= 1e-10


def test_norm_vfun_and_sum(tmp_path):
    inp = write(
        tmp_path / "f.json",
        {
            "function": {"breakpoints": [0, 1], "cells": [{"indices": [1], "coeffs": [1.0]}]},
            "space": {"space": "lp", "p": 2},
        },
    )
    out = tmp_path / "r.json"
    assert run(["norm-vfun", inp, "--p", "2", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["outputs"]["norm"]["value"] - 1.0) <= 1e-10

    sum_inp = write(
        tmp_path / "x.json",
        {
            "p": 2,
            "components": [{"slot": 1, "vector": {"indices": [1], "coeffs": [1.0]}}],
            "stack": {"space": "lp", "p": 2},
        },
    )
    assert run(["sum-norm", sum_inp, "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["outputs"]["norm"]["value"] - 1.2825498301618641) <= 1e-8


def test_embed_check_and_modulus(tmp_path):
    inp = write(tmp_path / "v.json", {"indices": [1, 2], "coeffs": [1.0, 1.0]})
    out = tmp_path / "r.json"
    assert run(["embed-check", inp, "--p", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True

    space = write(tmp_path / "s.json", {"space": "lp", "p": 2})
    assert run(["modulus", space, "--eps", "1", "--R", "1", "--tau", "1.0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["outputs"]["eta"] - 0.41421356237309503) <= 1e-12
    assert abs(rep["outputs"]["r_modulus"] - 0.41421356237309503) <= 1e-12

    schur = write(tmp_path / "l1.json", {"space": "lp", "p": 1})
    assert run(["modulus", schur, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outputs"]["eta"] == "schur"


def family_payload():
    return {
        "family": {
            "profile": {"breakpoints": [0, 1], "cells": [1.0]},
            "space": {"space": "lp", "p": 2},
            "block": {"indices": [1], "coeffs": [1.0]},
            "offset": 1,
            "stride": 1,
        },
        "f": {"breakpoints": [0, 1], "cells": [{"indices": [1], "coeffs": [1.0]}]},
    }


def test_thm_commands(tmp_path):
    inp = write(tmp_path / "fam.json", family_payload())
    out = tmp_path / "r.json"
    assert run(["thm31", inp, "--p", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert abs(rep["outputs"]["r"] - 2.0 ** -0.5) <= 1e-8

    assert run(["cor32", inp, "--p", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True

    assert run(["thm33", inp, "--p", "2", "--M", "1", "--R", "1", "--tau", "0.5", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["outputs"]["quantities"]["eta"] > 0.0

    assert run(["thm34", inp, "--p", "2", "--r", "4", "--eps", "1", "--K", "1",
                "--M", "1", "--R", "1", "--tau", "0.25", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_thm31_passes_where_the_pth_powers_of_the_norms_overflow(tmp_path):
    # the worked family scaled by 1e200: ||g||**3 is about 1e600, but the
    # ratio form needs only the norms
    payload = family_payload()
    payload["family"]["profile"]["cells"] = [1e200]
    payload["f"]["cells"] = [{"indices": [1], "coeffs": [1e200]}]
    inp = write(tmp_path / "fam.json", payload)
    out = tmp_path / "r.json"
    assert run(["thm31", inp, "--p", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert abs(rep["outputs"]["r"] - 2.0 ** -0.5) <= 1e-8


def test_prop21_command(tmp_path):
    inp = write(
        tmp_path / "p21.json",
        {
            "family": {
                "block": {"indices": [1], "coeffs": [1.0]},
                "space": {"space": "lp", "p": 2},
                "p": 2,
                "offset": 1,
                "stride": 1,
            },
            "x": {
                "p": 2,
                "components": [{"slot": 1, "vector": {"indices": [1], "coeffs": [1.0]}}],
                "stack": {"space": "lp", "p": 2},
            },
        },
    )
    out = tmp_path / "r.json"
    assert run(["prop21", inp, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["outputs"]["mode"] == "windowed"


def test_sharpness_command(tmp_path):
    out = tmp_path / "r.json"
    assert run(["sharpness", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["outputs"]["quantities"]["ratio"] == 2.0


def test_schema_violations_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["norm-seq", str(bad)]) == 2
    wrong = write(tmp_path / "wrong.json", {"breakpoints": [0, 0.5], "cells": [1.0]})
    assert run(["norm-fun", wrong]) == 2
    assert run(["norm-seq", str(tmp_path / "missing.json")]) == 2


def test_huge_coefficient_is_scaled_not_a_traceback(tmp_path, capsys):
    # 1e308 * sqrt(zeta(2)) is still a double: computed on scaled prefixes
    inp = write(tmp_path / "big.json", {"indices": [1], "coeffs": [1e308]})
    out = tmp_path / "r.json"
    assert run(["norm-seq", inp, "--p", "2", "--out", str(out)]) == 0
    norm = json.loads(out.read_text())["outputs"]["norm"]
    assert abs(norm["value"] - 1.2825498301618641e308) <= norm["error_bound"]
    # an absolute tol of 1e-10 is below the rounding of a 1e308 norm
    assert norm["warning"] is not None
    # at p = 1.1 the norm itself, about 8.6e308, exceeds the float range
    assert run(["norm-seq", inp, "--p", "1.1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "float range" in err and "Traceback" not in err


def test_out_of_range_step_functions_are_scaled_not_a_traceback(tmp_path, capsys):
    # a constant c has norm c at every p
    out = tmp_path / "r.json"
    cases = [({"breakpoints": [0, 0.5, 1], "cells": [1e308, 1e308]}, "2"),
             ({"breakpoints": [0, 0.5, 1], "cells": [1e308, 1e308]}, "1"),
             ({"breakpoints": [0, 1e-300, 1], "cells": [1e-300, 1e-300]}, "3")]
    for payload, p in cases:
        inp = write(tmp_path / "h.json", payload)
        assert run(["norm-fun", inp, "--p", p, "--out", str(out)]) == 0
        norm = json.loads(out.read_text())["outputs"]["norm"]
        c = payload["cells"][0]
        assert abs(norm["value"] - c) <= norm["error_bound"] <= 1e-13 * c
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["norm-fun", "norm-seq"])
@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf"])
def test_unusable_tol_exits_2(tmp_path, capsys, command, tol):
    payload = {"breakpoints": [0, 1], "cells": [1.0]} if command == "norm-fun" else {"indices": [1], "coeffs": [1.0]}
    inp = write(tmp_path / "in.json", payload)
    assert run([command, inp, f"--tol={tol}"]) == 2
    err = capsys.readouterr().err
    assert "tol must be positive and finite" in err and "Traceback" not in err


def test_non_integral_indices_and_slots_exit_2(tmp_path, capsys):
    vec = write(tmp_path / "v.json", {"indices": [1.5], "coeffs": [1.0]})
    assert run(["norm-seq", vec]) == 2
    elem = write(tmp_path / "x.json", {"p": 2, "components": [
        {"slot": "a", "vector": {"indices": [1], "coeffs": [1.0]}}]})
    assert run(["sum-norm", elem]) == 2
    err = capsys.readouterr().err
    assert "vector index must be an integer" in err
    assert "component slot must be an integer" in err
    assert "Traceback" not in err
    # an integral float is still an index
    ok = write(tmp_path / "ok.json", {"indices": [1.0], "coeffs": [1.0]})
    assert run(["norm-seq", ok, "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("components", [None, 5])
@pytest.mark.parametrize("command", ["sum-norm", "embed-check", "prop21"])
def test_sum_components_that_are_not_an_array_exit_2(tmp_path, capsys, command, components):
    x = {"p": 2, "components": components}
    if command == "prop21":
        x = {"family": {"block": {"indices": [1], "coeffs": [1.0]}, "space": {"space": "lp", "p": 2}, "p": 2,
                        "offset": 1, "stride": 1}, "x": x}
    assert run([command, write(tmp_path / "x.json", x)]) == 2
    err = capsys.readouterr().err
    assert "sum components must be an array" in err and "Traceback" not in err


def test_indices_and_slots_past_2_53_exit_2(tmp_path, capsys):
    # past 2**53 floats skip integers, and 10**400 is past the float range
    for huge in (10**400, 2**53 + 1, 1e300):
        vec = write(tmp_path / "v.json", {"indices": [1, huge], "coeffs": [1.0, 1.0]})
        assert run(["norm-seq", vec]) == 2
        assert run(["embed-check", vec]) == 2
    elem = write(tmp_path / "x.json", {"p": 2, "components": [
        {"slot": 10**400, "vector": {"indices": [1], "coeffs": [1.0]}}]})
    assert run(["sum-norm", elem]) == 2
    # the window's terms would sit in slots past 2**53
    x = {"p": 2, "components": [{"slot": 1, "vector": {"indices": [1], "coeffs": [1.0]}}]}
    fam = write(tmp_path / "p21.json", {"family": {"block": {"indices": [1], "coeffs": [1.0]},
                                                   "space": {"space": "lp", "p": 2}, "p": 2,
                                                   "offset": 2**53 - 150, "stride": 1}, "x": x})
    assert run(["prop21", fam]) == 2
    # an integer past the interpreter's digit limit is not JSON it reads
    (tmp_path / "long.json").write_text('{"indices": [1%s], "coeffs": [1.0]}' % ("0" * 5000))
    assert run(["norm-seq", str(tmp_path / "long.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("indices must be at most 2**53") == 6
    assert "slots must be at most 2**53" in err and "last slot exceeds 2**53" in err
    assert "invalid JSON" in err and "Traceback" not in err
    # 2**53 itself is an index
    top = write(tmp_path / "top.json", {"indices": [1, 2**53], "coeffs": [1.0, 1.0]})
    assert run(["norm-seq", top, "--out", str(tmp_path / "r.json")]) == 0


def test_non_numeric_coefficients_and_offsets_exit_2(tmp_path, capsys):
    for coeffs in (["2", 1.0], [1.0, True], [None, 1.0]):
        vec = write(tmp_path / "v.json", {"indices": [1, 2], "coeffs": coeffs})
        assert run(["norm-seq", vec]) == 2
    payload = family_payload()
    payload["family"]["offset"] = 1.5
    fam = write(tmp_path / "fam.json", payload)
    assert run(["thm31", fam]) == 2
    err = capsys.readouterr().err
    assert err.count("vector coefficient must be a number") == 3
    assert "family offset must be an integer" in err
    assert "Traceback" not in err


def test_modulus_keeps_the_canonical_witness_at_a_rounding_eps(tmp_path):
    # (eps**1.5)**(1/1.5) is one ulp below this eps; the witness eps*e_1
    # must still count, and the estimate must stay above the modulus
    space = write(tmp_path / "s.json", {"space": "lp", "p": 1.5})
    out = tmp_path / "r.json"
    assert run(["modulus", space, "--eps", "1.750091767050976", "--R", "0.6409607864969011",
                "--out", str(out)]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    assert "estimate_is_upper_bound" not in outputs  # the sign of the gap says it
    assert outputs["gap"] == outputs["empirical_estimate"] - outputs["eta"] >= 0.0


def test_modulus_estimate_stays_within_ulps_of_the_modulus_past_1e200(tmp_path):
    # the witness norms are roots of sums near 1 on scaled data; unscaled,
    # the rounded 1/p cost about ln(1e300) ulps and the estimate fell
    # hundreds of ulps below eta
    space = write(tmp_path / "s.json", {"space": "lp", "p": 1.5})
    out = tmp_path / "r.json"
    assert run(["modulus", space, "--eps", "1e200", "--R", "1e200", "--out", str(out)]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    assert abs(outputs["gap"]) <= 4 * math.ulp(outputs["eta"])


def test_suite_seed_505_ends_in_an_exit_code(tmp_path, capsys):
    # one criterion-12 draw has Q below 2**-53, so t0 = 1 - Q/2 rounds to 1
    assert run(["suite", "--seed", "505", "--out", str(tmp_path / "r.json")]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_report_bytes_ignore_the_environment(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.delenv("CESARO_LAB_THREADS", raising=False)
    assert run(["sharpness", "--out", str(a)]) == 0
    monkeypatch.setenv("CESARO_LAB_THREADS", "4")
    assert run(["sharpness", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_suite_round_trip_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["suite", "--seed", "5", "--out", str(a)]) == 0
    assert run(["suite", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert rep["passed"] is True
    assert len(rep["criteria"]) == 14


def test_plot_data_constant(tmp_path):
    inp = write(tmp_path / "h.json", {"breakpoints": [0, 1], "cells": [1.0]})
    rep_path = tmp_path / "rep.json"
    assert run(["norm-fun", inp, "--p", "2", "--out", str(rep_path)]) == 0
    csv_path = tmp_path / "plot.csv"
    assert run(["plot-data", str(rep_path), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,inner_average,integrand"
    for line in lines[1:]:
        _, avg, integrand = line.split(",")
        assert abs(float(avg) - 1.0) <= 1e-14
        assert abs(float(integrand) - 1.0) <= 1e-14


def test_plot_data_half_indicator(tmp_path):
    inp = write(tmp_path / "h.json", {"breakpoints": [0, 0.5, 1], "cells": [1.0, 0.0]})
    rep_path = tmp_path / "rep.json"
    assert run(["norm-fun", inp, "--p", "1", "--out", str(rep_path)]) == 0
    csv_path = tmp_path / "plot.csv"
    assert run(["plot-data", str(rep_path), "--out", str(csv_path)]) == 0
    for line in csv_path.read_text().strip().splitlines()[1:]:
        t, avg, _ = (float(x) for x in line.split(","))
        expected = 1.0 if t <= 0.5 else 0.5 / t
        assert abs(avg - expected) <= 1e-12


def test_plot_data_without_function_is_header_only(tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run(["sharpness", "--out", str(rep_path)]) == 0
    csv_path = tmp_path / "plot.csv"
    assert run(["plot-data", str(rep_path), "--out", str(csv_path)]) == 0
    assert csv_path.read_text().strip() == "t,inner_average,integrand"


def test_plot_data_on_a_norm_vfun_report(tmp_path):
    # cells (3, 4) and (0, 1) in l2: the pointwise-norm profile is 5 then 1
    inp = write(tmp_path / "f.json", {
        "function": {"breakpoints": [0, 0.5, 1], "cells": [
            {"indices": [1, 2], "coeffs": [3.0, 4.0]}, {"indices": [2], "coeffs": [1.0]}]},
        "space": {"space": "lp", "p": 2},
    })
    rep_path = tmp_path / "rep.json"
    assert run(["norm-vfun", inp, "--p", "2", "--out", str(rep_path)]) == 0
    csv_path = tmp_path / "plot.csv"
    assert run(["plot-data", str(rep_path), "--out", str(csv_path)]) == 0
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert rows
    for line in rows:
        t, avg, integrand = (float(x) for x in line.split(","))
        expected = 5.0 if t <= 0.5 else (2.5 + (t - 0.5)) / t
        assert abs(avg - expected) <= 1e-12
        assert abs(integrand - expected ** 2) <= 1e-11


def test_thm34_on_a_huge_f_exits_2_not_a_traceback(tmp_path, capsys):
    payload = family_payload()
    payload["f"]["cells"][0]["coeffs"] = [1e200]
    inp = write(tmp_path / "fam.json", payload)
    out = tmp_path / "r.json"
    # ||f||_r = 1e200 > K
    assert run(["thm34", inp, "--K", "1", "--out", str(out)]) == 2
    # Q = (3/16) / K**2 is below the float range
    assert run(["thm34", inp, "--K", "1e201", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "exceeds K" in err and "Q underflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["thm31", "cor32", "thm33", "thm34"])
def test_a_scalar_f_exits_2_in_every_theorem_command(tmp_path, capsys, command):
    payload = family_payload()
    payload["f"] = {"breakpoints": [0, 1], "cells": [1.0]}
    inp = write(tmp_path / "fam.json", payload)
    assert run([command, inp, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "f must be a vector-mode step function" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("r, eps", [("4", "1e200"), ("4", "1e150"), ("inf", "1e150")])
def test_thm34_on_a_huge_f_computes_every_representable_q(tmp_path, r, eps):
    # eps**p and K**-p leave the float range, Q does not: it is
    # homogeneous of degree 0 in (eps, tau, K), tau = eps / (2q) by default
    payload = family_payload()
    payload["f"]["cells"][0]["coeffs"] = [1e200]
    inp = write(tmp_path / "fam.json", payload)
    out = tmp_path / "r.json"
    assert run(["thm34", inp, "--r", r, "--eps", eps, "--K", "1e201", "--out", str(out)]) in (0, 1)
    Q = json.loads(out.read_text())["outputs"]["quantities"]["Q"]
    with mp.workdps(40):
        p, q, E, K = mp.mpf(2), mp.mpf(2), mp.mpf(eps), mp.mpf("1e201")
        s_prime = 1 if r == "inf" else (mp.mpf(r) / p) / (mp.mpf(r) / p - 1)
        exact = ((E ** p / q ** p - (E / (2 * q)) ** p) / K ** p) ** s_prime
        assert 0.0 < Q and abs(Q - exact) <= 8 * numerics.EPS * exact


def test_modulus_scales_past_the_float_range(tmp_path):
    inp = write(tmp_path / "lp2.json", {"space": "lp", "p": 2})
    out = tmp_path / "r.json"
    assert run(["modulus", inp, "--eps", "1e200", "--R", "1e200", "--out", str(out)]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    assert outputs["eta"] == 4.1421356237309499e+199
    assert math.isfinite(outputs["empirical_estimate"])
    assert outputs["empirical_estimate"] >= outputs["eta"] * (1.0 - 1e-12)


@pytest.mark.parametrize("command, flag, value", [
    ("thm33", "--M", "nan"), ("thm33", "--R", "nan"), ("thm33", "--M", "inf"), ("thm34", "--tau", "nan"),
])
def test_recipe_inputs_that_are_not_positive_and_finite_exit_2(tmp_path, capsys, command, flag, value):
    inp = write(tmp_path / "fam.json", family_payload())
    assert run([command, inp, flag, value, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"{flag[2:]} must be positive and finite, got {value}" in err
    assert "Traceback" not in err


def test_plot_data_outside_the_float_range_exits_2(tmp_path, capsys):
    # the norm is computed on scaled magnitudes, but the integrand itself,
    # about (1e300)**3, is no float: exit 2, not rows of inf
    inp = write(tmp_path / "h.json", {"breakpoints": [0, 0.5, 1], "cells": [1e300, 2e300]})
    rep_path = tmp_path / "rep.json"
    assert run(["norm-fun", inp, "--p", "3", "--out", str(rep_path)]) == 0
    csv_path = tmp_path / "plot.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["plot-data", str(rep_path), "--out", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert "leaves the float range" in err and "Traceback" not in err
    assert not csv_path.exists()


def test_plot_data_takes_p_from_the_report(tmp_path, capsys):
    inp = write(tmp_path / "h.json", {"breakpoints": [0, 1], "cells": [1.0]})
    rep_path = tmp_path / "rep.json"
    assert run(["norm-fun", inp, "--p", "2", "--out", str(rep_path)]) == 0
    for flag in ("--p", "--tol"):
        assert run(["plot-data", str(rep_path), flag, "3"]) == 2
    report = json.loads(rep_path.read_text())
    for p in ("abc", True):
        report["inputs"]["p"] = p
        assert run(["plot-data", write(tmp_path / "bad_p.json", report)]) == 2
    del report["inputs"]["p"]
    no_p = write(tmp_path / "no_p.json", report)
    assert run(["plot-data", no_p, "--out", str(tmp_path / "plot.csv")]) == 2
    report["inputs"] = "function"
    assert run(["plot-data", write(tmp_path / "bad_inputs.json", report)]) == 2
    err = capsys.readouterr().err
    assert err.count("unrecognized arguments") == 2
    assert err.count("the report's p must be a number") == 2
    assert "a function but no p" in err and "inputs must be an object" in err
    assert "Traceback" not in err


def test_an_unwritable_report_path_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "r.json")
    assert run(["sharpness", "--out", missing]) == 2
    rep = tmp_path / "rep.json"
    assert run(["sharpness", "--out", str(rep)]) == 0
    assert run(["plot-data", str(rep), "--out", missing]) == 2
    err = capsys.readouterr().err
    assert err.count("cannot write report") == 2 and "Traceback" not in err


def test_negative_suite_seed_exits_2(tmp_path, capsys):
    assert run(["suite", "--seed=-1", "--out", str(tmp_path / "r.json")]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the option table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_exactly_the_table_flags(command, capsys):
    assert run([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[A-Za-z]+", capsys.readouterr().out))
    assert listed == {"--help", *COMMANDS[command][2]}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_flag_the_command_does_not_take_exits_2(command, tmp_path, capsys):
    foreign = sorted(set(OPTIONS) - set(COMMANDS[command][2]))[0]
    args = [command]
    if COMMANDS[command][1]:
        args.append(write(tmp_path / "in.json", {}))
    assert run([*args, foreign, "1"]) == 2
    assert f"unrecognized arguments: {foreign}" in capsys.readouterr().err


def test_usage_errors_return_2_with_the_message(capsys):
    assert run([]) == 2
    assert "required" in capsys.readouterr().err
    assert run(["norm-seq"]) == 2
    assert "the following arguments are required: input" in capsys.readouterr().err
    assert run(["no-such-command"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(["suite", "--seed", "x"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("cesaro-lab ")


def test_the_parser_is_built_once_per_command_per_process(monkeypatch, tmp_path, capsys):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: builds.append(command) or real(command))
    cli._parser.cache_clear()
    e1 = write(tmp_path / "e1.json", {"indices": [1], "coeffs": [1.0]})
    try:
        for name in ("a", "b"):
            assert run(["sharpness", "--out", str(tmp_path / f"{name}.json")]) == 0
            assert run(["norm-seq", e1, "--out", str(tmp_path / f"{name}-seq.json")]) == 0
            assert run(["--version"]) == 0
            assert run(["no-such-command"]) == 2
    finally:
        cli._parser.cache_clear()
    # a command line that starts with a command builds that command's
    # parser alone; any other builds the full parser
    assert builds == ["sharpness", "norm-seq", None]


def full_parser_output(argv) -> tuple:
    """(exit code, stdout, stderr) of the full 14-command parser on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.build_parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main_output(argv, capsys) -> tuple:
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_reads_its_command_line_as_the_full_parser_does(command, tmp_path, capsys):
    # the help text, a missing input, a flag the command does not take
    # (the top-level usage lists every command), an extra argument and a
    # malformed value: byte-identical to the full parser's output
    foreign = sorted(set(OPTIONS) - set(COMMANDS[command][2]))[0]
    argvs = [[command, "--help"], [command, foreign, "1"], [command, "x", "y", "z"], [command, "--version"]]
    if COMMANDS[command][1] is not None:
        argvs.append([command])
    argvs += [[command, "x", flag, "not-a-number"] for flag in COMMANDS[command][2]
              if OPTIONS[flag].get("type") in (int, float)]
    for argv in argvs:
        code, out, err = full_parser_output(argv)
        assert code is not None, argv  # each is a help or usage exit, before any dispatch
        assert main_output(argv, capsys) == (code, out, err), argv
    help_code, help_text, _ = full_parser_output([command, "--help"])
    assert help_code == 0 and help_text.startswith(f"usage: cesaro-lab {command} [-h]")


def test_the_top_level_help_lists_every_command(capsys):
    code, out, _ = main_output(["--help"], capsys)
    assert code == 0
    assert (code, out, "") == full_parser_output(["--help"])
    listed = re.findall(r"^    (\S+)\s", out, flags=re.MULTILINE)
    assert listed == list(COMMANDS)


# ---------------------------------------------------------------------------
# reports re-run from their own inputs
# ---------------------------------------------------------------------------

def benchmark_cli_jobs() -> list[dict]:
    """The cli-suite warm-ups and the first job of every command of seed
    1, from the benchmark's input generator (standard library only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    firsts = {}
    for job in inputs.jobs("cli-suite", 1):
        firsts.setdefault(job["command"], job)
    return inputs.warmup_jobs("cli-suite") + list(firsts.values())


def rerun_argv(report: dict, folder) -> list[str]:
    """The command line of a report, rebuilt from its inputs alone: every
    option the command takes from the key named after it, the input file
    from the rest."""
    command = report["command"]
    inputs = dict(report["inputs"])
    _, echo, options = COMMANDS[command]
    argv = [command]
    for flag in options:
        if flag in ("--out", "--format"):
            continue
        value = inputs.pop(flag[2:])  # every option is echoed, the defaults included
        if value is not None:
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    if echo == cli.BUNDLE:
        payload, inputs = inputs, {}
    elif echo is not None:
        payload = inputs.pop(echo)
    if echo is not None:
        argv.insert(1, write(folder / f"{command}-again.json", payload))
    assert not inputs, f"{command}: inputs no option or payload accounts for: {sorted(inputs)}"
    return argv


def test_every_report_reruns_from_its_own_inputs_to_identical_bytes(tmp_path):
    commands = set()
    for job in benchmark_cli_jobs():
        if job["command"] in ("suite", "plot-data"):  # suite reads no input, plot-data writes no report
            continue
        args = [job["command"], *job["args"]]
        if "input" in job:
            args.insert(1, write(tmp_path / f"{job['id']}.json", job["input"]))
        first = tmp_path / f"{job['id']}.out"
        assert run([*args, "--out", str(first)]) == 0, job["id"]
        again = tmp_path / f"{job['id']}-again.out"
        assert run([*rerun_argv(json.loads(first.read_text()), tmp_path), "--out", str(again)]) == 0, job["id"]
        assert again.read_bytes() == first.read_bytes(), job["id"]
        commands.add(job["command"])
    assert commands == set(COMMANDS) - {"suite", "plot-data"}


def test_every_csv_report_reads_back_as_key_value_rows(tmp_path):
    commands = set()
    for job in benchmark_cli_jobs():
        if job["command"] == "plot-data":  # writes its own three-column CSV
            continue
        args = [job["command"], *job["args"]]
        if "input" in job:
            args.insert(1, write(tmp_path / f"{job['id']}.json", job["input"]))
        as_json, as_csv = tmp_path / f"{job['id']}.out.json", tmp_path / f"{job['id']}.out.csv"
        assert run([*args, "--out", str(as_json)]) == run([*args, "--format", "csv", "--out", str(as_csv)])
        with open(as_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["key", "value"] and all(len(row) == 2 for row in rows), job["id"]
        report, flat = json.loads(as_json.read_text()), []
        cli._flatten(report, "", flat)
        assert [row[0] for row in rows[1:]] == [key for key, _ in flat], job["id"]
        # every value cell is spelled as the JSON report spells its scalar
        expected = [v if isinstance(v, str) else render_json(v) for _, v in flat]
        assert [row[1] for row in rows[1:]] == expected, job["id"]
        if job["command"] == "embed-check":
            notes = report["outputs"]["notes"]
            assert "," in notes and dict(rows)["outputs.notes"] == notes
        commands.add(job["command"])
    assert commands == set(COMMANDS) - {"plot-data"}


# ---------------------------------------------------------------------------
# fuzzing the norm commands: an exit code, never a traceback
# ---------------------------------------------------------------------------

option_values = st.one_of(st.floats(), st.sampled_from([0.0, -1.0, 1.0, 2.0, math.nan, math.inf]))
signed_magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-320, max_value=1e308, allow_subnormal=True).flatmap(
        lambda m: st.sampled_from([m, -m])),
)


@st.composite
def norm_command_inputs(draw):
    command = draw(st.sampled_from(["norm-fun", "norm-seq"]))
    mags = draw(st.lists(signed_magnitudes, min_size=1, max_size=4))
    if command == "norm-fun":
        inner = draw(st.lists(st.floats(min_value=1e-12, max_value=0.999), min_size=len(mags) - 1,
                              max_size=len(mags) - 1, unique=True))
        return command, {"breakpoints": [0.0, *sorted(inner), 1.0], "cells": mags}
    indices = draw(st.lists(st.integers(min_value=1, max_value=10**9), min_size=len(mags),
                            max_size=len(mags), unique=True))
    return command, {"indices": sorted(indices), "coeffs": mags}


@settings(max_examples=80, deadline=None)
@given(norm_command_inputs(), option_values, st.one_of(st.none(), option_values))
def test_norm_commands_end_in_an_exit_code(tmp_path_factory, command_input, p, tol):
    command, payload = command_input
    folder = tmp_path_factory.mktemp("fuzz")
    args = [command, write(folder / "in.json", payload), f"--p={p!r}", "--out", str(folder / "r.json")]
    if tol is not None:
        args.append(f"--tol={tol!r}")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        norm = json.loads((folder / "r.json").read_text())["outputs"]["norm"]
        assert math.isfinite(norm["value"]) and math.isfinite(norm["error_bound"])


# ---------------------------------------------------------------------------
# fuzzing every command: an exit code, never a traceback
# ---------------------------------------------------------------------------

exponents = st.one_of(st.sampled_from([1, 1.5, 2, 3]), option_values)


@st.composite
def vectors(draw):
    mags = draw(st.lists(signed_magnitudes, min_size=1, max_size=4))
    indices = draw(st.lists(st.integers(min_value=1, max_value=10**9), min_size=len(mags),
                            max_size=len(mags), unique=True))
    return {"indices": sorted(indices), "coeffs": mags}


@st.composite
def step_functions(draw, cells=signed_magnitudes):
    values = draw(st.lists(cells, min_size=1, max_size=4))
    inner = draw(st.lists(st.floats(min_value=1e-12, max_value=0.999), min_size=len(values) - 1,
                          max_size=len(values) - 1, unique=True))
    return {"breakpoints": [0.0, *sorted(inner), 1.0], "cells": values}


spaces = st.one_of(
    st.builds(lambda p: {"space": "lp", "p": p}, exponents),
    st.builds(lambda n: {"space": "finite_l1", "n": n}, st.integers(min_value=1, max_value=4)),
    st.just({"space": "c"}),
)


@st.composite
def sum_elements(draw):
    p = draw(exponents)
    slots = draw(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=3, unique=True))
    return {"p": p, "stack": {"space": "lp", "p": draw(exponents)},
            "components": [{"slot": s, "vector": draw(vectors())} for s in sorted(slots)]}


unit_blocks = st.builds(lambda i, c: {"indices": [i], "coeffs": [c]},
                        st.integers(min_value=1, max_value=5), st.sampled_from([1.0, -1.0]))


@st.composite
def families(draw):
    profile_values = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1e6))
    return {"profile": draw(step_functions(profile_values)),
            "space": {"space": "lp", "p": draw(st.one_of(st.sampled_from([1.5, 2, 3]), exponents))},
            "block": draw(st.one_of(unit_blocks, vectors())),
            "offset": draw(st.integers(min_value=1, max_value=100)),
            "stride": draw(st.integers(min_value=1, max_value=3))}


@st.composite
def command_inputs(draw):
    """A command and its input payload (None for commands without one)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    if command == "norm-seq":
        return command, draw(vectors())
    if command == "norm-fun":
        return command, draw(step_functions())
    if command == "norm-vfun":
        return command, {"function": draw(step_functions(vectors())), "space": draw(spaces)}
    if command in ("sum-norm", "embed-check"):
        return command, draw(sum_elements() if command == "sum-norm" else st.one_of(vectors(), sum_elements()))
    if command == "modulus":
        return command, draw(spaces)
    if command in ("thm31", "cor32", "thm33", "thm34"):
        return command, {"family": draw(families()), "f": draw(st.one_of(step_functions(vectors()), step_functions()))}
    if command == "prop21":
        x = draw(sum_elements())
        fam = {"block": draw(st.one_of(unit_blocks, vectors())), "space": x["stack"], "p": x["p"],
               "offset": draw(st.integers(min_value=1, max_value=10)), "stride": 1}
        return command, {"family": fam, "x": x}
    if command == "plot-data":
        inputs = draw(st.one_of(st.builds(lambda h, p: {"function": h, "p": p}, step_functions(), exponents),
                                st.builds(lambda fam: {"family": fam}, families()), st.just({})))
        return command, {"inputs": inputs}
    return command, None


flag_values = {flag: option_values.map(repr) for flag in OPTIONS if flag not in ("--out", "--format")}
flag_values["--r"] = st.one_of(option_values.map(repr), st.sampled_from(["inf", "four"]))
flag_values["--seed"] = st.one_of(st.integers(min_value=-3, max_value=1000).map(str), st.just("1.5"))
flag_values["--format"] = st.sampled_from(["json", "json", "csv", "xml"])


@st.composite
def command_lines(draw):
    """A command, its input payload, and values for a subset of its own
    options, now and then with one option it does not take."""
    command, payload = draw(command_inputs())
    own = [flag for flag in COMMANDS[command][2] if flag != "--out"]
    flags = draw(st.lists(st.sampled_from(own), unique=True, max_size=len(own))) if own else []
    foreign = sorted(set(flag_values) - set(own))
    if draw(st.sampled_from([False, False, False, True])):
        flags.append(draw(st.sampled_from(foreign)))
    return command, payload, {flag: draw(flag_values[flag]) for flag in flags}


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_every_command_ends_in_an_exit_code(tmp_path_factory, command_line):
    command, payload, values = command_line
    folder = tmp_path_factory.mktemp("fuzz")
    args = [command]
    if payload is not None:
        args.append(write(folder / "in.json", payload))
    args += [f"{flag}={value}" for flag, value in values.items()]
    args += ["--out", str(folder / "r.json")]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 2:
        assert stderr.getvalue()
    if any(flag not in COMMANDS[command][2] for flag in values):
        # argparse reports the first bad value it meets, else the foreign flag
        assert code == 2
        assert "unrecognized arguments: --" in stderr.getvalue() or "invalid" in stderr.getvalue()
    if code == 0 and command in ("norm-fun", "norm-seq", "norm-vfun", "sum-norm") and "--format" not in values:
        norm = json.loads((folder / "r.json").read_text())["outputs"]["norm"]
        assert math.isfinite(norm["value"]) and math.isfinite(norm["error_bound"])
