"""Small calls never import numpy; long inputs and the suite do.

Each check runs the CLI in a fresh interpreter, since this process has
numpy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cesaro_lab
from cesaro_lab.numerics import _FLOAT_RUNS_BELOW

SRC = str(Path(cesaro_lab.__file__).resolve().parents[1])

# run cli.main on each argv in a fresh interpreter; report the exit
# codes and whether numpy got imported
SCRIPT = """
import json, sys
from cesaro_lab import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def run_fresh(argvs) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def test_small_commands_never_import_numpy(tmp_path):
    e1 = write(tmp_path / "e1.json", {"indices": [1], "coeffs": [1.0]})
    h = write(tmp_path / "h.json", {"breakpoints": [0, 0.2, 0.7, 1], "cells": [1.0, -3.0, 0.5]})
    x = write(tmp_path / "x.json", {"p": 2, "stack": {"space": "lp", "p": 2},
                                    "components": [{"slot": 1, "vector": {"indices": [1, 2], "coeffs": [1.0, -0.5]}}]})
    space = write(tmp_path / "s.json", {"space": "lp", "p": 2})
    report = str(tmp_path / "norm-fun.json")
    argvs = [
        ["sharpness", "--out", str(tmp_path / "sharpness.json")],
        ["norm-seq", e1, "--p", "2", "--out", str(tmp_path / "norm-seq.json")],
        ["norm-fun", h, "--p", "1.5", "--out", report],
        ["sum-norm", x, "--out", str(tmp_path / "sum-norm.json")],
        ["modulus", space, "--eps", "1", "--R", "1", "--out", str(tmp_path / "modulus.json")],
        ["plot-data", report, "--out", str(tmp_path / "plot.csv")],
    ]
    assert run_fresh(argvs) == {"codes": [0] * len(argvs), "numpy": False}
    assert len((tmp_path / "plot.csv").read_text().splitlines()) == 1 + 3 * 16


@pytest.mark.parametrize("command", ["long-norm-seq", "suite"])
def test_long_inputs_and_the_suite_do_import_numpy(tmp_path, command):
    # positive controls: the check above can fail
    if command == "suite":
        argv = ["suite", "--seed", "1", "--out", str(tmp_path / "suite.json")]
    else:
        runs = list(range(1, _FLOAT_RUNS_BELOW + 1))
        vec = write(tmp_path / "v.json", {"indices": runs, "coeffs": [1.0] * len(runs)})
        argv = ["norm-seq", vec, "--out", str(tmp_path / "r.json")]
    assert run_fresh([argv]) == {"codes": [0], "numpy": True}
