"""Small calls never import numpy; long inputs and the suite do, and
nothing imports numpy.random: the suite draws from the standard
library's generator.  The package and the CLI import each module only
where a name or a command uses it.

Each check runs the CLI in a fresh interpreter, since this process has
numpy loaded already.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cesaro_lab
from cesaro_lab.model import _ARRAYS_FROM

SRC = str(Path(cesaro_lab.__file__).resolve().parents[1])

# run cli.main on each argv in a fresh interpreter; report the exit
# codes and whether numpy and numpy.random got imported
SCRIPT = """
import json, sys
from cesaro_lab import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules, "numpy.random": "numpy.random" in sys.modules}))
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
    # one entry short of the crossover: the prefix columns are lists
    below = _ARRAYS_FROM - 1
    short = write(tmp_path / "short.json", {"indices": [1 + 997 * k for k in range(below)],
                                            "coeffs": [(-1.0) ** k for k in range(below)]})
    h = write(tmp_path / "h.json", {"breakpoints": [0, 0.2, 0.7, 1], "cells": [1.0, -3.0, 0.5]})
    element = {"p": 2, "stack": {"space": "lp", "p": 2},
               "components": [{"slot": 1, "vector": {"indices": [1, 2], "coeffs": [1.0, -0.5]}}]}
    x = write(tmp_path / "x.json", element)
    space = write(tmp_path / "s.json", {"space": "lp", "p": 2})
    family = {"block": {"indices": [1, 2], "coeffs": [0.6, -0.8]}, "space": {"space": "lp", "p": 2},
              "p": 2, "offset": 8, "stride": 1}
    bundle = write(tmp_path / "bundle.json", {"family": family, "x": element})
    report = str(tmp_path / "norm-fun.json")
    argvs = [
        ["sharpness", "--out", str(tmp_path / "sharpness.json")],
        ["norm-seq", e1, "--p", "2", "--out", str(tmp_path / "norm-seq.json")],
        ["norm-seq", short, "--p", "1.5", "--out", str(tmp_path / "norm-seq-short.json")],
        ["norm-fun", h, "--p", "1.5", "--out", report],
        ["sum-norm", x, "--out", str(tmp_path / "sum-norm.json")],
        ["modulus", space, "--eps", "1", "--R", "1", "--out", str(tmp_path / "modulus.json")],
        ["plot-data", report, "--out", str(tmp_path / "plot.csv")],
        ["prop21", bundle, "--out", str(tmp_path / "prop21.json")],  # the default window, 101 terms
        ["embed-check", short, "--p", "2", "--out", str(tmp_path / "embed-T.json")],
        ["embed-check", x, "--out", str(tmp_path / "embed-S.json")],
    ]
    assert run_fresh(argvs) == {"codes": [0] * len(argvs), "numpy": False, "numpy.random": False}
    assert len((tmp_path / "plot.csv").read_text().splitlines()) == 1 + 3 * 16


# pointwise_norm, eval_phi and ces_fun_norm on a function of CELLS cells
# in a fresh interpreter; report whether numpy got imported
CALLS = """
import json, sys
from cesaro_lab import FunctionShiftFamily, Partition, SpaceSpec, StepFunction, TaggedVector, ces_fun_norm, eval_phi
from cesaro_lab.model import pointwise_norm
cells = int(sys.argv[1])
l2 = SpaceSpec.lp(2.0)
bps = [k / cells for k in range(cells + 1)]
fam = FunctionShiftFamily(profile=StepFunction(Partition(bps), [1.0 + k for k in range(cells)]), space=l2,
                          block=TaggedVector.basis(1), offset=1)
f = StepFunction(Partition((0.0, 0.3, 1.0)), (TaggedVector.from_dense([3.0, -4.0]), TaggedVector.basis(2)), l2)
# after a first cell with no mass no bound certifies the cell (0.01, 1), and
# its two rules disagree: it is bisected, on floats
jump = StepFunction(Partition((0.0, 0.01, 1.0)), (0.0, 1.0))
values = [pointwise_norm(f).values, eval_phi(fam, f).values, ces_fun_norm(fam.profile, 1.5).value,
          ces_fun_norm(jump, 2.0).value]
print(json.dumps({"numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("cells, numpy", [(_ARRAYS_FROM, False), (_ARRAYS_FROM + 1, True)])
def test_small_function_norms_never_import_numpy(cells, numpy):
    # a profile with one cell after the first short of the crossover
    # takes the rules on floats and the prelude on lists, and so does the
    # bisection of a 2-cell function; one more cell takes the batched
    # numpy pass: the control
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", CALLS, str(cells)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == {"numpy": numpy}


@pytest.mark.parametrize("command", ["long-norm-seq", "suite"])
def test_long_inputs_and_the_suite_do_import_numpy(tmp_path, command):
    # positive controls: the check above can fail; numpy.random stays out
    if command == "suite":
        argv = ["suite", "--seed", "1", "--out", str(tmp_path / "suite.json")]
    else:
        runs = list(range(1, _ARRAYS_FROM + 1))
        vec = write(tmp_path / "v.json", {"indices": runs, "coeffs": [1.0] * len(runs)})
        argv = ["norm-seq", vec, "--out", str(tmp_path / "r.json")]
    assert run_fresh([argv]) == {"codes": [0], "numpy": True, "numpy.random": False}


# parse a 10**4-entry vector (sorted, and once unsorted with a repeated
# index) and a vector-mode step function through schemas in a fresh
# interpreter; report whether numpy got imported, then the control: the
# sequence norm of the long vector, whose prefix columns are arrays
PARSE = """
import json, sys
from cesaro_lab import schemas
n = 10**4
vec = {"indices": list(range(1, 2 * n, 2)), "coeffs": [(-1.0) ** k / (k + 1) for k in range(n)]}
messy = {"indices": vec["indices"][::-1] + [1], "coeffs": vec["coeffs"][::-1] + [1]}
step = {"breakpoints": [0, 0.5, 1], "cells": [vec, {"indices": [2, 4], "coeffs": [1.0, -2.0]}]}
v = schemas.tagged_from_json(schemas.load_json(json.dumps(vec)))
w = schemas.tagged_from_json(messy)
f = schemas.step_from_json(step, schemas.space_from_json({"space": "lp", "p": 2}))
parsed = "numpy" in sys.modules
assert len(v.indices) == len(w.indices) == n and f.values[0] == v
from cesaro_lab import ces_seq_norm
ces_seq_norm(v, 2.0)
print(json.dumps({"parse": parsed, "norm": "numpy" in sys.modules}))
"""


def test_parsing_long_vectors_never_imports_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PARSE], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == {"parse": False, "norm": True}


# ---------------------------------------------------------------------------
# the package and the CLI load their modules per use
# ---------------------------------------------------------------------------

# every name the package re-exported when it imported all its modules
EXPORTED = (
    "CElement CesaroLabError CheckReport DegenerateInput DomainError EmbeddedElement EmptyWitnessSet "
    "EstimateReport EtaRecipe33 EtaRecipe34 Exponent ExponentOrder FunctionShiftFamily HypothesisViolation "
    "InvalidExponent InvalidTolerance ModulusQuery NormResult Partition SCHUR SchemaError SchurFlag "
    "SlotShiftFamily SpaceMismatch SpaceSpec StepFunction SumElement TaggedVector TauOutOfRange TauTooLarge "
    "Thm31Report UnsupportedSpace VectorShiftFamily add as_exponent ces_fun_norm ces_seq_norm ces_vfun_norm "
    "cesaro_sum_norm check_cor32 check_embedding_inequality check_prop21 check_sharpness_footnote check_thm31 "
    "common_refinement compute_eta_thm33 compute_eta_thm34 embed_S embed_T embedded_outer_norm "
    "estimate_eta_empirical eta_closed_form eval_phi lp_fun_norm lr_fun_norm pointwise_norm r_closed_form "
    "run_suite scale splitting_check verify_isometry verify_thm33 verify_thm34 weighted_l1_norm"
).split()
# the submodules it had loaded, each an attribute of the package
SUBMODULES = "embeddings harness model numerics opial scalar schemas suite vector".split()


@pytest.mark.parametrize("name", EXPORTED)
def test_every_exported_name_resolves_from_its_module(name):
    owner = importlib.import_module(f"cesaro_lab.{cesaro_lab._SUBMODULE[name]}")
    assert getattr(cesaro_lab, name) is getattr(owner, name)


def test_every_submodule_resolves_and_dir_lists_every_name():
    for name in SUBMODULES:
        assert getattr(cesaro_lab, name) is importlib.import_module(f"cesaro_lab.{name}")
    assert set(EXPORTED) | set(SUBMODULES) | {"__version__"} <= set(dir(cesaro_lab))


def test_an_unknown_name_raises_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="module 'cesaro_lab' has no attribute 'no_such_name'"):
        cesaro_lab.no_such_name  # noqa: B018
    assert not hasattr(cesaro_lab, "cli_main")


# import the CLI in a fresh interpreter, then run cli.main on each argv;
# report the cesaro_lab modules (and numpy) loaded after each step
LOADED = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("cesaro_lab.") or m == "numpy")
import cesaro_lab.cli
steps = [loaded()]
for argv in json.loads(sys.argv[1]):
    steps.append([cesaro_lab.cli.main(argv), loaded()])
print(json.dumps(steps))
"""

BASE = ["cesaro_lab.cli", "cesaro_lab.model", "cesaro_lab.numerics", "cesaro_lab.scalar", "cesaro_lab.schemas"]


def loaded_fresh(argvs) -> list:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", LOADED, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_each_command_loads_only_the_modules_it_uses(tmp_path):
    e1 = write(tmp_path / "e1.json", {"indices": [1], "coeffs": [1.0]})
    worked = write(tmp_path / "thm31.json", {
        "family": {"profile": {"breakpoints": [0, 1], "cells": [1.0]}, "space": {"space": "lp", "p": 2},
                   "block": {"indices": [1], "coeffs": [1.0]}, "offset": 1, "stride": 1},
        "f": {"breakpoints": [0, 1], "cells": [{"indices": [1], "coeffs": [1.0]}]}})
    imported, norm_seq, thm31, suite = loaded_fresh([
        ["norm-seq", e1, "--out", str(tmp_path / "a.json")],
        ["thm31", worked, "--out", str(tmp_path / "b.json")],
        ["suite", "--seed", "1", "--out", str(tmp_path / "c.json")],
    ])
    # the import and a small sequence norm load the base modules alone
    assert imported == BASE
    assert norm_seq == [0, BASE]
    # thm31 adds the harness and what it imports, but not the suite
    assert thm31[0] == 0 and "cesaro_lab.harness" in thm31[1] and "cesaro_lab.suite" not in thm31[1]
    assert "cesaro_lab.embeddings" not in thm31[1]
    # the positive control: the suite command loads the suite
    assert suite[0] == 0 and "cesaro_lab.suite" in suite[1]
