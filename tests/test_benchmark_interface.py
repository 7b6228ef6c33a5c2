"""The benchmark's view of the program still holds.

``perfbench/tracing.py`` installs its spans with ``getattr`` on the
names in its ``TARGETS`` table, so a traced benchmark run breaks when
one of them is deleted or renamed.  The first test resolves every entry
the same way, so such a change fails here first.  The tracer module is
loaded from its file and only read: nothing is installed.

``perfbench/jobs.py`` calls the program, and checks the attributes and
report keys of its outputs against the oracles.  The second test runs
every warm-up job of every workload through that protocol, so a change
to one of those calls, attributes or keys fails here too.

``perfbench/oracles.py`` keeps its own references, at 30 digits.  The
third test loads it from its file too, and holds each of them to the
tests' mp_oracles.py on a few small payloads, so that neither drifts
unseen.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import mp_oracles as oracles
from cesaro_lab import Partition, SpaceSpec, StepFunction, SumElement, TaggedVector

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py, loaded from its file under another name and
    only read."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load("tracing")
    missing = []
    for name, module, attr, _ in tracing.TARGETS:
        # the getattr chain of Tracer.install
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(name)
            continue
        if not callable(owner):
            missing.append(name)
    assert not missing, f"traced names that no longer resolve: {missing}"
    assert len(tracing.TARGETS) > 40


def test_every_warmup_job_runs_and_verifies_against_its_oracle(tmp_path, monkeypatch):
    # the benchmark's modules import each other by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("checks", "inputs", "jobs", "oracles")
    assert not any(name in sys.modules for name in names)
    try:
        inputs, jobs, oracles = (importlib.import_module(name) for name in ("inputs", "jobs", "oracles"))
        files = inputs.CliFiles(tmp_path)
        for workload in inputs.WORKLOADS:
            warm = inputs.warmup_jobs(workload)
            files.write_inputs(warm)
            by_id = {job["id"]: job for job in warm}
            for job in warm:
                jobs.verify(job, jobs.prepare(job, files)(), oracles.for_job(job), files, by_id)
    finally:
        for name in names:
            sys.modules.pop(name, None)


VECTORS = [{"indices": [1], "coeffs": [1.0]},
           {"indices": [1, 2, 7, 40], "coeffs": [1.0, -0.5, 2.0, 1e-3]},
           {"indices": [3, 1000], "coeffs": [2.5, -1e6]}]
STACKS = [{"space": "lp", "p": 2.0}, {"space": "lp", "p": 1.5}, {"space": "finite_l1", "n": 3}]
STEPS = [{"breakpoints": [0.0, 1.0], "cells": [2.0]},
         {"breakpoints": [0.0, 0.25, 0.6, 1.0], "cells": [1.0, -2.0, 0.5]},
         {"breakpoints": [0.0, 1e-3, 0.5, 1.0], "cells": [3.0, 0.0, -1e3]}]


def test_the_benchmarks_oracles_agree_with_the_tests_oracles():
    bench = load("oracles")
    pairs = []
    for vec in VECTORS:
        v = TaggedVector(tuple(vec["indices"]), tuple(vec["coeffs"]))
        for p in (1.5, 2.0, 3.0):
            pairs.append(("seq_norm", bench.seq_norm(vec, p), oracles.seq_norm(zip(v.indices, v.coeffs), p)))
        for stack in STACKS:
            element = {"p": 2.0, "stack": stack, "components": [{"slot": 2, "vector": vec}, {"slot": 9, "vector": vec}]}
            spec = SpaceSpec.lp(stack["p"]) if stack["space"] == "lp" else SpaceSpec.finite_l1(stack["n"])
            x = SumElement(2.0, ((2, v), (9, v)), spec)
            pairs.append(("sum_norm", bench.sum_norm(element), oracles.sum_norm(x)))
    for step in STEPS:
        bps, mags = step["breakpoints"], bench.magnitudes(step)
        h = StepFunction(Partition(tuple(bps)), tuple(step["cells"]))
        pairs.append(("weighted_l1", bench.weighted_l1(bps, mags), oracles.weighted_l1(h)))
        for p in (2, 3):
            pairs.append(("ces_integer", bench.ces_integer(bps, mags, p), oracles.ces_fun_norm(h, p)))
        for p in (1.5, 2.0, 3.0):
            pairs.append(("lebesgue", bench.lebesgue(bps, mags, p), oracles.lebesgue(h, p)))
    for p, eps, R in ((2.0, 1.0, 1.0), (3.0, 0.5, 2.0), (1.5, 1e-3, 10.0)):
        pairs.append(("lp_eta", bench.lp_eta(p, eps, R), oracles.lp_modulus(p, eps, R)))
    assert len(pairs) == 39
    drift = [(what, bench_value, float(ours)) for what, bench_value, ours in pairs
             if abs(bench_value - ours) > 1e-12 * ours]
    assert drift == []
