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
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
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
