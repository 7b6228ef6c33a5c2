"""Every output check accepts a correct output and rejects a perturbed
one; the tracer and the input generator behave as the benchmark needs."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import jobs
import oracles
import tracing

ROOT = Path(__file__).resolve().parents[2]


def test_certified_accepts_and_rejects():
    checks.certified(1.0 + 1e-11, 2e-11, 1.0, "x", tol=1e-10)
    with pytest.raises(checks.CheckFailed, match="exceeds error_bound"):
        checks.certified(1.0 + 3e-11, 2e-11, 1.0, "x")
    with pytest.raises(checks.CheckFailed, match="exceeds tol"):
        checks.certified(1.0, 2e-10, 1.0, "x", tol=1e-10)
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.certified(math.nan, 0.0, 1.0, "x")


def test_bracketed_accepts_and_rejects():
    checks.bracketed(1.5, 1e-12, 1.0, 2.0, "x")
    checks.bracketed(2.0 + 1e-13, 1e-12, 1.0, 2.0, "x")
    with pytest.raises(checks.CheckFailed, match="misses"):
        checks.bracketed(2.0 + 1e-9, 1e-12, 1.0, 2.0, "x")
    with pytest.raises(checks.CheckFailed, match="misses"):
        checks.bracketed(1.0 - 1e-9, 1e-12, 1.0, 2.0, "x")
    with pytest.raises(checks.CheckFailed, match="exceeds error_bound"):
        checks.bracketed(1.0 + 1e-9, 1e-12, 1.0, 1.0, "x")


def test_close_holds_dominated():
    checks.close(1.0 + 1e-13, 1.0, "x")
    with pytest.raises(checks.CheckFailed):
        checks.close(1.0 + 1e-10, 1.0, "x")
    checks.holds(True, "x")
    for bad in (False, None, 1):
        with pytest.raises(checks.CheckFailed):
            checks.holds(bad, "x")
    checks.dominated(0.9, 1e-12, 1.0, 1e-12, "x")
    with pytest.raises(checks.CheckFailed):
        checks.dominated(1.0 + 1e-9, 1e-12, 1.0, 1e-12, "x")


def test_plot_rows_accept_the_formula_and_reject_a_perturbation():
    step = {"breakpoints": [0.0, 0.25, 1.0], "cells": [2.0, -1.0]}
    nodes, _ = np.polynomial.legendre.leggauss(16)
    rows = [["t", "inner_average", "integrand"]]
    prefix = [0.0, 0.5]
    for k, (a, b) in enumerate([(0.0, 0.25), (0.25, 1.0)]):
        for t in 0.5 * (a + b) + 0.5 * (b - a) * nodes:
            avg = float((prefix[k] + abs(step["cells"][k]) * (t - a)) / t)
            rows.append([repr(float(t)), repr(avg), repr(avg ** 2)])
    checks.plot_rows(rows, step, 2.0, "plot")
    rows[20][1] = repr(float(rows[20][1]) * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed, match="average"):
        checks.plot_rows(rows, step, 2.0, "plot")
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.plot_rows(rows[:-1], step, 2.0, "plot")


# ---------------------------------------------------------------------------
# checks on real program outputs
# ---------------------------------------------------------------------------

def run_job(job):
    out = jobs.prepare(job)()
    jobs.verify(job, out, oracles.for_job(job))
    return out


def test_seq_norm_job_passes_and_a_perturbed_result_fails():
    job = {"id": "e1", "kind": "seq_norm", "vector": inputs.basis(1), "p": 2.0, "tol": 1e-10}
    out = run_job(job)
    bad = dataclasses.replace(out, value=out.value + 3 * out.error_bound + 1e-15)
    with pytest.raises(checks.CheckFailed):
        jobs.verify(job, bad, oracles.for_job(job))


def test_function_norm_job_rejects_a_perturbed_result():
    job = {"id": "h", "kind": "fun_norm", "p": 2.0,
           "function": {"breakpoints": [0.0, 0.3, 1.0], "cells": [1.0, -0.5]}}
    out = run_job(job)
    bad = dataclasses.replace(out, value=out.value * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed):
        jobs.verify(job, bad, oracles.for_job(job))


def test_monotone_job_rejects_norms_scaled_by_the_same_factor():
    import random

    rng = random.Random(5)
    h = inputs.scalar_step(rng, 30)
    job = {"id": "mono", "kind": "monotone", "p": 1.5, "function": h, "dominated": inputs.dominated(rng, h)}
    nh, ng = run_job(job)
    # domination alone still holds after scaling both norms alike
    bad = tuple(dataclasses.replace(n, value=n.value * 0.9) for n in (nh, ng))
    checks.dominated(bad[1].value, bad[1].error_bound, bad[0].value, bad[0].error_bound, "x")
    with pytest.raises(checks.CheckFailed, match="misses the oracle interval"):
        jobs.verify(job, bad, oracles.for_job(job))


def test_tiny_first_cell_fault_is_caught():
    job = {"id": "tiny", "kind": "fun_norm", "p": 2.0,
           "function": {"breakpoints": [0.0, 1e-12, 1.0], "cells": [0.0, 1.0]}}
    out = jobs.prepare(job)()
    with pytest.raises(checks.CheckFailed, match="exceeds error_bound"):
        jobs.verify(job, out, oracles.for_job(job))


def test_block_mass_check_catches_a_wrong_block():
    import random

    from cesaro_lab import embeddings

    v = inputs.spread_vector(random.Random(1), 40, 6, 1.0)
    job = {"id": "embed", "kind": "embed", "vector": v, "p": 3.0, "tol": 1e-10, "probes": [1, 7, 20, 40, 45]}
    emb, norm = run_job(job)
    blocks = list(emb.blocks)
    blocks[19] = blocks[19].scale(1.5)
    wrong = dataclasses.replace(emb, blocks=tuple(blocks))
    # the program's own outer norm reads only the final block and misses it
    assert embeddings.embedded_outer_norm(wrong).value == norm.value
    with pytest.raises(checks.CheckFailed, match="block mass"):
        jobs.verify(job, (wrong, norm), oracles.for_job(job))


def test_harness_job_rejects_a_perturbed_norm():
    import random

    rng = random.Random(3)
    job = inputs._harness_jobs(rng, "t", [("thm31", 2.0)], profile_cells=(20, 20), f_cells=(5, 5))[0]
    out = run_job(job)
    out.g_norm = dataclasses.replace(out.g_norm, value=out.g_norm.value * (1 + 1e-8))
    with pytest.raises(checks.CheckFailed, match="g"):
        jobs.verify(job, out, oracles.for_job(job))


def test_cli_report_checks(tmp_path):
    files = inputs.CliFiles(tmp_path)
    job = {"id": "e1", "kind": "cli", "command": "norm-seq", "args": ["--p", "2"], "input": inputs.basis(1)}
    files.write_inputs([job])
    code = jobs.prepare(job, files)()
    jobs.verify(job, code, oracles.for_job(job), files)
    with pytest.raises(checks.CheckFailed, match="exit code"):
        jobs.verify(job, 2, oracles.for_job(job), files)
    report = files.report("e1")
    data = json.loads(report.read_text())
    data["outputs"]["norm"]["value"] += 1e-9
    report.write_text(json.dumps(data))
    with pytest.raises(checks.CheckFailed, match="bytes differ"):
        jobs.verify(job, 0, oracles.for_job(job), files)
    files.first_bytes.clear()
    with pytest.raises(checks.CheckFailed, match="error_bound"):
        jobs.verify(job, 0, oracles.for_job(job), files)


# ---------------------------------------------------------------------------
# inputs and tracing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_on_the_seed_only(workload):
    assert inputs.jobs(workload, 7) == inputs.jobs(workload, 7)
    assert inputs.jobs(workload, 7) != inputs.jobs(workload, 8)
    faults = [[j for j in inputs.jobs(workload, s) if "fault" in j] for s in (7, 8)]
    assert faults[0] == faults[1]
    assert len(inputs.jobs(workload, 7)) >= 100


def test_tracer_records_spans_counts_and_restores():
    from cesaro_lab import model, scalar, suite

    original = scalar.ces_seq_norm
    tracer = tracing.Tracer()
    tracer.install()
    assert scalar.ces_seq_norm is not original
    assert all(hasattr(fn, "__wrapped__") for fn in suite._CRITERIA)
    scalar.ces_seq_norm(model.TaggedVector.basis(1), 2.0)
    tracer.uninstall()
    assert scalar.ces_seq_norm is original
    totals = tracer.totals()
    assert [m for m, _ in tracing.LAYER_METRICS] == list(totals)
    assert totals["scalar.ces_seq_norm.calls"] == 1
    assert totals["numerics.fsum_array.calls"] >= 1
    assert totals["numerics.fsum_array.elements"] > 0
    assert 0.0 <= totals["scalar.ces_seq_norm.self_s"] <= totals["scalar.ces_seq_norm.busy_s"]
    assert totals["model.abs_prefix_sums.calls"] == 1


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "job_ms_p50", "job_ms_p90", "peak_rss_mb"}
