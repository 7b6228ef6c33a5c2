"""Program side of the benchmark: turn generated payloads into
cesaro_lab objects with the program's own parsers (``schemas``), run
one job, and check its output.

Importing this module imports cesaro_lab, so the worker imports it
inside the set-up clock.  Jobs call the program through module
attributes at call time (``scalar.ces_seq_norm(...)``), so that a
tracer installed later sees the calls.
"""

from __future__ import annotations

import csv
import json
import math

from cesaro_lab import cli, embeddings, harness, scalar, schemas, vector

import checks
import inputs

def prepare(job: dict, files: inputs.CliFiles | None = None):
    """Build the job's program objects; return a callable that runs the
    job and returns its raw output."""
    kind = job["kind"]
    if kind == "seq_norm":
        v, p, tol = schemas.tagged_from_json(job["vector"]), job["p"], job["tol"]
        return lambda: scalar.ces_seq_norm(v, p, tol)
    if kind == "sum_norm":
        x, tol = schemas.sum_from_json(job["element"]), job["tol"]
        return lambda: vector.cesaro_sum_norm(x, tol)
    if kind == "isometry":
        tol = job["tol"]
        if "vector" in job:
            v, p = schemas.tagged_from_json(job["vector"]), job["p"]
            return lambda: embeddings.verify_isometry(v, p, tol)
        x = schemas.sum_from_json(job["element"])
        return lambda: embeddings.verify_isometry(x, None, tol)
    if kind == "embed":
        v, p, tol = schemas.tagged_from_json(job["vector"]), job["p"], job["tol"]

        def run_embed():
            emb = embeddings.embed_T(v, p)
            return emb, embeddings.embedded_outer_norm(emb, tol)
        return run_embed
    if kind == "prop21":
        fam, x = schemas.slot_family_from_json(job["family"]), schemas.sum_from_json(job["x"])
        window, tol = tuple(job["window"]), job["tol"]
        return lambda: harness.check_prop21(fam, x, window, tol)
    if kind == "fun_norm":
        h, p = schemas.step_from_json(job["function"]), job["p"]
        return lambda: scalar.ces_fun_norm(h, p)
    if kind == "vfun_norm":
        f, p = schemas.step_from_json(job["function"], schemas.space_from_json(job["space"])), job["p"]
        return lambda: vector.ces_vfun_norm(f, p)
    if kind == "monotone":
        h, g = schemas.step_from_json(job["function"]), schemas.step_from_json(job["dominated"])
        p = job["p"]
        return lambda: (scalar.ces_fun_norm(h, p), scalar.ces_fun_norm(g, p))
    if kind in ("thm31", "cor32", "thm33", "thm34"):
        fam = schemas.family_from_json(job["family"])
        f = schemas.step_from_json(job["f"], fam.space)
        p = job["p"]
        if kind == "thm31":
            return lambda: harness.check_thm31(fam, f, p)
        if kind == "cor32":
            return lambda: harness.check_cor32(fam, f, p)
        if kind == "thm33":
            return lambda: harness.verify_thm33(fam, f, p, M=job["M"], R=job["R"])
        return lambda: harness.verify_thm34(fam, f, p, r=job["r"], eps=job["eps"], M=job["M"],
                                            K=job["K"], R=job["R"])
    if kind == "cli":
        return _prepare_cli(job, files)
    raise ValueError(f"unknown job kind {kind!r}")


def _prepare_cli(job: dict, files: inputs.CliFiles):
    argv = [job["command"]]
    payload = job.get("input")
    if payload is not None and "from" in payload:
        argv.append(str(files.report(payload["from"])))
    elif payload is not None:
        argv.append(str(files.input(job["id"])))
    argv += list(job["args"]) + ["--out", str(files.report(job["id"]))]
    return lambda: cli.main(argv)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def verify(job: dict, out, oracle: dict, files: inputs.CliFiles | None = None, jobs_by_id=None) -> None:
    """Raise checks.CheckFailed unless ``out`` is a correct output."""
    kind, jid = job["kind"], job["id"]
    if kind in ("seq_norm", "sum_norm"):
        checks.certified(out.value, out.error_bound, oracle["norm"], jid, tol=job["tol"])
    elif kind == "isometry":
        q = out.quantities
        checks.holds(out.holds, jid)
        checks.certified(q["direct"], q["direct_error"], oracle["norm"], f"{jid} direct", tol=job["tol"])
        checks.certified(q["embedded"], q["embedded_error"], oracle["norm"], f"{jid} embedded", tol=job["tol"])
    elif kind == "embed":
        emb, norm = out
        checks.certified(norm.value, norm.error_bound, oracle["norm"], jid, tol=job["tol"])
        masses = [math.fsum(abs(c) for _, c in emb.block_coefficients(n)) for n in job["probes"]]
        checks.block_masses(masses, oracle["masses"], jid)
    elif kind == "prop21":
        _prop21(out.holds, out.quantities, oracle, job["tol"], jid)
    elif kind in ("fun_norm", "vfun_norm"):
        checks.bracketed(out.value, out.error_bound, *oracle["bounds"], jid)
    elif kind == "monotone":
        nh, ng = out
        checks.bracketed(nh.value, nh.error_bound, *oracle["bounds"], f"{jid} ||h||")
        checks.bracketed(ng.value, ng.error_bound, *oracle["dominated"], f"{jid} ||g||")
        checks.dominated(ng.value, ng.error_bound, nh.value, nh.error_bound, jid)
    elif kind == "thm31":
        checks.holds(out.holds1, f"{jid} inequality 1")
        checks.holds(out.holds2, f"{jid} inequality 2")
        checks.bracketed(out.g_norm.value, out.g_norm.error_bound, *oracle["g"], f"{jid} ||g||")
        checks.bracketed(out.phi_norm.value, out.phi_norm.error_bound, *oracle["phi"], f"{jid} ||phi||")
    elif kind in ("cor32", "thm33", "thm34"):
        _theorem(kind, out.holds, out.quantities, oracle, job["p"], jid)
    elif kind == "cli":
        _verify_cli(job, out, oracle, files, jobs_by_id)
    else:
        raise ValueError(f"unknown job kind {kind!r}")


def _prop21(ok, q: dict, oracle: dict, tol: float, jid: str) -> None:
    checks.holds(ok, jid)
    checks.certified(q["limsup_norm_estimate"], tol, oracle["norm"], f"{jid} limsup ||x_k||")
    checks.certified(q["limsup_diff_estimate"], tol, oracle["diff"], f"{jid} limsup ||x_k - x||")


def _theorem(kind: str, ok, q: dict, oracle: dict, p: float, jid: str) -> None:
    checks.holds(ok, jid)
    if kind == "cor32":
        # lhs = ||g||, rhs = 2**(1-1/p) ||phi||, margin_error covers both bounds
        factor = 2.0 ** (1.0 - 1.0 / p)
        checks.bracketed(q["lhs"], q["margin_error"], *oracle["g"], f"{jid} ||g||")
        checks.bracketed(q["rhs"] / factor, q["margin_error"] / factor, *oracle["phi"], f"{jid} ||phi||")
        return
    if not q["eta"] > 0.0:
        raise checks.CheckFailed(f"{jid}: eta {q['eta']!r} is not positive")
    checks.bracketed(q["limsup_fn"], q["error_budget"], *oracle["g"], f"{jid} ||g||")
    checks.bracketed(q["limsup_fn_minus_f"], q["error_budget"], *oracle["phi"], f"{jid} ||phi||")


def _verify_cli(job: dict, code, oracle: dict, files: inputs.CliFiles, jobs_by_id) -> None:
    jid, cmd = job["id"], job["command"]
    if code != 0:
        raise checks.CheckFailed(f"{jid}: exit code {code}")
    path = files.report(jid)
    data = path.read_bytes()
    first = files.first_bytes.setdefault(jid, data)
    if data != first:
        raise checks.CheckFailed(f"{jid}: report bytes differ from the first run of the same input")
    twin = job.get("same_bytes_as")
    if twin is not None and data != files.report(twin).read_bytes():
        raise checks.CheckFailed(f"{jid}: report differs from {twin}, a run of the same seed")
    if cmd == "plot-data":
        source = jobs_by_id[job["input"]["from"]]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        checks.plot_rows(rows, source["input"], float(source["args"][1]), jid)
        return
    report = json.loads(data)
    outputs = report["outputs"] if "outputs" in report else report
    if cmd in ("norm-seq", "sum-norm"):
        norm = outputs["norm"]
        checks.certified(norm["value"], norm["error_bound"], oracle["norm"], jid, tol=report["inputs"]["tol"])
    elif cmd in ("norm-fun", "norm-vfun"):
        norm = outputs["norm"]
        checks.bracketed(norm["value"], norm["error_bound"], *oracle["bounds"], jid)
    elif cmd == "embed-check":
        q = outputs["quantities"]
        checks.holds(report["passed"], jid)
        tol = report["inputs"]["tol"]
        checks.certified(q["direct"], q["direct_error"], oracle["norm"], f"{jid} direct", tol=tol)
        checks.certified(q["embedded"], q["embedded_error"], oracle["norm"], f"{jid} embedded", tol=tol)
    elif cmd == "modulus":
        if oracle["eta"] == "schur":
            if outputs["eta"] != "schur":
                raise checks.CheckFailed(f"{jid}: expected the Schur marker, got {outputs['eta']!r}")
        else:
            checks.close(outputs["eta"], oracle["eta"], f"{jid} eta")
            if not outputs["empirical_estimate"] >= oracle["eta"] * (1.0 - 1e-12):
                raise checks.CheckFailed(f"{jid}: empirical estimate below the modulus")
        checks.close(outputs["r_modulus"], oracle["r_modulus"], f"{jid} r")
    elif cmd == "thm31":
        checks.holds(report["passed"], jid)
        budget = outputs["error_budget2"]
        checks.bracketed(outputs["g_norm"], budget, *oracle["g"], f"{jid} ||g||")
        checks.bracketed(outputs["phi_norm"], budget, *oracle["phi"], f"{jid} ||phi||")
    elif cmd in ("cor32", "thm33", "thm34"):
        checks.holds(report["passed"], jid)
        _theorem(cmd, outputs["holds"], outputs["quantities"], oracle, report["inputs"]["p"], jid)
    elif cmd == "prop21":
        checks.holds(report["passed"], jid)
        _prop21(outputs["holds"], outputs["quantities"], oracle, 1e-10, jid)
    elif cmd == "sharpness":
        checks.holds(report["passed"], jid)
        if outputs["quantities"]["ratio"] != oracle["ratio"]:
            raise checks.CheckFailed(f"{jid}: sharpness ratio {outputs['quantities']['ratio']!r}, expected 2")
    elif cmd == "suite":
        checks.holds(report["passed"], jid)
        bad = [c["id"] for c in report["criteria"] if c["passed"] is not True]
        if bad or len(report["criteria"]) != 14:
            raise checks.CheckFailed(f"{jid}: criteria {bad} failed")
    else:
        raise ValueError(f"unknown command {cmd!r}")
