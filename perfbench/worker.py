"""One workload process: set-up, then timed rounds of the fixed job list.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --out DIR [--probe]

The set-up clock starts before ``import cesaro_lab`` and stops before
the first timed job; it covers the import, building every input into
program objects and one pass over the warm-up jobs.  The inputs are
generated and the CLI input files written before the clock starts.
With ``--probe`` the process reports its set-up time and exits.

Otherwise it runs whole rounds until ``--seconds`` have passed (at least
one).  Each job is timed alone; its output is checked right after, out
of the clock, against the oracle values that ``run.py`` wrote to
DIR/oracles.json.  With ``--trace 1`` it runs one untraced round and
then one traced round, and reports per-layer totals of the traced round
and the difference of the two round times as tracing overhead.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent


def _round(program, job_list, runners, oracles, files, by_id, stats) -> float:
    """Run every job once; return the summed job time."""
    total = 0.0
    for job, run in zip(job_list, runners):
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # a job that raises is a failed operation
            dt = time.perf_counter() - t0
            stats["failures"].append(f"{job['id']}: raised {type(exc).__name__}: {exc}")
            stats["unexpected"].append(job["id"])
            out, ok = None, False
        else:
            dt = time.perf_counter() - t0
            ok = True
        total += dt
        stats["job_ms"].append(1e3 * dt)
        stats["attempted"] += 1
        if ok:
            try:
                program.verify(job, out, oracles.get(job["id"], {}), files, by_id)
            except checks.CheckFailed as exc:
                ok = False
                stats["failures"].append(str(exc))
                if "fault" not in job:
                    stats["unexpected"].append(job["id"])
        if not ok:
            stats["failed"] += 1
        del out
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    os.environ.pop("CESARO_LAB_THREADS", None)
    outdir = Path(args.out)
    workdir = outdir / (f"probe-{os.getpid()}" if args.probe else "cli")
    workdir.mkdir(parents=True, exist_ok=True)
    job_list = inputs.jobs(args.workload, args.seed)
    warm = inputs.warmup_jobs(args.workload)
    oracles = {} if args.probe else json.loads((outdir / "oracles.json").read_text())
    by_id = {job["id"]: job for job in job_list}
    files = inputs.CliFiles(workdir)
    files.write_inputs(job_list + warm)
    gc.collect()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import jobs as program  # imports cesaro_lab

    runners = [program.prepare(job, files) for job in job_list]
    for job in warm:
        program.prepare(job, files)()
    setup_s = time.perf_counter() - t0

    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    stats = {"attempted": 0, "failed": 0, "job_ms": [], "failures": [], "unexpected": []}
    rounds: list[float] = []
    layers = None
    start = time.perf_counter()
    if args.trace:
        import tracing

        rounds.append(_round(program, job_list, runners, oracles, files, by_id, stats))
        tracer = tracing.Tracer()
        tracer.install()
        rounds.append(_round(program, job_list, runners, oracles, files, by_id, stats))
        tracer.uninstall()
        layers = tracer.totals()
        layers["trace.overhead_s"] = rounds[1] - rounds[0]
        tracer.write(outdir / "trace.spans")
    else:
        while True:
            rounds.append(_round(program, job_list, runners, oracles, files, by_id, stats))
            if time.perf_counter() - start >= args.seconds:
                break

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "rounds": rounds,
        "jobs_per_round": len(job_list),
        "job_ms": stats["job_ms"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "failures": stats["failures"],
        "unexpected": stats["unexpected"],
        "peak_rss_mb": peak_kib / 1024.0,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
