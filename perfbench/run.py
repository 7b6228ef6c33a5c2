"""cesaro-lab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload seq-tail|fun-quad|cli-suite \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  The command

1. generates the workload's job list from the seed (``inputs``);
2. computes the reference oracles (``oracles``, mpmath) for every job;
3. measures set-up time in PROBES fresh processes (``worker --probe``);
4. runs the workload in one more fresh process (``worker``), which
   times every job, checks every output as it is produced and reports
   its peak resident memory;
5. measures set-up time in PROBES more fresh processes;
6. prints one JSON object as the last line of stdout.

``setup_s`` is the median of the 2 * PROBES + 1 set-up samples.

With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
time per round of the job list, per-job median and 90th percentile,
peak RSS); with ``--trace 1`` they are the per-layer totals of one
traced round and the tracing overhead.  Results and span files go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

# set-up samples per run: PROBES fresh processes before the workload,
# the workload process itself, and PROBES fresh processes after it
PROBES = 4
# every child is killed once the whole command has run this long
DEADLINE_S = 170.0


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("CESARO_LAB_THREADS", None)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description="cesaro-lab benchmark")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "cesaro_lab" / "__init__.py").is_file():
        print(f"error: no cesaro_lab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()

    import oracles

    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    job_list = inputs.jobs(args.workload, args.seed)
    table = {job["id"]: oracles.for_job(job) for job in job_list}
    (outdir / "oracles.json").write_text(json.dumps(table))
    oracle_s = time.perf_counter() - started

    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(outdir),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = started + DEADLINE_S
    # probes before and after the workload, so that slow drift of the
    # machine's speed during a run falls on both sides of the median
    setups = [_child(common + ["--probe"], deadline)["setup_s"] for _ in range(PROBES)]
    res = _child(common, deadline)
    setups.append(res["setup_s"])
    setups += [_child(common + ["--probe"], deadline)["setup_s"] for _ in range(PROBES)]

    if args.trace:
        from tracing import LAYER_METRICS

        metrics = {name: _metric(res["layers"][name], unit) for name, unit in LAYER_METRICS}
    else:
        deciles = statistics.quantiles(res["job_ms"], n=10)
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(statistics.median(res["rounds"]), "s"),
            "job_ms_p50": _metric(statistics.median(res["job_ms"]), "ms"),
            "job_ms_p90": _metric(deciles[-1], "ms"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": res["rounds"], "jobs_per_round": res["jobs_per_round"], "setup_samples": setups,
        "job_ids": [job["id"] for job in job_list], "job_ms": res["job_ms"],
        "failures": res["failures"][: 4 * len(job_list)], "unexpected": res["unexpected"],
        "oracle_s": oracle_s, "total_s": time.perf_counter() - started, "result": result,
    }
    (outdir / "result.json").write_text(json.dumps(detail, indent=1))
    for sub in outdir.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)
    (outdir / "oracles.json").unlink()
    for line in res["failures"][:10]:
        print(f"failed: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
