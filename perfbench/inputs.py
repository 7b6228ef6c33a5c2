"""Seeded inputs of the three workloads, as plain JSON-shaped data.

Only the standard library is used.  The worker regenerates the inputs
from the seed before its set-up clock starts, and must not import numpy
early for that: numpy's import is part of the program's own set-up
cost.  Objects use the wire formats of ``cesaro_lab.schemas``, so the
same payloads feed the in-process workloads and the CLI.

Sizes are drawn from fixed bands with seeded jitter (stratified), so
that the amount of work in a round hardly depends on the seed while the
inputs themselves do.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("seq-tail", "fun-quad", "cli-suite")

SEQ_TOL = 1e-10
NORTH_STAR_P = (1.1, 1.2, 1.5, 2.0, 3.0)


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds are hashed with sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}")


def _bands(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` log-spaced values in [lo, hi], each jittered by a factor
    of up to 1 +/- 0.02."""
    out = []
    for k in range(count):
        frac = k / (count - 1) if count > 1 else 0.5
        base = lo * (hi / lo) ** frac
        out.append(base * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)))
    return out


# ---------------------------------------------------------------------------
# objects
# ---------------------------------------------------------------------------

def vector(pairs) -> dict:
    pairs = sorted(pairs)
    return {"indices": [i for i, _ in pairs], "coeffs": [c for _, c in pairs]}


def basis(index: int) -> dict:
    return vector([(index, 1.0)])


def lp(p: float) -> dict:
    return {"space": "lp", "p": p}


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))


def spread_vector(rng: random.Random, n_max: int, nnz: int, mass: float) -> dict:
    """Vector with ``nnz`` entries, one per equal-width bucket of
    [1, n_max], the last at n_max, and l1 mass ``mass``.

    One entry per bucket keeps the running averages close to a straight
    line, so the vector's norm, and the work it costs, follow from
    (n_max, mass) and not from where the sampled indices fell.
    """
    nnz = max(1, min(nnz, n_max))
    idx = []
    for k in range(nnz - 1):
        lo = 1 + (k * (n_max - 1)) // nnz
        hi = max(lo, ((k + 1) * (n_max - 1)) // nnz)
        idx.append(rng.randint(lo, hi))
    idx = sorted(set(idx) | {n_max})
    coeffs = [_signed(rng, 0.05, 1.0) for _ in idx]
    scale = mass / math.fsum(abs(c) for c in coeffs)
    return vector((i, c * scale) for i, c in zip(idx, coeffs))


def small_vector(rng: random.Random, max_index: int, max_nnz: int, lo: float = 0.05, hi: float = 1.5) -> dict:
    nnz = rng.randint(1, min(max_nnz, max_index))
    idx = rng.sample(range(1, max_index + 1), nnz)
    return vector((i, _signed(rng, lo, hi)) for i in idx)


def unit_block(rng: random.Random, px: float) -> dict:
    """Vector of unit lpx norm with at most 4 entries in [1, 8]."""
    raw = small_vector(rng, 8, 4, 0.2, 1.0)
    norm = math.fsum(abs(c) ** px for c in raw["coeffs"]) ** (1.0 / px)
    return {"indices": raw["indices"], "coeffs": [c / norm for c in raw["coeffs"]]}


def sum_element(rng: random.Random, p: float, n_slots: int, max_slot: int, mass: float) -> dict:
    """Cesaro-sum element with ``n_slots`` components spread over
    [1, max_slot] (one per bucket, the last at max_slot) in l2 components,
    whose component norms add up to ``mass``."""
    slots = []
    for k in range(n_slots - 1):
        lo = 1 + (k * (max_slot - 1)) // n_slots
        hi = max(lo, ((k + 1) * (max_slot - 1)) // n_slots)
        slots.append(rng.randint(lo, hi))
    slots = sorted(set(slots) | {max_slot})
    vecs = [small_vector(rng, 12, 4, 0.2, 1.0) for _ in slots]
    shares = [rng.uniform(0.5, 1.5) for _ in slots]
    total = math.fsum(shares)
    comps = []
    for s, v, share in zip(slots, vecs, shares):
        norm = math.fsum(c * c for c in v["coeffs"]) ** 0.5
        factor = mass * share / (total * norm)
        comps.append({"slot": s, "vector": {"indices": v["indices"], "coeffs": [c * factor for c in v["coeffs"]]}})
    return {"p": p, "components": comps, "stack": lp(2.0)}


def breakpoints(rng: random.Random, cells: int) -> list[float]:
    """Quasi-uniform partition of [0, 1]: cell widths within a factor 3
    of each other."""
    widths = [rng.uniform(0.5, 1.5) for _ in range(cells)]
    total = math.fsum(widths)
    bps = [0.0]
    acc = 0.0
    for w in widths[:-1]:
        acc += w
        bps.append(acc / total)
    bps.append(1.0)
    return bps


def scalar_step(rng: random.Random, cells: int, lo: float = -2.0, hi: float = 2.0) -> dict:
    return {"breakpoints": breakpoints(rng, cells), "cells": [rng.uniform(lo, hi) for _ in range(cells)]}


def dominated(rng: random.Random, step: dict) -> dict:
    """``step`` with every cell scaled by a factor in [0, 1], so that
    the result is dominated by ``step`` pointwise."""
    return dict(step, cells=[v * rng.uniform(0.0, 1.0) for v in step["cells"]])


def vector_step(rng: random.Random, cells: int, zero_prob: float = 0.2) -> dict:
    vals = []
    for _ in range(cells):
        if rng.random() < zero_prob:
            vals.append({"indices": [], "coeffs": []})
        else:
            vals.append(small_vector(rng, 6, 3))
    if all(not v["indices"] for v in vals):
        vals[-1] = small_vector(rng, 6, 3)
    return {"breakpoints": breakpoints(rng, cells), "cells": vals}


def family(rng: random.Random, px: float, cells: int) -> dict:
    block = unit_block(rng, px)
    width = block["indices"][-1] - block["indices"][0] + 1
    return {
        "profile": scalar_step(rng, cells, 0.0, 2.0),
        "space": lp(px),
        "block": block,
        "offset": rng.randint(0, 2),
        "stride": width + rng.randint(0, 2),
    }


def weighted_l1(step: dict, px: float) -> float:
    """Integral of ||f(s)||_px log(1/s) for a vector step function f; a
    lower bound of every Cesaro function norm of f with p >= 1 (Lebesgue
    norms on [0, 1] grow with p)."""
    def anti(s: float) -> float:
        return 0.0 if s == 0.0 else s - s * math.log(s)
    bps = step["breakpoints"]
    mags = _magnitudes(step, px)
    return math.fsum(m * (anti(b) - anti(a)) for m, a, b in zip(mags, bps, bps[1:]))


def lr_norm(step: dict, r: float, px: float) -> float:
    bps = step["breakpoints"]
    mags = _magnitudes(step, px)
    if math.isinf(r):
        return max(mags)
    return math.fsum(m ** r * (b - a) for m, a, b in zip(mags, bps, bps[1:])) ** (1.0 / r)


def _magnitudes(step: dict, px: float) -> list[float]:
    return [math.fsum(abs(c) ** px for c in v["coeffs"]) ** (1.0 / px) for v in step["cells"]]


class CliFiles:
    """Input and report files of the CLI workload, and the bytes each
    report had the first time it was written."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.first_bytes: dict[str, bytes] = {}

    def input(self, job_id: str) -> Path:
        return self.workdir / f"{job_id}.json"

    def report(self, job_id: str) -> Path:
        return self.workdir / f"{job_id}.out"

    def write_inputs(self, job_list: list[dict]) -> None:
        """Write the JSON input file of every CLI job that reads one
        (jobs that read an earlier job's report write none)."""
        for job in job_list:
            payload = job.get("input")
            if job["kind"] == "cli" and payload is not None and "from" not in payload:
                self.input(job["id"]).write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def jobs(workload: str, seed: int) -> list[dict]:
    """The fixed job list of one round of ``workload``."""
    if workload == "seq-tail":
        return _seq_tail(seed)
    if workload == "fun-quad":
        return _fun_quad(seed)
    if workload == "cli-suite":
        return _cli_suite(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload: str) -> list[dict]:
    """Tiny fixed jobs of every kind a workload runs.  Set-up runs them
    once, which fills lazy caches (the Gauss-Legendre rule table) and
    first-use paths before the first timed job."""
    rng = random.Random(f"{workload}/warm-up")
    if workload == "seq-tail":
        fam_block = unit_block(rng, 2.0)
        return [
            {"id": "warm-seq", "kind": "seq_norm", "vector": basis(3), "p": 3.0, "tol": SEQ_TOL},
            {"id": "warm-sum", "kind": "sum_norm", "element": sum_element(rng, 3.0, 2, 4, 1.0), "tol": SEQ_TOL},
            {"id": "warm-iso", "kind": "isometry", "vector": basis(5), "p": 3.0, "tol": SEQ_TOL},
            {"id": "warm-iso-s", "kind": "isometry", "element": sum_element(rng, 3.0, 2, 4, 1.0), "tol": SEQ_TOL},
            {"id": "warm-embed", "kind": "embed", "vector": basis(4), "p": 3.0, "tol": SEQ_TOL, "probes": [1, 4]},
            {"id": "warm-prop21", "kind": "prop21", "tol": SEQ_TOL, "window": [3, 4],
             "family": {"block": fam_block, "space": lp(2.0), "p": 3.0, "offset": 1, "stride": 1},
             "x": sum_element(rng, 3.0, 1, 1, 1.0)},
        ]
    if workload == "fun-quad":
        fam = family(rng, 2.0, 3)
        f = vector_step(rng, 2, 0.0)
        h = scalar_step(rng, 3)
        return [
            {"id": "warm-fun", "kind": "fun_norm", "function": scalar_step(rng, 3), "p": 2.0},
            {"id": "warm-fun1", "kind": "fun_norm", "function": scalar_step(rng, 3), "p": 1.0},
            {"id": "warm-vfun", "kind": "vfun_norm", "function": f, "space": lp(2.0), "p": 1.5},
            {"id": "warm-mono", "kind": "monotone", "function": h, "dominated": dominated(rng, h), "p": 1.5},
        ] + _harness_jobs(rng, "warm", [("thm31", 2.0), ("cor32", 2.0), ("thm33", 2.0), ("thm34", 2.0)],
                          profile_cells=(3, 3), f_cells=(2, 2), fam=fam, f=f)
    if workload == "cli-suite":
        return [
            {"id": "warm-sharp", "kind": "cli", "command": "sharpness", "args": []},
            {"id": "warm-fun", "kind": "cli", "command": "norm-fun", "args": ["--p", "2"],
             "input": scalar_step(rng, 3)},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _seq_tail(seed: int) -> list[dict]:
    rng = _rng("seq-tail", seed)
    out: list[dict] = []
    # north star: e_1 at every p, and (1, 1) at p = 2; seed-independent.
    # p = 1.1 and 1.2 exhaust the virtual-term budget before reaching tol.
    for p in NORTH_STAR_P:
        job = {"id": f"e1-p{p}", "kind": "seq_norm", "vector": basis(1), "p": p, "tol": SEQ_TOL}
        if p < 1.5:
            job["fault"] = "virtual-term budget exhausted before tol"
        out.append(job)
    out.append({"id": "ones-p2", "kind": "seq_norm", "vector": vector([(1, 1.0), (2, 1.0)]),
                "p": 2.0, "tol": SEQ_TOL})
    # dense random vectors with support index 1e4 .. 1e5.  The l1 mass
    # and the density are fixed per class: the mass sets how far the
    # virtual terms reach, so a random mass would make the work per
    # round depend on the seed.  The p = 3 class has one support index,
    # so that the median job of a round sits inside a class of equal jobs.
    for p, count, mass, lo, hi in ((1.5, 8, 0.4, 1e4, 1e5), (2.0, 20, 1.0, 1e4, 1e5),
                                   (3.0, 24, 1.0, 4e4, 4e4)):
        for k, n_max in enumerate(_bands(rng, lo, hi, count)):
            n_max = int(n_max)
            out.append({"id": f"dense-p{p}-{k}", "kind": "seq_norm", "p": p, "tol": SEQ_TOL,
                        "vector": spread_vector(rng, n_max, int(0.045 * n_max), mass)})
    # Cesaro sums: component norms form the sequence
    for k, max_slot in enumerate(_bands(rng, 500, 4000, 24)):
        out.append({"id": f"sum-{k}", "kind": "sum_norm", "tol": SEQ_TOL,
                    "element": sum_element(rng, 3.0, 40, int(max_slot), 1.0)})
    # isometry of the averaging embeddings, sequences (T) and sums (S)
    for k, n_max in enumerate(_bands(rng, 5e3, 2e4, 8)):
        p = (2.0, 3.0)[k % 2]
        out.append({"id": f"iso-T-{k}", "kind": "isometry", "p": p, "tol": SEQ_TOL,
                    "vector": spread_vector(rng, int(n_max), 30, 1.0)})
    for k, max_slot in enumerate(_bands(rng, 300, 1500, 8)):
        out.append({"id": f"iso-S-{k}", "kind": "isometry", "tol": SEQ_TOL,
                    "element": sum_element(rng, 3.0, 20, int(max_slot), 1.0)})
    # materialised embedding, its outer norm, and sampled block masses
    for k, n_max in enumerate(_bands(rng, 1e4, 3e4, 6)):
        n_max = int(n_max)
        probes = sorted({1, n_max // 3, n_max // 2, n_max - 1, n_max, n_max + 17}
                        | {rng.randint(1, n_max) for _ in range(4)})
        out.append({"id": f"embed-{k}", "kind": "embed", "p": 3.0, "tol": SEQ_TOL, "probes": probes,
                    "vector": spread_vector(rng, n_max, 15, 1.0)})
    # windowed Opial check in a Cesaro sum at the default window; x is one
    # component of norm 1, so the work does not depend on the seed
    block = unit_block(rng, 2.0)
    x = sum_element(rng, 2.5, 1, 1, 1.0)
    out.append({"id": "prop21", "kind": "prop21", "tol": SEQ_TOL, "window": [100, 200], "x": x,
                "family": {"block": block, "space": lp(2.0), "p": 2.5, "offset": 6, "stride": 1}})
    return out


def _harness_jobs(rng, tag, plan, profile_cells, f_cells, fam=None, f=None) -> list[dict]:
    out = []
    for k, (check, p) in enumerate(plan):
        px = (1.5, 2.0, 3.0)[k % 3]
        fam_k = fam or family(rng, px, rng.randint(*profile_cells))
        f_k = f or vector_step(rng, rng.randint(*f_cells))
        job = {"id": f"{tag}-{check}-{k}", "kind": check, "family": fam_k, "f": f_k, "p": p}
        if check in ("thm33", "thm34"):
            g_max = max(fam_k["profile"]["cells"])
            job["M"] = job["R"] = g_max * (1.0 + 1e-9) + 1e-12
        if check == "thm34":
            pxf = fam_k["space"]["p"]
            r = p * rng.uniform(1.5, 3.0) if rng.random() < 0.8 else math.inf
            job["r"] = r
            job["K"] = lr_norm(f_k, r, pxf) * 1.01 + 1e-9
            job["eps"] = 0.5 * weighted_l1(f_k, pxf)
        out.append(job)
    return out


# tiny first cell: the quadrature's doubling estimate is below the true
# error, so error_bound is not a bound (fixed inputs, seed-independent)
TINY_FIRST_CELLS = ((1e-12, 2.0), (1e-12, 3.0), (1e-11, 2.0), (1e-11, 3.0))


def _fun_quad(seed: int) -> list[dict]:
    rng = _rng("fun-quad", seed)
    out: list[dict] = []
    for p in (1.0, 1.5, 2.0, 2.5, 3.0):
        for k, cells in enumerate(_bands(rng, 200, 2000, 12)):
            out.append({"id": f"fun-p{p}-{k}", "kind": "fun_norm", "p": p,
                        "function": scalar_step(rng, int(cells))})
    for k, cells in enumerate(_bands(rng, 200, 1000, 10)):
        px = (1.5, 2.0, 3.0)[k % 3]
        p = (1.0, 1.5, 2.0, 2.5, 3.0)[k % 5]
        out.append({"id": f"vfun-{k}", "kind": "vfun_norm", "p": p, "space": lp(px),
                    "function": vector_step(rng, int(cells))})
    for k, cells in enumerate(_bands(rng, 200, 1000, 10)):
        h = scalar_step(rng, int(cells))
        out.append({"id": f"mono-{k}", "kind": "monotone", "p": (1.5, 2.5)[k % 2], "function": h,
                    "dominated": dominated(rng, h)})
    plan = ([("thm31", p) for p in (1.0, 1.5, 2.0, 3.0, 1.0, 1.5, 2.0, 3.0)]
            + [("cor32", p) for p in (1.0, 1.5, 2.0, 3.0, 1.5, 2.0)]
            + [("thm33", p) for p in (1.5, 2.0, 3.0, 1.5, 2.0, 3.0)]
            + [("thm34", p) for p in (1.5, 2.0, 3.0, 1.5, 2.0, 3.0)])
    out.extend(_harness_jobs(rng, "harness", plan, profile_cells=(150, 400), f_cells=(50, 150)))
    for a, p in TINY_FIRST_CELLS:
        out.append({"id": f"tiny-{a:g}-p{p}", "kind": "fun_norm", "p": p,
                    "function": {"breakpoints": [0.0, a, 1.0], "cells": [0.0, 1.0]},
                    "fault": "quadrature doubling estimate reported as a bound"})
    return out


def _cli_suite(seed: int) -> list[dict]:
    rng = _rng("cli-suite", seed)
    out: list[dict] = []

    def cli(jid, command, args, payload=None):
        job = {"id": jid, "kind": "cli", "command": command, "args": args}
        if payload is not None:
            job["input"] = payload
        out.append(job)
        return job

    suite_seeds = [seed % 100000, seed % 100000 + 1]
    for s in suite_seeds:
        cli(f"suite-{s}", "suite", ["--seed", str(s)])
    out.append({"id": f"suite-{suite_seeds[0]}-again", "kind": "cli", "command": "suite",
                "args": ["--seed", str(suite_seeds[0])], "same_bytes_as": f"suite-{suite_seeds[0]}"})
    cli("e1-p2", "norm-seq", ["--p", "2"], basis(1))
    for k in range(19):
        p = (2.0, 3.0)[k % 2]
        v = spread_vector(rng, rng.randint(20, 400), rng.randint(1, 8), rng.uniform(0.5, 2.0))
        cli(f"norm-seq-{k}", "norm-seq", ["--p", repr(p)], v)
    for k in range(15):
        p = (1.0, 1.5, 2.0, 2.5, 3.0)[k % 5]
        cli(f"norm-fun-{k}", "norm-fun", ["--p", repr(p)], scalar_step(rng, rng.randint(3, 40)))
    for k in range(5):
        cli(f"plot-{k}", "plot-data", [], {"from": f"norm-fun-{k}"})
    for k in range(6):
        p = (1.0, 1.5, 2.0, 2.5, 3.0, 2.0)[k]
        px = (1.5, 2.0, 3.0)[k % 3]
        cli(f"norm-vfun-{k}", "norm-vfun", ["--p", repr(p)],
            {"function": vector_step(rng, rng.randint(2, 12)), "space": lp(px)})
    for k in range(8):
        cli(f"sum-norm-{k}", "sum-norm", [],
            sum_element(rng, 3.0, rng.randint(1, 6), rng.randint(6, 40), rng.uniform(0.5, 2.0)))
    for k in range(5):
        p = (2.0, 3.0)[k % 2]
        cli(f"embed-T-{k}", "embed-check", ["--p", repr(p)],
            spread_vector(rng, rng.randint(10, 200), rng.randint(1, 6), rng.uniform(0.5, 2.0)))
    for k in range(5):
        cli(f"embed-S-{k}", "embed-check", [],
            sum_element(rng, 3.0, rng.randint(1, 5), rng.randint(5, 30), rng.uniform(0.5, 2.0)))
    # eps stays 1: for most other eps the witness x = eps*e_1 has a
    # recomputed norm one rounding below eps, every witness is dropped
    # and the command exits 2 (a seed-dependent fault, left out here)
    for k in range(6):
        space = {"space": "finite_l1", "n": 3} if k == 5 else lp((1.5, 2.0, 3.0, 4.0, 2.5)[k])
        R, c = rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)
        cli(f"modulus-{k}", "modulus", ["--eps", "1.0", "--R", repr(R), "--tau", repr(c)], space)
    plan = ([("thm31", p) for p in (1.0, 1.5, 2.0, 3.0, 2.0, 1.5)]
            + [("cor32", p) for p in (1.0, 1.5, 2.0, 3.0, 2.0, 1.5)]
            + [("thm33", p) for p in (1.5, 2.0, 3.0, 2.0, 1.5, 3.0)]
            + [("thm34", p) for p in (1.5, 2.0, 3.0, 2.0, 1.5, 3.0)])
    for job in _harness_jobs(rng, "cli", plan, profile_cells=(1, 6), f_cells=(1, 4)):
        args = ["--p", repr(job["p"])]
        if job["kind"] in ("thm33", "thm34"):
            args += ["--M", repr(job["M"]), "--R", repr(job["R"])]
        if job["kind"] == "thm34":
            args += ["--r", "inf" if math.isinf(job["r"]) else repr(job["r"]),
                     "--K", repr(job["K"]), "--eps", repr(job["eps"])]
        cli(job["id"], job["kind"], args, {"family": job["family"], "f": job["f"]})
    for k in range(10):  # x as in seq-tail: one component of norm 1
        x = sum_element(rng, 3.0, 1, 1, 1.0)
        fam = {"block": unit_block(rng, 2.0), "space": lp(2.0), "p": 3.0, "offset": 8, "stride": 1}
        cli(f"prop21-{k}", "prop21", [], {"family": fam, "x": x})
    for k in range(2):
        cli(f"sharpness-{k}", "sharpness", [])
    return out
