"""Reference values computed independently of cesaro_lab.

Nothing here imports the program.  Each oracle takes the generated
payload (the wire format of ``inputs``) and returns plain floats:

* sequence norms: the head sum_{n<N} (P_n/n)**p summed directly with
  exact prefix sums P_n, plus the tail S**p * zeta(p, N) from mpmath's
  Hurwitz zeta (S = P_N is the l1 mass);
* function norms at integer p: the elementary integral of
  (m + A/t)**p over each cell, evaluated in mpmath;
* function norms at p = 1: the log(1/s)-weighted closed form;
* function norms at other p: the interval [weighted-L1 norm,
  q * Lebesgue p-norm] (Lebesgue norms on [0, 1] grow with p; Hardy's
  inequality bounds the average operator by q);
* embedding blocks: the l1 mass P_n/n of block n.

The oracles run before the worker starts, so they never fall inside a
timed region or the set-up time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

DPS = 30


def _prefixes(vec: dict) -> list[Fraction]:
    """Exact running sums of |coefficients| at each support index."""
    acc = Fraction(0)
    out = []
    for c in vec["coeffs"]:
        acc += Fraction(abs(c))
        out.append(acc)
    return out


def seq_norm(vec: dict, p: float) -> float:
    """Cesaro sequence norm: direct head plus Hurwitz-zeta tail."""
    idx = vec["indices"]
    if not idx:
        return 0.0
    pref = [float(x) for x in _prefixes(vec)]
    n_max = idx[-1]
    head = 0.0
    if n_max > idx[0]:
        runs = np.diff(np.asarray(idx, dtype=np.int64))
        ns = np.arange(idx[0], n_max, dtype=float)
        pn = np.repeat(np.asarray(pref[:-1]), runs)
        head = math.fsum(((pn / ns) ** p).tolist())
    with mpmath.workdps(DPS):
        s = mpmath.mpf(pref[-1])
        total = mpmath.mpf(head) + s ** p * mpmath.zeta(p, n_max)
        return float(total ** (1 / mpmath.mpf(p)))


def block_masses(vec: dict, probes: list[int]) -> list[float]:
    """l1 mass of block n of the averaging embedding: P_n / n."""
    pref = _prefixes(vec)
    idx = vec["indices"]
    out = []
    for n in probes:
        k = -1
        while k + 1 < len(idx) and idx[k + 1] <= n:
            k += 1
        out.append(float(pref[k] / n) if k >= 0 else 0.0)
    return out


def _space_norm(vec: dict, space: dict):
    coeffs = [mpmath.mpf(abs(c)) for c in vec["coeffs"]]
    if not coeffs:
        return mpmath.mpf(0)
    if space["space"] == "finite_l1" or space["p"] == 1.0:
        return mpmath.fsum(coeffs)
    px = mpmath.mpf(space["p"])
    return mpmath.fsum(c ** px for c in coeffs) ** (1 / px)


def component_norms(element: dict) -> dict:
    """The sequence of component norms of a Cesaro-sum element."""
    with mpmath.workdps(DPS):
        pairs = [(c["slot"], float(_space_norm(c["vector"], element["stack"])))
                 for c in element["components"]]
    pairs = [(s, v) for s, v in pairs if v != 0.0]
    return {"indices": [s for s, _ in pairs], "coeffs": [v for _, v in pairs]}


def sum_norm(element: dict) -> float:
    return seq_norm(component_norms(element), element["p"])


# ---------------------------------------------------------------------------
# function norms
# ---------------------------------------------------------------------------

def magnitudes(step: dict, space: dict | None = None) -> list:
    """|h| per cell as mpf values (pointwise space norms in vector mode)."""
    with mpmath.workdps(DPS):
        if space is None:
            return [mpmath.mpf(abs(v)) for v in step["cells"]]
        return [_space_norm(v, space) for v in step["cells"]]


def weighted_l1(bps: list[float], mags: list) -> float:
    """p = 1 norm: integral of |h(s)| log(1/s) via s - s log s."""
    with mpmath.workdps(DPS):
        anti = [mpmath.mpf(0)] + [t - t * mpmath.log(t) for t in map(mpmath.mpf, bps[1:])]
        return float(mpmath.fsum(m * (anti[k + 1] - anti[k]) for k, m in enumerate(mags)))


def ces_integer(bps: list[float], mags: list, p: int) -> float:
    """Cesaro function norm at integer p >= 2, in closed form.

    On cell k the average is F(t)/t = m + A/t with A = F(t_k) - m t_k,
    and (m + A/t)**p integrates term by term after the binomial
    expansion.  The first cell has A = 0.
    """
    with mpmath.workdps(DPS):
        binom = [mpmath.binomial(p, j) for j in range(p + 1)]
        a = mpmath.mpf(bps[1])
        total = [mags[0] ** p * a]
        F = mags[0] * a
        for k in range(1, len(mags)):
            b = mpmath.mpf(bps[k + 1])
            m = mags[k]
            A = F - m * a
            terms = [m ** p * (b - a), binom[1] * m ** (p - 1) * A * mpmath.log(b / a)]
            inv_a, inv_b = 1 / a, 1 / b
            pa, pb = inv_a, inv_b
            for j in range(2, p + 1):
                terms.append(binom[j] * m ** (p - j) * A ** j * (pa - pb) / (j - 1))
                pa *= inv_a
                pb *= inv_b
            total.append(mpmath.fsum(terms))
            F += m * (b - a)
            a = b
        return float(mpmath.fsum(total) ** (mpmath.mpf(1) / p))


def lebesgue(bps: list[float], mags: list, p: float) -> float:
    with mpmath.workdps(DPS):
        pp = mpmath.mpf(p)
        s = mpmath.fsum(m ** pp * (mpmath.mpf(b) - mpmath.mpf(a)) for m, a, b in zip(mags, bps, bps[1:]))
        return float(s ** (1 / pp))


def fun_norm_bounds(bps: list[float], mags: list, p: float) -> tuple[float, float]:
    """[lo, hi] containing the Cesaro function norm; lo == hi when a
    closed form exists (p = 1 and integer p)."""
    if p == 1.0:
        v = weighted_l1(bps, mags)
        return v, v
    if p == int(p):
        v = ces_integer(bps, mags, int(p))
        return v, v
    q = p / (p - 1.0)
    return weighted_l1(bps, mags), q * lebesgue(bps, mags, p)


def step_bounds(step: dict, p: float, space: dict | None = None) -> tuple[float, float]:
    return fun_norm_bounds(step["breakpoints"], magnitudes(step, space), p)


def phi(family: dict, f: dict) -> tuple[list[float], list]:
    """phi(t) = (g(t)**pX + ||f(t)||**pX)**(1/pX) on the common
    refinement of the profile's and f's partitions."""
    g_bps, g_vals = family["profile"]["breakpoints"], family["profile"]["cells"]
    f_bps = f["breakpoints"]
    f_mags = magnitudes(f, family["space"])
    bps = sorted(set(g_bps) | set(f_bps))
    px = mpmath.mpf(family["space"]["p"])
    vals = []
    gi = fi = 0
    with mpmath.workdps(DPS):
        for a, b in zip(bps, bps[1:]):
            while g_bps[gi + 1] <= a:
                gi += 1
            while f_bps[fi + 1] <= a:
                fi += 1
            g = mpmath.mpf(g_vals[gi])
            n = f_mags[fi]
            vals.append((g ** px + n ** px) ** (1 / px))
    return bps, vals


def lp_eta(p: float, eps: float, R: float) -> float:
    """Opial modulus of lp: (R**p + eps**p)**(1/p) - R."""
    with mpmath.workdps(DPS):
        pp, e, r = mpmath.mpf(p), mpmath.mpf(eps), mpmath.mpf(R)
        return float((r ** pp + e ** pp) ** (1 / pp) - r)


# ---------------------------------------------------------------------------
# per-job oracle records
# ---------------------------------------------------------------------------

def for_job(job: dict) -> dict:
    """Everything the output checks of ``job`` compare against."""
    kind = job["kind"]
    if kind == "seq_norm":
        return {"norm": seq_norm(job["vector"], job["p"])}
    if kind == "sum_norm":
        return {"norm": sum_norm(job["element"])}
    if kind == "isometry":
        if "vector" in job:
            return {"norm": seq_norm(job["vector"], job["p"])}
        return {"norm": sum_norm(job["element"])}
    if kind == "embed":
        return {"norm": seq_norm(job["vector"], job["p"]),
                "masses": block_masses(job["vector"], job["probes"])}
    if kind == "prop21":
        return _prop21(job["family"], job["x"], job["window"])
    if kind == "fun_norm":
        return {"bounds": step_bounds(job["function"], job["p"])}
    if kind == "vfun_norm":
        return {"bounds": step_bounds(job["function"], job["p"], job["space"])}
    if kind == "monotone":
        return {"bounds": step_bounds(job["function"], job["p"]),
                "dominated": step_bounds(job["dominated"], job["p"])}
    if kind in ("thm31", "cor32", "thm33", "thm34"):
        return _harness(job["family"], job["f"], job["p"])
    if kind == "cli":
        return _cli(job)
    raise ValueError(f"no oracle for job kind {kind!r}")


def _harness(family: dict, f: dict, p: float) -> dict:
    prof = family["profile"]
    g = fun_norm_bounds(prof["breakpoints"], magnitudes(prof), p)
    bps, vals = phi(family, f)
    return {"g": g, "phi": fun_norm_bounds(bps, vals, p)}


def _prop21(family: dict, x: dict, window) -> dict:
    """Windowed limsups of ||x_k|| and ||x_k - x||.  Both sequences
    decrease in the slot, so the window maximum sits at its start."""
    slot = family["offset"] + window[0] * family["stride"]
    term = {"p": family["p"], "stack": family["space"],
            "components": [{"slot": slot, "vector": family["block"]}]}
    diff = dict(term, components=x["components"] + term["components"])
    return {"norm": sum_norm(term), "diff": sum_norm(diff)}


def _cli(job: dict) -> dict:
    cmd, payload = job["command"], job.get("input")
    args = dict(zip(job["args"][::2], job["args"][1::2]))
    p = float(args.get("--p", "2"))
    if cmd == "norm-seq":
        return {"norm": seq_norm(payload, p)}
    if cmd == "norm-fun":
        return {"bounds": step_bounds(payload, p)}
    if cmd == "norm-vfun":
        return {"bounds": step_bounds(payload["function"], p, payload["space"])}
    if cmd == "sum-norm":
        return {"norm": sum_norm(payload)}
    if cmd == "embed-check":
        return {"norm": sum_norm(payload) if "components" in payload else seq_norm(payload, p)}
    if cmd == "modulus":
        if payload["space"] == "finite_l1":
            return {"eta": "schur", "r_modulus": 1.0}
        eps, R, c = float(args["--eps"]), float(args["--R"]), float(args["--tau"])
        return {"eta": lp_eta(payload["p"], eps, R), "r_modulus": lp_eta(payload["p"], c, 1.0)}
    if cmd in ("thm31", "cor32", "thm33", "thm34"):
        return _harness(payload["family"], payload["f"], p)
    if cmd == "prop21":
        return _prop21(payload["family"], payload["x"], (100, 200))
    if cmd == "plot-data":
        return {}
    if cmd == "sharpness":
        return {"ratio": 2.0}
    if cmd == "suite":
        return {}
    raise ValueError(f"no oracle for command {cmd!r}")
