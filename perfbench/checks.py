"""Output checks: every program output against an oracle value from
``oracles`` or against a property the method must have.

Each check raises CheckFailed when an output is not what a certified
computation must give.  Standard library only, so the checks can run in
the worker right after each job, outside its timed region.
"""

from __future__ import annotations

import math

EPS = 2.220446049250313e-16
# slack for the oracle's own rounding and the program's last-digit
# rounding of inputs it recomputes (prefix sums, pointwise norms)
REL_SLACK = 64.0 * EPS


class CheckFailed(Exception):
    """An output that a correct, certified computation cannot give."""


def _allow(x: float) -> float:
    return REL_SLACK * abs(x) + 1e-300


def certified(value: float, bound: float, oracle: float, what: str, tol: float | None = None) -> None:
    """``value`` +/- ``bound`` contains ``oracle``; with ``tol``, the
    bound must also meet the requested tolerance."""
    if not (math.isfinite(value) and math.isfinite(bound) and bound >= 0.0):
        raise CheckFailed(f"{what}: non-finite output {value!r} +/- {bound!r}")
    err = abs(value - oracle)
    if err > bound + _allow(oracle):
        raise CheckFailed(f"{what}: |{value!r} - oracle {oracle!r}| = {err:.3g} exceeds error_bound {bound:.3g}")
    if tol is not None and bound > tol:
        raise CheckFailed(f"{what}: error_bound {bound:.3g} exceeds tol {tol:.3g}")


def bracketed(value: float, bound: float, lo: float, hi: float, what: str) -> None:
    """``value`` +/- ``bound`` meets the oracle interval [lo, hi]."""
    if not (math.isfinite(value) and math.isfinite(bound) and bound >= 0.0):
        raise CheckFailed(f"{what}: non-finite output {value!r} +/- {bound!r}")
    if lo == hi:
        certified(value, bound, lo, what)
        return
    if value + bound < lo - _allow(lo) or value - bound > hi + _allow(hi):
        raise CheckFailed(f"{what}: {value!r} +/- {bound:.3g} misses the oracle interval [{lo!r}, {hi!r}]")


def close(value: float, oracle: float, what: str, rel: float = 1e-12) -> None:
    if not (math.isfinite(value) and abs(value - oracle) <= rel * abs(oracle) + 1e-300):
        raise CheckFailed(f"{what}: {value!r} differs from oracle {oracle!r}")


def holds(flag, what: str) -> None:
    if flag is not True:
        raise CheckFailed(f"{what}: expected to hold, got {flag!r}")


def dominated(small_value: float, small_bound: float, big_value: float, big_bound: float, what: str) -> None:
    """Monotonicity under pointwise domination: ||g|| <= ||h|| when |g| <= |h|."""
    if small_value - small_bound > big_value + big_bound + _allow(big_value):
        raise CheckFailed(f"{what}: dominated norm {small_value!r} exceeds {big_value!r}")


def block_masses(masses: list[float], oracle: list[float], what: str) -> None:
    """l1 masses of embedding blocks at the sampled indices."""
    if len(masses) != len(oracle):
        raise CheckFailed(f"{what}: {len(masses)} masses for {len(oracle)} probes")
    for k, (m, o) in enumerate(zip(masses, oracle)):
        if abs(m - o) > 1e-13 * abs(o) + 1e-300:
            raise CheckFailed(f"{what}: block mass {k} is {m!r}, oracle {o!r}")


def plot_rows(rows: list[list[str]], step: dict, p: float, what: str) -> None:
    """(t, inner average, integrand) samples of a scalar step function:
    16 Gauss nodes per cell, each inside its cell, the average equal to
    F(t)/t and the integrand to its p-th power."""
    bps, cells = step["breakpoints"], [abs(v) for v in step["cells"]]
    if rows[:1] != [["t", "inner_average", "integrand"]] or len(rows) != 1 + 16 * len(cells):
        raise CheckFailed(f"{what}: expected a header and {16 * len(cells)} rows, got {len(rows)} lines")
    prefix = [0.0]
    for m, a, b in zip(cells, bps, bps[1:]):
        prefix.append(math.fsum([prefix[-1], m * (b - a)]))
    for r, row in enumerate(rows[1:]):
        k = r // 16
        t, avg, integrand = (float(x) for x in row)
        if not bps[k] < t < bps[k + 1]:
            raise CheckFailed(f"{what}: node {t!r} outside cell {k}")
        expect = (prefix[k] + cells[k] * (t - bps[k])) / t
        close(avg, expect, f"{what}: average at t={t!r}", 1e-12)
        close(integrand, expect ** p, f"{what}: integrand at t={t!r}", 1e-11)
