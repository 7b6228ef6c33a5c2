"""Seeded acceptance battery.

Each criterion is a pure function of the seed and returns a result
entry; ``run_suite`` collects them into a report dict whose rendered
bytes depend only on (seed, package version).  The same entries back
the test suite and the ``suite`` CLI command.

Frozen reference constants carry their derivation in a comment; all of
them were produced by independent extended-precision evaluations of the
stated closed forms (the test suite recomputes them).
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import TYPE_CHECKING

from . import __version__
from .embeddings import verify_isometry
from .harness import (
    FunctionShiftFamily,
    check_cor32,
    check_sharpness_footnote,
    check_thm31,
    compute_eta_thm33,
    compute_eta_thm34,
    eval_phi,
    verify_thm33,
    verify_thm34,
)
from .model import (
    DomainError,
    Partition,
    SpaceSpec,
    StepFunction,
    TaggedVector,
    add as add_step,
    pointwise_norm,
    scale as scale_step,
)
from .opial import (
    ModulusQuery,
    VectorShiftFamily,
    eta_closed_form,
    r_closed_form,
    splitting_check,
    estimate_eta_empirical,
)
from .scalar import (
    DEFAULT_TOL,
    _ces_fun_norm_quadrature,
    ces_fun_norm,
    ces_seq_norm,
    check_embedding_inequality,
    lr_fun_norm,
    weighted_l1_norm,
)
from .numerics import EPS
from .schemas import render_json
from .vector import SumElement, ces_vfun_norm, cesaro_sum_norm

if TYPE_CHECKING:
    import random

REPORT_SCHEMA = "cesaro-lab-report/7"

# sqrt(zeta(2)): norm of e_1 (partial sums of n**-2 with integral tail)
SQRT_ZETA2 = 1.2825498301618641
# sqrt(4*zeta(2) - 3): norm of (1, 1, 0, ...)
SEQ_11_NORM = 1.892019098051842
# sqrt(2) - 1: lp modulus at p = 2, eps = R = 1
SQRT2_MINUS_1 = 0.41421356237309503
# level-set recipe at (p=2, f=e_1 in l2, tau=1/2, M=R=1), 50-digit chain
ETA33_ORACLE = 6.157477361207266e-4
W33_ORACLE = 0.11803398874989485  # sqrt(5)/2 - 1
# integrability recipe at (p=2, r=4, eps=K=M=R=1, tau=1/4), 50-digit chain
ETA34_ORACLE = 9.2572170940555016e-10
THETA34_ORACLE = 0.017892644135188866  # 9/503
SQRT_HALF = 0.7071067811865476  # 2**(-1/2): ||g||/||phi|| of the worked family at p = 2


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def _rng(seed: int, *key: int) -> random.Random:
    """The generator of (seed, criterion[, battery]): one stream per
    battery.  A str seed goes through sha512, so the stream is the same
    on every platform and under every PYTHONHASHSEED."""
    import random

    return random.Random("/".join(map(str, (seed, *key))))


def _stratum(values: tuple, k: int, period: int = 1):
    """values[(k // period) % len(values)]: the stratum of draw k, so
    that the first len(values) * period draws meet every stratum."""
    return values[(k // period) % len(values)]


def rand_partition(rng, interior: int | None = None) -> Partition:
    """[0, 1] cut at `interior` random points (a random count up to 4
    when it is None)."""
    k = rng.randrange(0, 5) if interior is None else interior
    pts = sorted(set(rng.uniform(0.05, 0.95) for _ in range(k)))
    return Partition(tuple([0.0] + pts + [1.0]))


def rand_scalar_step(rng, nonnegative: bool = False, interior: int | None = None) -> StepFunction:
    part = rand_partition(rng, interior)
    lo = 0.0 if nonnegative else -2.0
    vals = tuple(rng.uniform(lo, 2.0) for _ in range(part.cell_count))
    return StepFunction(part, vals)


def rand_tagged(rng, max_index: int = 30, max_nnz: int = 4, min_nnz: int = 1) -> TaggedVector:
    nnz = rng.randrange(min_nnz, max_nnz + 1)
    idx = sorted(rng.sample(range(1, max_index + 1), nnz))
    coeffs = []
    for _ in idx:
        c = rng.uniform(-1.5, 1.5)
        if abs(c) < 1e-3:  # keep coefficients away from zero
            c = math.copysign(1e-3, c if c != 0.0 else 1.0)
        coeffs.append(c)
    return TaggedVector(tuple(idx), tuple(coeffs))


def rand_sum_element(rng, p: float, min_slots: int = 1, max_slots: int = 3, max_slot: int = 11) -> SumElement:
    space = SpaceSpec.lp(2.0) if rng.random() < 0.7 else SpaceSpec.finite_l1(8)
    n_slots = rng.randrange(min_slots, max_slots + 1)
    slots = sorted(rng.sample(range(1, max_slot + 1), n_slots))
    comps = tuple((s, rand_tagged(rng, max_index=8)) for s in slots)
    return SumElement(p, comps, space)


def rand_shift_family(rng) -> VectorShiftFamily:
    base = rand_tagged(rng, max_index=20)
    stride = base.width + rng.randrange(0, 3)
    offset = rng.randrange(0, 4)
    return VectorShiftFamily(base, stride, offset)


def rand_function_family(rng, px: float) -> FunctionShiftFamily:
    space = SpaceSpec.lp(px)
    raw = rand_tagged(rng, max_index=10)
    block = raw.scale(1.0 / space.vector_norm(raw))
    profile = rand_scalar_step(rng, nonnegative=True)
    return FunctionShiftFamily(
        profile=profile,
        space=space,
        block=block,
        offset=rng.randrange(0, 3),
        stride=block.width + rng.randrange(0, 3),
    )


def rand_vector_step(rng, space: SpaceSpec, zero_prob: float = 0.3,
                     nonzero: bool = False) -> StepFunction:
    part = rand_partition(rng)
    vals = []
    for _ in range(part.cell_count):
        if rng.random() < zero_prob:
            vals.append(TaggedVector.zero())
        else:
            vals.append(rand_tagged(rng, max_index=6))
    if nonzero and all(v.is_zero for v in vals):
        vals[-1] = rand_tagged(rng, max_index=6)
    return StepFunction(part, tuple(vals), space)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

# Battery sizes (README, "How the suite's batteries are sized"): each
# random battery runs max(one draw per stratum, 4 x the draw at which the
# last of its planted faults is first caught at seeds 42, 1 and 2;
# tests/test_planted_faults.py).  Criterion 05 draws one sample per
# stratum, its nnz bands on both sides of the prefix columns' list/array
# crossover at 12 entries; criterion 04 is a fixed corpus.
_ISOMETRY_BANDS = ((1, 1), (2, 4), (5, 11), (12, 40), (41, 100))
_SPLITTING_DRAWS = 24
_P1_DRAWS = 8
_MONOTONE_DRAWS = 20
_PHI_DRAWS = 12
_STRICT_DRAWS = 12
_SCALED_STRICT_DRAWS = 4
_THM33_DRAWS = 12
_THM34_DRAWS = 16
_DIGEST_ROUNDS = 4

_PXS = (1.5, 2.0, 3.0)  # component spaces lp(pX)
_PS = (1.0, 1.5, 2.0, 3.0)
_PS_ABOVE_ONE = (1.5, 2.0, 3.0)

_NAMES = {
    1: "constant function norm equals 1",
    2: "sequence norm oracle values",
    3: "p=1 norm equals the log-weighted integral",
    4: "Hardy comparison against q times the Lebesgue norm",
    5: "embeddings are isometric to rounding level",
    6: "monotonicity under pointwise domination",
    7: "disjoint-support splitting identity",
    8: "modulus closed forms and canonical attainment",
    9: "averaged inequalities on shift families",
    10: "strictness for nonzero f (including 1e-4 scaling)",
    11: "level-set recipe matches the oracle chain",
    12: "integrability recipe reproduces the rational chain",
    13: "sup-norm sharpness of the constant 2",
    14: "seeded reruns render byte-identical results",
}


def _entry(cid: int, passed: bool, details: dict) -> dict:
    return {"id": cid, "name": _NAMES[cid], "passed": passed, "details": details}


def _battery(draws, n: int) -> tuple[bool, list[float]]:
    """Whether the first n (verdict, statistic) pairs of draws all hold,
    and their statistics."""
    results = list(itertools.islice(draws, n))
    return all(ok for ok, _ in results), [stat for _, stat in results]


def criterion_01(seed: int) -> dict:
    """Constant profile: the averaging operator fixes constants."""
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        for h in (StepFunction.constant(1.0), StepFunction.constant(1.0).on_partition(Partition.uniform(4))):
            worst = max(worst, abs(ces_fun_norm(h, p).value - 1.0))
    return _entry(1, worst <= 1e-10, {"worst_abs_dev": worst})


def criterion_02(seed: int) -> dict:
    e1 = ces_seq_norm(TaggedVector.basis(1), 2.0, tol=1e-9)
    two = ces_seq_norm(TaggedVector.from_dense([1.0, 1.0]), 2.0, tol=1e-9)
    d1 = abs(e1.value - SQRT_ZETA2)
    d2 = abs(two.value - SEQ_11_NORM)
    return _entry(2, d1 <= 1e-8 and d2 <= 1e-8,
                  {"e1_value": e1.value, "e1_dev": d1, "ones_value": two.value, "ones_dev": d2})


def p1_draws(seed: int):
    """(agrees, deviation ratio) of the p = 1 quadrature against the
    log-weighted closed form, which ces_fun_norm returns at p = 1, on a
    random step function with 0 to 4 interior breakpoints in turn.

    The two values may differ by the sum of their carried bounds.  The
    rounded difference and sum are each within u = EPS/2 of theirs, and
    (1 + u)/(1 - u) < 1 + 2 EPS, so the sum times 1 + 2 EPS (rounded,
    still above (1 + u)/(1 - u)) covers both roundings; the ratio of the
    difference to that allowance is at most 1.
    """
    rng = _rng(seed, 3)
    for k in itertools.count():
        h = rand_scalar_step(rng, interior=k % 5)
        a = _ces_fun_norm_quadrature(h, 1.0, DEFAULT_TOL)
        b = weighted_l1_norm(h)
        ratio = abs(a.value - b.value) / ((a.error_bound + b.error_bound) * (1.0 + 2.0 * EPS))
        yield ratio <= 1.0, ratio


def criterion_03(seed: int) -> dict:
    ok, ratios = _battery(p1_draws(seed), _P1_DRAWS)
    return _entry(3, ok, {"worst_dev_ratio": max(ratios), "samples": _P1_DRAWS})


def _hardy_near_extremal(p: float, cells: int) -> StepFunction:
    """t**(-1/p + 0.05) on the geometric partition 0, 2**-(cells - 1),
    ..., 1/2, 1, at each cell's left end and the first cell's right end:
    close to Hardy's extremal t**(-1/p).  ||h||_Ces/||h||_p is 2.04,
    1.61 and 1.32 with 12 cells and 2.53, 1.79 and 1.39 with 41 at
    p = 1.5, 2 and 3, where q is 3, 2 and 1.5."""
    bps = (0.0, *(2.0 ** -k for k in range(cells - 1, 0, -1)), 1.0)
    a = 0.05 - 1.0 / p
    return StepFunction(Partition(bps), (bps[1] ** a, *(t ** a for t in bps[1:-1])))


def criterion_04(seed: int) -> dict:
    """check_embedding_inequality, which allows for the carried bounds of
    both norms, on a near-extremal step function per p and quadrature
    path (12 cells take the float path, 41 the array path).  Random
    steps reach at most 55%, 71% and 82% of q at p = 1.5, 2 and 3, and
    catch no planted fault that this corpus misses (README)."""
    reports = [check_embedding_inequality(_hardy_near_extremal(p, cells), p)
               for cells in (12, 41) for p in _PS_ABOVE_ONE]
    return _entry(4, all(r.holds for r in reports),
                  {"samples": len(reports), "worst_excess": max(-r.quantities["slack"] for r in reports),
                   "worst_ratio": max(r.quantities["lhs"] / r.quantities["rhs"] for r in reports)})


def criterion_05(seed: int) -> dict:
    """verify_isometry on one draw per kind (T, S) x p x nnz band, and
    on the zero element of each kind."""
    rng = _rng(seed, 5)
    samples = []
    for lo, hi in _ISOMETRY_BANDS:
        for p in (1.5, 2.0, 3.0):
            samples.append((rand_tagged(rng, max_index=4 * hi + 8, max_nnz=hi, min_nnz=lo), p))
            samples.append((rand_sum_element(rng, p, min_slots=lo, max_slots=hi, max_slot=4 * hi + 8),))
    samples += [(TaggedVector.zero(), 2.0), (SumElement.zero(2.0),)]
    reports = [verify_isometry(*sample, tol=1e-5) for sample in samples]
    worst = max(r.quantities["worst_block_dev_ratio"] for r in reports)
    return _entry(5, all(r.holds for r in reports), {"samples": len(reports), "worst_block_dev_ratio": worst})


def monotone_draws(seed: int):
    """(holds, excess) of ||g|| <= ||h|| within both carried bounds, for
    g = h damped cell by cell by uniform factors in [0, 1), with p = 1,
    1.5, 2 and 3 in turn."""
    rng = _rng(seed, 6)
    for k in itertools.count():
        h = rand_scalar_step(rng)
        g = StepFunction(h.partition, tuple(v * rng.uniform(0.0, 1.0) for v in h.values))
        p = _stratum(_PS, k)
        nh = ces_fun_norm(h, p)
        ng = ces_fun_norm(g, p)
        excess = ng.value - nh.value - (ng.error_bound + nh.error_bound)
        yield excess <= 0.0, excess


def criterion_06(seed: int) -> dict:
    ok, excesses = _battery(monotone_draws(seed), _MONOTONE_DRAWS)
    return _entry(6, ok, {"worst_excess": max(excesses), "samples": _MONOTONE_DRAWS})


def criterion_07(seed: int) -> dict:
    rng = _rng(seed, 7)
    ps = (1.5, 2.0, 3.0)
    worst = 0.0
    ok = True
    for k in range(_SPLITTING_DRAWS):
        x = rand_tagged(rng) if k % 7 else TaggedVector.zero()
        fam = rand_shift_family(rng)
        report = splitting_check(x, fam, ps[k % 3])
        ok = ok and report.holds
        worst = max(worst, report.quantities["rel_dev"])
    return _entry(7, ok and worst <= 1e-14, {"worst_rel_dev": worst, "samples": _SPLITTING_DRAWS})


def criterion_08(seed: int) -> dict:
    query = ModulusQuery(SpaceSpec.lp(2.0), eps=1.0, R=1.0)
    closed = eta_closed_form(query)
    d_closed = abs(closed - SQRT2_MINUS_1)
    estimate = estimate_eta_empirical(query, 5)
    gap = abs(estimate.closed_form_gap)
    r_ok = all(
        r_closed_form(SpaceSpec.lp(1.0), c) == 1.0 and r_closed_form(SpaceSpec.finite_l1(3), c) == 1.0
        for c in (0.5, 1.0, 2.0)
    )
    passed = d_closed <= 1e-12 and gap <= 1e-12 and r_ok
    return _entry(8, passed,
                  {"closed_form": float(closed), "closed_form_dev": d_closed,
                   "estimate": estimate.estimate, "gap": gap, "schur_r": 1.0})


def _worked_family(c: float = 1.0):  # ||g|| = c and ||phi|| = 2**(1/2) c at p = 2 with _worked_f(c)
    return FunctionShiftFamily(
        profile=StepFunction.constant(c),
        space=SpaceSpec.lp(2.0),
        block=TaggedVector.basis(1),
        offset=1,
        stride=1,
    )


def _worked_f(c: float = 1.0):
    return StepFunction.constant(TaggedVector.basis(1, c), SpaceSpec.lp(2.0))


def phi_draws(seed: int):
    """(agrees, deviation ratio) of ||phi|| from the closed form
    (eval_phi) against the norm of f_n0 - f built at the stabilization
    index n0, with every (pX, p) pair in turn.  The closed form takes
    ||f_n(t)|| = g(t), the direct route g(t)||block||, with ||block||
    within 1e-12 of 1: phi moves by at most phi(t) | ||block|| - 1 |."""
    rng = _rng(seed, 9)
    for k in itertools.count():
        fam = rand_function_family(rng, _stratum(_PXS, k))
        f = rand_vector_step(rng, fam.space)
        p = _stratum(_PS, k)
        closed = ces_fun_norm(eval_phi(fam, f), p)
        direct = ces_vfun_norm(add_step(fam.term(fam.stabilization_index(f)), scale_step(f, -1.0)), p)
        allowed = (closed.error_bound + direct.error_bound
                   + abs(fam.space.vector_norm(fam.block) - 1.0) * closed.value)
        ratio = abs(closed.value - direct.value) / allowed
        yield ratio <= 1.0, ratio


def criterion_09(seed: int) -> dict:
    """Theorem 3.1's worked values at three scales; then, as neither
    verdict can fail on a shift family (Thm31Report), the phi battery."""
    worked_ok = True
    devs = dict.fromkeys(("r_dev", "lhs1_dev", "rhs1_dev", "lhs2_dev", "rhs2_dev"), 0.0)
    for c in (1.0, 1e-200, 1e200):  # p = 2: r = 2**(-1/2), lhs1 = 1, rhs1 = 3/2, lhs2 = c, rhs2 = 2c
        rpt = check_thm31(_worked_family(c), _worked_f(c), 2.0)
        got = (rpt.r - SQRT_HALF, rpt.lhs1 - 1.0, rpt.rhs1 - 1.5, rpt.lhs2 / c - 1.0, rpt.rhs2 / c - 2.0)
        devs = {key: max(dev, abs(d)) for (key, dev), d in zip(devs.items(), got)}
        worked_ok = worked_ok and rpt.holds1 and rpt.holds2
    worked_ok = worked_ok and all(v <= 1e-8 for v in devs.values())
    battery_ok, ratios = _battery(phi_draws(seed), _PHI_DRAWS)
    details = {"battery": _PHI_DRAWS, "worst_phi_dev_ratio": max(ratios), "battery_ok": battery_ok}
    details.update(devs)
    return _entry(9, worked_ok and battery_ok, details)


def strict_draws(seed: int):
    """(holds, gap margin) of check_cor32 on random nonzero f, with every
    (pX, p) pair in turn."""
    rng = _rng(seed, 10)
    for k in itertools.count():
        fam = rand_function_family(rng, _stratum(_PXS, k))
        f = rand_vector_step(rng, fam.space, nonzero=True)
        rpt = check_cor32(fam, f, _stratum(_PS, k))
        yield rpt.holds, rpt.quantities["gap"] - rpt.quantities["gap_error"]


def scaled_strict_draws(seed: int):
    """check_cor32 on f scaled by 1e-4, where the gap must stay above its
    error budget, with every pair of pX and p in {1.5, 2} in turn."""
    rng = _rng(seed, 10, 2)
    for k in itertools.count():
        fam = rand_function_family(rng, _stratum((1.5, 2.0), k, 2))
        f = rand_vector_step(rng, fam.space, zero_prob=0.0, nonzero=True)
        rpt = check_cor32(fam, scale_step(f, 1e-4), _stratum((1.5, 2.0), k))
        yield rpt.holds, rpt.quantities["gap"] - rpt.quantities["gap_error"]


def criterion_10(seed: int) -> dict:
    ok, margins = _battery(strict_draws(seed), _STRICT_DRAWS)
    scaled_ok, scaled = _battery(scaled_strict_draws(seed), _SCALED_STRICT_DRAWS)
    return _entry(10, ok and scaled_ok,
                  {"instances": len(margins) + len(scaled), "worst_gap_margin": min(margins + scaled)})


def _w_dev_ratio(w: float, px: float, tau: float, M: float) -> float:
    """|w - w'| over its rounding allowance, for w' the lp(pX) modulus
    (M**pX + tau**pX)**(1/pX) - M formed here as M expm1(log1p(x)/pX)
    with x = (tau/M)**pX.

    Rounding (u = EPS/2, libm within an ulp, 2u): x is within (pX + 2)u,
    the quotient's u raised to pX and pow's own; log1p, whose condition
    number is at most 1, adds 2u; the quotient by pX adds u; expm1 has
    condition number at most 1 + y at y = log1p(x)/pX, and adds 2u; the
    product by M adds u.  So w' is within ((1 + y)(pX + 5) + 3)u of the
    modulus, and w is held to twice that, as if it came by a route no
    more accurate.
    """
    y = math.log1p((tau / M) ** px) / px
    closed = M * math.expm1(y)
    return abs(w - closed) / (((1.0 + y) * (px + 5.0) + 3.0) * EPS * closed)


def thm33_draws(seed: int):
    """(holds, w deviation ratio) of the level-set recipe on random
    nonzero f: eta and w positive, and w the lp modulus at (tau, M)
    (_w_dev_ratio), with every (pX, p) pair in turn."""
    rng = _rng(seed, 11)
    for k in itertools.count():
        px = _stratum(_PXS, k)
        f = rand_vector_step(rng, SpaceSpec.lp(px), zero_prob=0.2, nonzero=True)
        p = _stratum(_PS, k)
        tau = rng.uniform(0.1, 0.9) * ces_fun_norm(pointwise_norm(f), p).value
        M = rng.uniform(0.5, 2.0)
        r = compute_eta_thm33(f, p, M=M, R=rng.uniform(0.5, 2.0), tau=tau)
        ratio = _w_dev_ratio(r.w, px, tau, M)
        yield r.eta > 0.0 and r.w > 0.0 and ratio <= 1.0, ratio


def criterion_11(seed: int) -> dict:
    """The worked chain at (p = 2, f = e_1, tau = 1/2, M = R = 1), then
    the recipe battery.  t0 = 1/2 and theta = 1 are held to 1e-9, w and
    eta relative to their correctly rounded oracles.  Rounding (u =
    EPS/2, libm within an ulp, 2u; the oracle and the quotient w/oracle
    add u each):
    - w = expm1(log1p(1/4)/2), with 1/4 and the halving exact: log1p's
      2u times expm1's condition number 1.06 at y = 0.11, and expm1's
      2u, make 4.2u, and 6.2u in all: 4 EPS;
    - nu = w (1/2)**(1/2) (pow, product) is within 7.2u, cap = 4
      2**(1/2) within 2u, and x = (nu/cap)**2 within 2(7.2 + 2 + 1)u
      + 2u = 22.4u; eta = -cap expm1(log1p(-x)/2), both condition
      numbers near 1 at x = 2e-4, adds 2u + 2u and the product's 3u:
      29.4u, and 31.4u in all: 16 EPS.
    """
    recipe = compute_eta_thm33(_worked_f(), 2.0, M=1.0, R=1.0, tau=0.5)
    devs = {
        "t0_dev": abs(recipe.t0 - 0.5),
        "theta_dev": abs(recipe.theta - 1.0),
        "w_rel_dev": abs(recipe.w / W33_ORACLE - 1.0),
        "eta_rel_dev": abs(recipe.eta / ETA33_ORACLE - 1.0),
    }
    worked_ok = (devs["t0_dev"] <= 1e-9 and devs["theta_dev"] <= 1e-9
                 and devs["w_rel_dev"] <= 4.0 * EPS and devs["eta_rel_dev"] <= 16.0 * EPS)
    conclusion = verify_thm33(_worked_family(), _worked_f(), 2.0, M=1.0, R=1.0, tau=0.5)
    battery_ok, ratios = _battery(thm33_draws(seed), _THM33_DRAWS)
    details = {"eta": recipe.eta, "conclusion_holds": conclusion.holds, "battery_ok": battery_ok,
               "worst_w_dev_ratio": max(ratios)}
    details.update(devs)
    return _entry(11, worked_ok and conclusion.holds and battery_ok, details)


def thm34_draws(seed: int):
    """(holds, w deviation ratio) of verify_thm34 on random nonzero f:
    the conclusion holds, eta is positive and w is the lp modulus at
    (tau, M) (_w_dev_ratio), with every (pX, p) pair in turn and r
    infinite on every fourth draw."""
    rng = _rng(seed, 12)
    for k in itertools.count():
        px = _stratum(_PXS, k)
        fam = rand_function_family(rng, px)
        f = rand_vector_step(rng, fam.space, zero_prob=0.2, nonzero=True)
        p = _stratum(_PS_ABOVE_ONE, k, 3)
        r_exp = math.inf if k % 4 == 3 else p * rng.uniform(1.5, 3.0)
        prof = pointwise_norm(f)
        K = lr_fun_norm(prof, r_exp).value * rng.uniform(1.0, 1.5) + 1e-9
        eps = ces_fun_norm(prof, p).value * 0.5
        q = p / (p - 1.0)
        tau = eps / (2.0 * q)
        M = max(fam.profile.values) + rng.uniform(0.0, 1.0)
        R = ces_fun_norm(fam.profile, p).value + rng.uniform(0.0, 1.0)
        rep = verify_thm34(fam, f, p, r=r_exp, eps=eps, M=M, K=K, R=R, tau=tau)
        ratio = _w_dev_ratio(rep.quantities["w"], px, tau, M)
        yield rep.holds and rep.quantities["eta"] > 0.0 and ratio <= 1.0, ratio


def criterion_12(seed: int) -> dict:
    """The worked chain at (p = 2, r = 4, eps = K = M = R = 1, tau =
    1/4), then the recipe battery.  Q = 9/256 and t0 = 503/512 are exact;
    theta and eta are held relative to their correctly rounded oracles,
    with rounding counted as in criterion 11:
    - theta = expm1(-log1p(-Q/2)): log1p's 2u times expm1's condition
      number 1.01, and expm1's 2u, make 4.02u, and 6.02u in all: 4 EPS;
    - w = expm1(log1p(1/16)/2) is within 4.03u, nu = w Q (theta/2)**(1/2)
      within 4.03u + u + (2.01u + 2u) + u = 10.04u, x within
      2(10.04 + 2 + 1)u + 2u = 28.1u and eta within 28.1u + 7u: 37.1u
      in all, 24 EPS.
    """
    recipe = compute_eta_thm34(2.0, r=4.0, eps=1.0, M=1.0, K=1.0, R=1.0, tau=0.25, space=SpaceSpec.lp(2.0))
    exact_ok = recipe.Q == 9.0 / 256.0 and recipe.t0 == 503.0 / 512.0
    theta_rel_dev = abs(recipe.theta / THETA34_ORACLE - 1.0)
    eta_rel_dev = abs(recipe.eta / ETA34_ORACLE - 1.0)
    worked_ok = exact_ok and theta_rel_dev <= 4.0 * EPS and eta_rel_dev <= 24.0 * EPS
    conclusion = verify_thm34(_worked_family(), _worked_f(), 2.0, r=4.0, eps=1.0, M=1.0, K=1.0, R=1.0, tau=0.25)
    battery_ok, ratios = _battery(thm34_draws(seed), _THM34_DRAWS)
    return _entry(12, worked_ok and conclusion.holds and battery_ok,
                  {"Q": recipe.Q, "t0": recipe.t0, "theta": recipe.theta, "eta": recipe.eta,
                   "theta_rel_dev": theta_rel_dev, "eta_rel_dev": eta_rel_dev,
                   "conclusion_holds": conclusion.holds, "battery_ok": battery_ok,
                   "worst_w_dev_ratio": max(ratios)})


def criterion_13(seed: int) -> dict:
    rpt = check_sharpness_footnote()
    ratio = rpt.quantities["ratio"]
    return _entry(13, rpt.holds and ratio == 2.0,
                  {"ratio": ratio, "limsup_norm": rpt.quantities["limsup_norm"],
                   "limsup_diff": rpt.quantities["limsup_diff"]})


def digest_rounds(seed: int):
    """The seeded sub-battery of criterion 14, one round at a time: a
    function norm, a sequence norm and a Cesaro-sum norm, with p = 1.5,
    2 and 3 in turn."""
    rng = _rng(seed, 14)
    for k in itertools.count():
        p = _stratum(_PS_ABOVE_ONE, k)
        yield (ces_fun_norm(rand_scalar_step(rng), p).value,
               ces_seq_norm(rand_tagged(rng), p, tol=1e-8).value,
               cesaro_sum_norm(rand_sum_element(rng, p), tol=1e-8).value)


def criterion_14(seed: int) -> dict:
    """Determinism: identical (seed) reproduces identical rendered bytes.

    Re-runs the seeded sub-battery from scratch and compares the
    rendered output; the CLI-level byte identity of whole reports is
    asserted by the acceptance tests on top of this.
    """

    def digest() -> str:
        return render_json([v for row in itertools.islice(digest_rounds(seed), _DIGEST_ROUNDS) for v in row])

    first, second = digest(), digest()
    return _entry(14, first == second, {"bytes": len(first), "identical": first == second})


_CRITERIA = (
    criterion_01, criterion_02, criterion_03, criterion_04, criterion_05,
    criterion_06, criterion_07, criterion_08, criterion_09, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14,
)


def run_criterion(cid: int, seed: int) -> dict:
    """Criterion cid's entry at seed.  A criterion that raises has
    failed: its entry names the exception, and the traceback goes to
    stderr, out of the byte-deterministic report."""
    try:
        return _CRITERIA[cid - 1](seed)
    except Exception as exc:  # noqa: BLE001 - any exception is a failed check, reported
        import traceback  # only a failing suite pays for its import

        print(f"criterion {cid:02d} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return _entry(cid, False, {"error": f"{type(exc).__name__}: {exc}"})


def run_suite(seed: int = 42) -> dict:
    """Run every acceptance criterion; deterministic for a fixed seed."""
    if seed < 0:
        raise DomainError(f"the suite seed must be nonnegative, got {seed!r}")
    entries = [run_criterion(cid, seed) for cid in range(1, len(_CRITERIA) + 1)]
    return {
        "schema": REPORT_SCHEMA,
        "command": "suite",
        "version": __version__,
        "seed": seed,
        "passed": all(e["passed"] for e in entries),
        "criteria": entries,
    }
