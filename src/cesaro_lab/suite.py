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

import math
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
from .schemas import render_json
from .vector import SumElement, ces_vfun_norm, cesaro_sum_norm

if TYPE_CHECKING:
    import numpy as np

REPORT_SCHEMA = "cesaro-lab-report/6"

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

def _rng(seed: int, criterion: int) -> np.random.Generator:
    import numpy as np  # only the suite needs it: small CLI calls never load numpy

    return np.random.default_rng([seed, criterion])


def rand_partition(rng, max_interior: int = 4) -> Partition:
    k = int(rng.integers(0, max_interior + 1))
    pts = sorted(set(float(t) for t in rng.uniform(0.05, 0.95, size=k)))
    return Partition(tuple([0.0] + pts + [1.0]))


def rand_scalar_step(rng, max_interior: int = 4, scale: float = 2.0,
                     nonnegative: bool = False) -> StepFunction:
    part = rand_partition(rng, max_interior)
    lo = 0.0 if nonnegative else -scale
    vals = tuple(float(v) for v in rng.uniform(lo, scale, size=part.cell_count))
    return StepFunction(part, vals)


def rand_tagged(rng, max_index: int = 30, max_nnz: int = 4, scale: float = 1.5,
                min_nnz: int = 1) -> TaggedVector:
    nnz = int(rng.integers(min_nnz, max_nnz + 1))
    idx = sorted(int(i) for i in rng.choice(range(1, max_index + 1), size=nnz, replace=False))
    coeffs = []
    for _ in idx:
        c = float(rng.uniform(-scale, scale))
        if abs(c) < 1e-3:  # keep coefficients away from zero
            c = math.copysign(1e-3, c if c != 0.0 else 1.0)
        coeffs.append(c)
    return TaggedVector(tuple(idx), tuple(coeffs))


def rand_sum_element(rng, p: float, min_slots: int = 1, max_slots: int = 3, max_slot: int = 11) -> SumElement:
    space = SpaceSpec.lp(2.0) if rng.uniform() < 0.7 else SpaceSpec.finite_l1(8)
    n_slots = int(rng.integers(min_slots, max_slots + 1))
    slots = sorted(int(s) for s in rng.choice(range(1, max_slot + 1), size=n_slots, replace=False))
    comps = tuple((s, rand_tagged(rng, max_index=8)) for s in slots)
    return SumElement(p, comps, space)


def rand_shift_family(rng, max_index: int = 20) -> VectorShiftFamily:
    base = rand_tagged(rng, max_index=max_index)
    stride = base.width + int(rng.integers(0, 3))
    offset = int(rng.integers(0, 4))
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
        offset=int(rng.integers(0, 3)),
        stride=block.width + int(rng.integers(0, 3)),
    )


def rand_vector_step(rng, space: SpaceSpec, zero_prob: float = 0.3,
                     nonzero: bool = False) -> StepFunction:
    part = rand_partition(rng)
    vals = []
    for _ in range(part.cell_count):
        if rng.uniform() < zero_prob:
            vals.append(TaggedVector.zero())
        else:
            vals.append(rand_tagged(rng, max_index=6))
    if nonzero and all(v.is_zero for v in vals):
        vals[-1] = rand_tagged(rng, max_index=6)
    return StepFunction(part, tuple(vals), space)


def rand_thm31_instance(rng):
    px = [1.5, 2.0, 3.0][int(rng.integers(0, 3))]
    fam = rand_function_family(rng, px)
    f = rand_vector_step(rng, fam.space)
    return fam, f


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

# Battery sizes (README, "How the suite's batteries are sized"):
# criterion 05 draws one sample per stratum, its nnz bands on both sides
# of the prefix columns' list/array crossover at 12 entries; criterion
# 07 runs 4x the 13 draws that catch its last planted fault at seed 42.
_ISOMETRY_BANDS = ((1, 1), (2, 4), (5, 11), (12, 40), (41, 100))
_SPLITTING_DRAWS = 52


def _entry(cid: int, name: str, passed: bool, details: dict) -> dict:
    return {"id": cid, "name": name, "passed": passed, "details": details}


def criterion_01(seed: int) -> dict:
    """Constant profile: the averaging operator fixes constants."""
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        for h in (StepFunction.constant(1.0), StepFunction.constant(1.0).on_partition(Partition.uniform(4))):
            worst = max(worst, abs(ces_fun_norm(h, p).value - 1.0))
    return _entry(1, "constant function norm equals 1", worst <= 1e-10, {"worst_abs_dev": worst})


def criterion_02(seed: int) -> dict:
    e1 = ces_seq_norm(TaggedVector.basis(1), 2.0, tol=1e-9)
    two = ces_seq_norm(TaggedVector.from_dense([1.0, 1.0]), 2.0, tol=1e-9)
    d1 = abs(e1.value - SQRT_ZETA2)
    d2 = abs(two.value - SEQ_11_NORM)
    return _entry(
        2,
        "sequence norm oracle values",
        d1 <= 1e-8 and d2 <= 1e-8,
        {"e1_value": e1.value, "e1_dev": d1, "ones_value": two.value, "ones_dev": d2},
    )


def criterion_03(seed: int) -> dict:
    """The p = 1 quadrature against the log-weighted closed form, which
    ces_fun_norm returns at p = 1."""
    rng = _rng(seed, 3)
    worst = 0.0
    for _ in range(200):
        h = rand_scalar_step(rng)
        a = _ces_fun_norm_quadrature(h, 1.0, DEFAULT_TOL).value
        b = weighted_l1_norm(h).value
        worst = max(worst, abs(a - b) / (1.0 + b))
    return _entry(3, "p=1 norm equals the log-weighted integral", worst <= 1e-8,
                  {"worst_rel_dev": worst, "samples": 200})


def criterion_04(seed: int) -> dict:
    """check_embedding_inequality, which allows for the carried error
    bounds of both norms, on 200 random functions."""
    rng = _rng(seed, 4)
    ps = (1.5, 2.0, 3.0)
    worst = -math.inf
    ok = True
    for k in range(200):
        rpt = check_embedding_inequality(rand_scalar_step(rng), ps[k % 3])
        ok = ok and rpt.holds
        worst = max(worst, -rpt.quantities["slack"])
    return _entry(4, "Hardy comparison against q times the Lebesgue norm", ok,
                  {"worst_excess": worst, "samples": 200})


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
    return _entry(5, "embeddings are isometric to rounding level", all(r.holds for r in reports),
                  {"samples": len(reports), "worst_block_dev_ratio": worst})


def criterion_06(seed: int) -> dict:
    rng = _rng(seed, 6)
    ps = (1.0, 1.5, 2.0, 3.0)
    ok = True
    worst = -math.inf
    for k in range(200):
        h = rand_scalar_step(rng)
        damp = rng.uniform(0.0, 1.0, size=h.partition.cell_count)
        g = StepFunction(h.partition, tuple(v * float(u) for v, u in zip(h.values, damp)))
        p = ps[k % 4]
        nh = ces_fun_norm(h, p)
        ng = ces_fun_norm(g, p)
        excess = ng.value - nh.value - (ng.error_bound + nh.error_bound)
        ok = ok and excess <= 0.0
        worst = max(worst, excess)
    return _entry(6, "monotonicity under pointwise domination", ok,
                  {"worst_excess": worst, "samples": 200})


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
    return _entry(7, "disjoint-support splitting identity", ok and worst <= 1e-14,
                  {"worst_rel_dev": worst, "samples": _SPLITTING_DRAWS})


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
    return _entry(8, "modulus closed forms and canonical attainment", passed,
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


def criterion_09(seed: int) -> dict:
    """Theorem 3.1's worked values at three scales; then, as neither
    verdict can fail on a shift family (Thm31Report), ||phi|| from the
    closed form (eval_phi) against the norm of f_n0 - f built at the
    stabilization index n0.  The closed form takes ||f_n(t)|| = g(t),
    the direct route g(t)||block||, with ||block|| within 1e-12 of 1:
    phi moves by at most phi(t) | ||block|| - 1 |."""
    rng = _rng(seed, 9)
    worked_ok = True
    devs = dict.fromkeys(("r_dev", "lhs1_dev", "rhs1_dev", "lhs2_dev", "rhs2_dev"), 0.0)
    for c in (1.0, 1e-200, 1e200):  # p = 2: r = 2**(-1/2), lhs1 = 1, rhs1 = 3/2, lhs2 = c, rhs2 = 2c
        rpt = check_thm31(_worked_family(c), _worked_f(c), 2.0)
        got = (rpt.r - SQRT_HALF, rpt.lhs1 - 1.0, rpt.rhs1 - 1.5, rpt.lhs2 / c - 1.0, rpt.rhs2 / c - 2.0)
        devs = {key: max(dev, abs(d)) for (key, dev), d in zip(devs.items(), got)}
        worked_ok = worked_ok and rpt.holds1 and rpt.holds2
    worked_ok = worked_ok and all(v <= 1e-8 for v in devs.values())
    ps = (1.0, 1.5, 2.0, 3.0)
    worst = 0.0
    for k in range(60):
        fam, f = rand_thm31_instance(rng)
        p = ps[k % 4]
        closed = ces_fun_norm(eval_phi(fam, f), p)
        direct = ces_vfun_norm(add_step(fam.term(fam.stabilization_index(f)), scale_step(f, -1.0)), p)
        allowed = (closed.error_bound + direct.error_bound
                   + abs(fam.space.vector_norm(fam.block) - 1.0) * closed.value)
        worst = max(worst, abs(closed.value - direct.value) / allowed)
    battery_ok = worst <= 1.0
    details = {"battery": 60, "worst_phi_dev_ratio": worst, "battery_ok": battery_ok}
    details.update(devs)
    return _entry(9, "averaged inequalities on shift families", worked_ok and battery_ok, details)


def criterion_10(seed: int) -> dict:
    rng = _rng(seed, 10)
    ok = True
    worst_margin = math.inf
    count = 0
    for k in range(40):
        p = (1.0, 1.5, 2.0, 3.0)[k % 4]
        fam, f = rand_thm31_instance(rng)
        if f.is_zero():
            continue
        rpt = check_cor32(fam, f, p)
        ok = ok and rpt.holds
        worst_margin = min(worst_margin, rpt.quantities["gap"] - rpt.quantities["gap_error"])
        count += 1
    for k in range(10):  # scaled perturbations: the gap must stay above its error budget
        p = (1.5, 2.0)[k % 2]
        fam = rand_function_family(rng, (1.5, 2.0)[(k + 1) % 2])
        f = rand_vector_step(rng, fam.space, zero_prob=0.0, nonzero=True)
        rpt = check_cor32(fam, scale_step(f, 1e-4), p)
        ok = ok and rpt.holds
        worst_margin = min(worst_margin, rpt.quantities["gap"] - rpt.quantities["gap_error"])
        count += 1
    return _entry(10, "strictness for nonzero f (including 1e-4 scaling)", ok,
                  {"instances": count, "worst_gap_margin": worst_margin})


def criterion_11(seed: int) -> dict:
    rng = _rng(seed, 11)
    recipe = compute_eta_thm33(_worked_f(), 2.0, M=1.0, R=1.0, tau=0.5)
    devs = {
        "t0_dev": abs(recipe.t0 - 0.5),
        "theta_dev": abs(recipe.theta - 1.0),
        "w_dev": abs(recipe.w - W33_ORACLE),
        "eta_dev": abs(recipe.eta - ETA33_ORACLE),
    }
    worked_ok = all(v <= 1e-9 for v in devs.values())
    conclusion = verify_thm33(_worked_family(), _worked_f(), 2.0, M=1.0, R=1.0, tau=0.5)
    battery_ok = True
    for _ in range(25):
        px = float(rng.choice([1.5, 2.0, 3.0]))
        space = SpaceSpec.lp(px)
        f = rand_vector_step(rng, space, zero_prob=0.2, nonzero=True)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        fnorm = ces_fun_norm(pointwise_norm(f), p).value
        tau = float(rng.uniform(0.1, 0.9)) * fnorm
        if tau <= 0.0:
            continue
        r = compute_eta_thm33(f, p, M=float(rng.uniform(0.5, 2.0)), R=float(rng.uniform(0.5, 2.0)), tau=tau)
        battery_ok = battery_ok and r.eta > 0.0 and r.w > 0.0
    details = {"eta": recipe.eta, "conclusion_holds": conclusion.holds, "battery_ok": battery_ok}
    details.update(devs)
    return _entry(11, "level-set recipe matches the oracle chain", worked_ok and conclusion.holds and battery_ok, details)


def criterion_12(seed: int) -> dict:
    rng = _rng(seed, 12)
    recipe = compute_eta_thm34(2.0, r=4.0, eps=1.0, M=1.0, K=1.0, R=1.0, tau=0.25, space=SpaceSpec.lp(2.0))
    exact_ok = recipe.Q == 9.0 / 256.0 and recipe.t0 == 503.0 / 512.0
    theta_ok = abs(recipe.theta - THETA34_ORACLE) <= 1e-12
    eta_ok = recipe.eta > 0.0 and abs(recipe.eta - ETA34_ORACLE) <= 1e-9
    conclusion = verify_thm34(_worked_family(), _worked_f(), 2.0, r=4.0, eps=1.0, M=1.0, K=1.0, R=1.0, tau=0.25)
    battery_ok = True
    for _ in range(25):
        px = float(rng.choice([1.5, 2.0, 3.0]))
        fam = rand_function_family(rng, px)
        f = rand_vector_step(rng, fam.space, zero_prob=0.2, nonzero=True)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        r_exp = p * float(rng.uniform(1.5, 3.0)) if rng.uniform() < 0.8 else math.inf
        prof = pointwise_norm(f)
        K = lr_fun_norm(prof, r_exp).value * float(rng.uniform(1.0, 1.5)) + 1e-9
        eps = ces_fun_norm(prof, p).value * 0.5
        if eps <= 0.0:
            continue
        q = p / (p - 1.0)
        tau = eps / (2.0 * q)
        M = max(fam.profile.values) + float(rng.uniform(0.0, 1.0))
        R = ces_fun_norm(fam.profile, p).value + float(rng.uniform(0.0, 1.0))
        rep = verify_thm34(fam, f, p, r=r_exp, eps=eps, M=M, K=K, R=R, tau=tau)
        battery_ok = battery_ok and rep.holds and rep.quantities["eta"] > 0.0
    passed = exact_ok and theta_ok and eta_ok and conclusion.holds and battery_ok
    return _entry(12, "integrability recipe reproduces the rational chain", passed,
                  {"Q": recipe.Q, "t0": recipe.t0, "theta": recipe.theta, "eta": recipe.eta,
                   "conclusion_holds": conclusion.holds, "battery_ok": battery_ok})


def criterion_13(seed: int) -> dict:
    rpt = check_sharpness_footnote()
    ratio = rpt.quantities["ratio"]
    return _entry(13, "sup-norm sharpness of the constant 2", rpt.holds and ratio == 2.0,
                  {"ratio": ratio, "limsup_norm": rpt.quantities["limsup_norm"],
                   "limsup_diff": rpt.quantities["limsup_diff"]})


def criterion_14(seed: int) -> dict:
    """Determinism: identical (seed) reproduces identical rendered bytes.

    Re-runs a representative seeded sub-battery from scratch and
    compares the rendered output; the CLI-level byte identity of whole
    reports is asserted by the acceptance tests on top of this.
    """

    def digest() -> str:
        rng = _rng(seed, 14)
        payload = []
        for _ in range(20):
            h = rand_scalar_step(rng)
            payload.append(ces_fun_norm(h, 2.0).value)
            v = rand_tagged(rng)
            payload.append(ces_seq_norm(v, 2.0, tol=1e-8).value)
            payload.append(cesaro_sum_norm(rand_sum_element(rng, 2.0), tol=1e-8).value)
        return render_json(payload)

    first, second = digest(), digest()
    return _entry(14, "seeded reruns render byte-identical results", first == second,
                  {"bytes": len(first), "identical": first == second})


_CRITERIA = (
    criterion_01, criterion_02, criterion_03, criterion_04, criterion_05,
    criterion_06, criterion_07, criterion_08, criterion_09, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14,
)


def run_suite(seed: int = 42) -> dict:
    """Run every acceptance criterion; deterministic for a fixed seed."""
    if seed < 0:
        raise DomainError(f"the suite seed must be nonnegative, got {seed!r}")
    entries = [fn(seed) for fn in _CRITERIA]
    return {
        "schema": REPORT_SCHEMA,
        "command": "suite",
        "version": __version__,
        "seed": seed,
        "passed": all(e["passed"] for e in entries),
        "criteria": entries,
    }
