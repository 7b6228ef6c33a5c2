"""Planted faults: each must make its suite criteria fail at every seed.

The suite's random batteries are sized by these faults (README, "How
the suite's batteries are sized"): a battery runs max(one draw per
stratum, 4 x the draw at which the last fault it catches is first
caught at seeds 42, 1 and 2), and criterion 05 draws one sample per
stratum, every nonzero one of which fails each embedding fault.  Seeds
3 to 7 are not used to size anything.  A fault that only a criterion's
worked values catch sizes no battery.
"""

from __future__ import annotations

import functools
import itertools
import json

import pytest

from cesaro_lab import embeddings, harness, model, opial, scalar, suite
from cesaro_lab.cli import main as cli_main
from cesaro_lab.model import NormResult, StepFunction, TaggedVector, p_norms, scale
from cesaro_lab.vector import SumElement

SIZING_SEEDS = (42, 1, 2)
SEEDS = SIZING_SEEDS + (3, 4, 5, 6, 7)


def _support(src) -> list[int]:
    return list(src.indices) if isinstance(src, TaggedVector) else [s for s, _ in src.components]


def scaled_first_block(patch) -> None:
    """raw_block scaled by 1.5 at the first support index (or slot)."""
    original = embeddings.EmbeddedElement.raw_block

    def wrong(self, n):
        block = original(self, n)
        support = _support(self.source)
        return block.scale(1.5) if support and n == support[0] else block

    patch.setattr(embeddings.EmbeddedElement, "raw_block", wrong)


def restrict_off_by_one(patch) -> None:
    """A sequence image's block n restricted to the indices <= n - 1."""
    original = embeddings.EmbeddedElement.raw_block

    def wrong(self, n):
        src = self.source
        return src.restrict(n - 1) if isinstance(src, TaggedVector) else original(self, n)

    patch.setattr(embeddings.EmbeddedElement, "raw_block", wrong)


def strict_slot_filter(patch) -> None:
    """A sum image's block n keeps the slots < n, not <= n."""
    original = embeddings.EmbeddedElement.raw_block

    def wrong(self, n):
        src = self.source
        if isinstance(src, TaggedVector):
            return original(self, n)
        return SumElement(src.p, tuple((s, v) for s, v in src.components if s < n), src.stack)

    patch.setattr(embeddings.EmbeddedElement, "raw_block", wrong)


def scaled_prefix_column(patch) -> None:
    """The prefix column that the embedding reads, times 1 + 1e-9."""
    original = embeddings.abs_prefix_sums

    def wrong(v):
        starts, prefixes = original(v)
        return starts, [float(m) * (1.0 + 1e-9) for m in prefixes]

    patch.setattr(embeddings, "abs_prefix_sums", wrong)


def lowered_stabilization(by: int):
    """stabilization_index lowered by `by`, kept at least 1."""
    def plant(patch) -> None:
        original = opial.VectorShiftFamily.stabilization_index
        patch.setattr(opial.VectorShiftFamily, "stabilization_index",
                      lambda self, x: max(1, original(self, x) - by))
    return plant


def closed_form_times(factor: float):
    """The log-weighted closed form (weighted_l1_norm), which ces_fun_norm
    returns at p = 1, off by a factor, wherever it is used."""
    def plant(patch) -> None:
        exact = scalar.weighted_l1_norm

        def off(h):
            r = exact(h)
            return NormResult(r.value * factor, r.error_bound, exact=True)

        patch.setattr(suite, "weighted_l1_norm", off)
        patch.setattr(scalar, "weighted_l1_norm", off)
    return plant


def anti_difference_sum(patch) -> None:
    """The closed form's cell piece P1 + P2 in place of P1 - P2."""
    original = scalar._anti_difference

    def wrong(a, b):
        _, total = original(a, b)
        return total, total

    patch.setattr(scalar, "_anti_difference", wrong)


def inner_prefix_times(patch) -> None:
    """The quadrature's inner prefix F(t_k) times 1 + 1e-8."""
    original = scalar._inner_prefix
    patch.setattr(scalar, "_inner_prefix", lambda mags, h: [x * (1.0 + 1e-8) for x in original(mags, h)])


def float_rule_doubled(patch) -> None:
    """The float path's Gauss-Legendre rule with half-width b - a, which
    doubles its estimates."""
    original = scalar._rule_on_floats
    patch.setattr(scalar, "_rule_on_floats", lambda *args: 2.0 * original(*args))


def hardy_constant(wrong_q):
    """The conjugate exponent q, and so Hardy's constant, replaced by wrong_q(q)."""
    def plant(patch) -> None:
        q = model.Exponent.q.fget
        patch.setattr(model.Exponent, "q", property(lambda self: wrong_q(q(self))))
    return plant


def signed_inner_average(patch) -> None:
    """The inner average of the signed values of h, not of |h|."""
    original = scalar._abs_values

    def wrong(h):
        original(h)  # keeps the scalar check
        return list(h.values)

    patch.setattr(scalar, "_abs_values", wrong)


def norm_not_scaled_back(patch) -> None:
    """A function norm computed on |h| / 2**exp2 and not scaled back."""
    original = scalar._unscale
    patch.setattr(scalar, "_unscale", lambda value, err, exp2, what: original(value, err, 0, what))


def phi_from_g(patch) -> None:
    """phi built from g(t) in place of ||f(t)||."""
    def wrong(fam, f, fn):
        g, _ = harness.common_refinement(fam.profile, fn)
        return StepFunction(g.partition, tuple(p_norms([(v, v) for v in g.values], fam.space.p)))

    patch.setattr(harness, "_phi", wrong)


def phi_instead(wrong_phi):
    """eval_phi replaced by wrong_phi(eval_phi, fam, f) where the suite
    and check_cor32 call it."""
    def plant(patch) -> None:
        original = harness.eval_phi
        wrong = functools.partial(wrong_phi, original)
        patch.setattr(harness, "eval_phi", wrong)
        patch.setattr(suite, "eval_phi", wrong)
    return plant


def theta_zero(patch) -> None:
    """theta, the integral of t**-p over [t0, 1], taken as 0."""
    patch.setattr(harness, "_theta", lambda *args, **kwargs: 0.0)


def modulus_swapped(patch) -> None:
    """The recipes' lp_modulus(space, tau, M) with its two arguments swapped."""
    original = harness.lp_modulus
    patch.setattr(harness, "lp_modulus", lambda space, eps, R: original(space, R, eps))


def modulus_at_two(patch) -> None:
    """The recipes' lp_modulus taken in l2 whatever the component space,
    which the worked chains at pX = 2 cannot see."""
    original = harness.lp_modulus
    patch.setattr(harness, "lp_modulus", lambda space, eps, R: original(model.SpaceSpec.lp(2.0), eps, R))


def eta_times(factor: float):
    """The recipes' eta off by a factor."""
    def plant(patch) -> None:
        original = harness._chain_tail

        def wrong(*args):
            nu, omega, eta = original(*args)
            return nu, omega, eta * factor

        patch.setattr(harness, "_chain_tail", wrong)
    return plant


def shared_generator(patch) -> None:
    """One generator per (seed, criterion), so a rerun continues its stream."""
    patch.setattr(suite, "_rng", functools.cache(suite._rng))


EMBEDDING_FAULTS = {
    "raw_block x1.5 at the first support index": scaled_first_block,
    "restrict(n - 1)": restrict_off_by_one,
    "slot filter < for <=": strict_slot_filter,
    "prefix column x(1 + 1e-9)": scaled_prefix_column,
}
SPLITTING_FAULTS = {f"stabilization_index - {by}": lowered_stabilization(by) for by in (1, 2, 5)}
# fault -> (plant, the criteria it must fail)
FAULTS = {
    **{name: (plant, (5,)) for name, plant in EMBEDDING_FAULTS.items()},
    **{name: (plant, (7,)) for name, plant in SPLITTING_FAULTS.items()},
    "closed form x(1 + 1e-6)": (closed_form_times(1.0 + 1e-6), (3,)),
    "closed form x(1 + 1e-8)": (closed_form_times(1.0 + 1e-8), (3,)),
    "closed form piece P1 + P2": (anti_difference_sum, (3,)),
    "inner prefix x(1 + 1e-8)": (inner_prefix_times, (3,)),
    "Hardy constant q -> 1": (hardy_constant(lambda q: 1.0), (4,)),
    "Hardy constant q -> (1 + q)/2": (hardy_constant(lambda q: 0.5 * (1.0 + q)), (4,)),
    "float-path rule doubled": (float_rule_doubled, (3, 4)),
    "signed inner average": (signed_inner_average, (6,)),
    "norm not scaled back": (norm_not_scaled_back, (6,)),
    "phi from g alone": (phi_from_g, (9,)),
    "phi x(1 + 1e-6)": (phi_instead(lambda phi, fam, f: scale(phi(fam, f), 1.0 + 1e-6)), (9,)),
    "phi = g": (phi_instead(lambda phi, fam, f: fam.profile), (9, 10)),
    "phi x(1 - 1e-3)": (phi_instead(lambda phi, fam, f: scale(phi(fam, f), 1.0 - 1e-3)), (9, 10)),
    "theta = 0": (theta_zero, (11, 12)),
    "lp_modulus eps and R swapped": (modulus_swapped, (11, 12)),
    "lp_modulus in l2 whatever pX": (modulus_at_two, (11, 12)),
    "eta x2": (eta_times(2.0), (11, 12)),
    "eta x1e12": (eta_times(1e12), (12,)),
    "one generator for both digests": (shared_generator, (14,)),
}
PAIRS = len(suite._PXS) * len(suite._PS)  # the (pX, p) strata
# battery -> (its draws, the constant that sizes it, its strata, the faults that size it); the
# faults of 03 to 12 missing here only worked values, criterion 04's corpus or another battery catch
BATTERIES = {
    "03": (suite.p1_draws, "_P1_DRAWS", 5,  # 0 to 4 interior breakpoints
           ("closed form x(1 + 1e-6)", "closed form x(1 + 1e-8)", "closed form piece P1 + P2",
            "inner prefix x(1 + 1e-8)", "float-path rule doubled")),
    "06": (suite.monotone_draws, "_MONOTONE_DRAWS", len(suite._PS), ("signed inner average", "norm not scaled back")),
    "09": (suite.phi_draws, "_PHI_DRAWS", PAIRS, ("phi from g alone", "phi x(1 + 1e-6)", "phi = g", "phi x(1 - 1e-3)")),
    "10": (suite.strict_draws, "_STRICT_DRAWS", PAIRS, ("phi = g",)),
    "10 scaled": (suite.scaled_strict_draws, "_SCALED_STRICT_DRAWS", 2 * 2, ("phi = g", "phi x(1 - 1e-3)")),
    "11": (suite.thm33_draws, "_THM33_DRAWS", PAIRS,
           ("theta = 0", "lp_modulus eps and R swapped", "lp_modulus in l2 whatever pX")),
    "12": (suite.thm34_draws, "_THM34_DRAWS", len(suite._PXS) * len(suite._PS_ABOVE_ONE),
           ("theta = 0", "lp_modulus eps and R swapped", "lp_modulus in l2 whatever pX", "eta x1e12")),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_criteria_05_and_07_pass_without_a_fault(seed):
    assert suite.criterion_05(seed)["passed"]
    assert suite.criterion_07(seed)["passed"]


@pytest.mark.parametrize("seed", SEEDS)
def test_the_other_criteria_pass_without_a_fault(seed):
    for cid in set(range(1, 15)) - {5, 7}:
        assert suite.run_criterion(cid, seed)["passed"], cid


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fault", list(FAULTS))
def test_every_planted_fault_fails_its_criterion(fault, seed, monkeypatch):
    plant, cids = FAULTS[fault]
    plant(monkeypatch)
    for cid in cids:
        assert not suite.run_criterion(cid, seed)["passed"], cid


def test_a_criterion_that_raises_is_reported_failed(monkeypatch, tmp_path, capsys):
    signed_inner_average(monkeypatch)
    out = tmp_path / "suite.json"
    assert cli_main(["suite", "--seed", "42", "--out", str(out)]) == 1
    assert "criterion 06 raised:\nTraceback" in capsys.readouterr().err
    entry = json.loads(out.read_text())["criteria"][5]
    assert entry["id"] == 6 and entry["name"] == "monotonicity under pointwise domination"
    assert entry["passed"] is False
    assert entry["details"]["error"].startswith(("DomainError: ", "TypeError: "))


def _first_catch(draws, limit: int) -> int | None:
    """The 1-based index of the first draw that fails or raises, if any
    of the first `limit` does."""
    for k in range(limit):
        try:
            ok, _ = next(draws)
        except Exception:  # noqa: BLE001 - run_criterion reports a raise as a failure
            return k + 1
        if not ok:
            return k + 1
    return None


def _holds_per_draw(monkeypatch, name: str, criterion, seed: int) -> list[bool]:
    """Run the criterion with a spy on the check it calls by `name` in
    the suite module, and return each call's verdict."""
    verdicts = []
    original = getattr(suite, name)

    def spy(*args, **kwargs):
        report = original(*args, **kwargs)
        verdicts.append(report.holds)
        return report

    monkeypatch.setattr(suite, name, spy)
    criterion(seed)
    monkeypatch.setattr(suite, name, original)
    return verdicts


@pytest.mark.parametrize("fault", list(EMBEDDING_FAULTS))
def test_every_nonzero_draw_of_criterion_05_catches_each_embedding_fault(fault, monkeypatch):
    EMBEDDING_FAULTS[fault](monkeypatch)
    for seed in SIZING_SEEDS:
        verdicts = _holds_per_draw(monkeypatch, "verify_isometry", suite.criterion_05, seed)
        # the last two draws are the zero elements, which have no block to get wrong
        assert len(verdicts) == 2 * 3 * len(suite._ISOMETRY_BANDS) + 2
        if fault == "restrict(n - 1)":  # a sequence fault: the sum draws (odd places) still hold
            assert not any(verdicts[:-2:2])
        elif fault == "slot filter < for <=":
            assert not any(verdicts[1:-2:2])
        else:
            assert not any(verdicts[:-2])


@pytest.mark.parametrize("fault", ["Hardy constant q -> 1", "Hardy constant q -> (1 + q)/2", "float-path rule doubled"])
def test_every_draw_of_criterion_04_catches_its_faults(fault, monkeypatch):
    FAULTS[fault][0](monkeypatch)
    verdicts = _holds_per_draw(monkeypatch, "check_embedding_inequality", suite.criterion_04, 42)
    assert len(verdicts) == 2 * len(suite._PS_ABOVE_ONE)
    # the first three draws take the float path, the only one a fault in the float rule must reach
    assert not any(verdicts[:3] if fault == "float-path rule doubled" else verdicts)


def test_criterion_07_runs_four_times_the_draws_that_catch_its_faults(monkeypatch):
    worst = 0
    for plant in SPLITTING_FAULTS.values():
        with pytest.MonkeyPatch.context() as patch:
            plant(patch)
            for seed in SIZING_SEEDS:
                verdicts = _holds_per_draw(patch, "splitting_check", suite.criterion_07, seed)
                worst = max(worst, verdicts.index(False) + 1)
    assert suite._SPLITTING_DRAWS == max(21, 4 * worst)


@pytest.mark.parametrize("battery", list(BATTERIES))
def test_each_battery_runs_four_times_the_draws_that_catch_its_faults(battery):
    draws, size, strata, faults = BATTERIES[battery]
    worst = 0
    for fault in faults:
        with pytest.MonkeyPatch.context() as patch:
            FAULTS[fault][0](patch)
            for seed in SIZING_SEEDS:
                caught = _first_catch(draws(seed), getattr(suite, size))
                assert caught is not None, (fault, seed)
                worst = max(worst, caught)
    assert getattr(suite, size) == max(strata, 4 * worst)


def _rounds(seed: int) -> list[list[str]]:
    return [[v.hex() for v in row] for row in itertools.islice(suite.digest_rounds(seed), suite._DIGEST_ROUNDS)]


def test_criterion_14_runs_four_times_the_rounds_that_catch_its_faults():
    worst = 0
    for seed in SIZING_SEEDS:
        with pytest.MonkeyPatch.context() as patch:  # each seed starts from a fresh generator cache
            shared_generator(patch)
            first, second = _rounds(seed), _rounds(seed)
        worst = max(worst, next(k + 1 for k, (a, b) in enumerate(zip(first, second)) if a != b))
    assert suite._DIGEST_ROUNDS == max(3, 4 * worst)
