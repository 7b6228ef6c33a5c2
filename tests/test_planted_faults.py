"""Planted faults: each must make its suite criterion fail at every seed.

The suite's batteries are sized by these faults (README, "How the
suite's batteries are sized"): criterion 05 draws one sample per
stratum, and every fault in the embedding's blocks or prefix column
fails every nonzero draw; criterion 07 runs four times the draws at
which its faults are first caught at seeds 42, 1 and 2.  Seeds 3 to 7
are not used to size anything.
"""

from __future__ import annotations

import pytest

from cesaro_lab import embeddings, opial, suite
from cesaro_lab.model import TaggedVector
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


EMBEDDING_FAULTS = {
    "raw_block x1.5 at the first support index": scaled_first_block,
    "restrict(n - 1)": restrict_off_by_one,
    "slot filter < for <=": strict_slot_filter,
    "prefix column x(1 + 1e-9)": scaled_prefix_column,
}
SPLITTING_FAULTS = {f"stabilization_index - {by}": lowered_stabilization(by) for by in (1, 2, 5)}
FAULTS = {**{name: (plant, suite.criterion_05) for name, plant in EMBEDDING_FAULTS.items()},
          **{name: (plant, suite.criterion_07) for name, plant in SPLITTING_FAULTS.items()}}


@pytest.mark.parametrize("seed", SEEDS)
def test_criteria_05_and_07_pass_without_a_fault(seed):
    assert suite.criterion_05(seed)["passed"]
    assert suite.criterion_07(seed)["passed"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fault", list(FAULTS))
def test_every_planted_fault_fails_its_criterion(fault, seed, monkeypatch):
    plant, criterion = FAULTS[fault]
    plant(monkeypatch)
    assert not criterion(seed)["passed"]


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


def test_criterion_07_runs_four_times_the_draws_that_catch_its_faults(monkeypatch):
    worst = 0
    for plant in SPLITTING_FAULTS.values():
        with pytest.MonkeyPatch.context() as patch:
            plant(patch)
            for seed in SIZING_SEEDS:
                verdicts = _holds_per_draw(patch, "splitting_check", suite.criterion_07, seed)
                worst = max(worst, verdicts.index(False) + 1)
    assert suite._SPLITTING_DRAWS == max(21, 4 * worst)
