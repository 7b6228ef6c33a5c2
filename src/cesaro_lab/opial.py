"""Opial moduli for the supported space models.

The moduli measure the uniform gap in the Opial inequality:

    eta(eps, R) = inf { liminf ||x_n - x|| - liminf ||x_n|| }

over weakly null sequences with limsup ||x_n|| <= R and ||x|| >= eps,
and r(c) is the classical variant normalized to liminf ||x_n|| >= 1.

Weak nullity is never detected numerically: it is guaranteed
structurally by shift families (disjointly supported, norm-bounded
translates are weakly null in lp for p > 1).  For those witnesses the
disjoint-support splitting identity

    ||u + v||**p = ||u||**p + ||v||**p

makes every liminf/limsup exactly computable past a stabilization
index.  Slot shifts in a Cesaro sum never stabilize, but their limits
are exact as well: the terms are norm-null and ||x_k - x|| -> ||x||.

Adopted model: for lp (p > 1) the moduli are taken to equal their
disjoint-support values, (R**p + eps**p)**(1/p) - R, the one closed
form lp_modulus(space, eps, R); the harness's eta recipes read the
component space's w from it as well.  The witness estimator certifies
the upper-bound direction (attainment); the lower-bound direction is a
modelling assumption, recorded here and not tested.  Schur spaces get a
distinguished flag for eta (the constraint set degenerates) and the
conventional value 1 for r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    CheckReport,
    DomainError,
    CesaroLabError,
    SpaceMismatch,
    SpaceSpec,
    TaggedVector,
    UnsupportedSpace,
    _scale_exponent,
    as_exponent,
    require_positive_finite,
)
from .numerics import pth_root_shift
from .vector import SlotShiftFamily, SumElement, cesaro_sum_norm


class EmptyWitnessSet(CesaroLabError):
    """No witness satisfies the modulus constraints."""


class SchurFlag:
    """Marker for spaces where weakly null implies norm null.

    The eta constraint set degenerates there (every weakly null sequence
    has liminf 0), so no number is returned.  SCHUR is its one instance.
    """

    def __repr__(self) -> str:
        return "SCHUR"


SCHUR = SchurFlag()


@dataclass(frozen=True)
class ModulusQuery:
    """Inputs of a modulus evaluation: the space, the lower bound eps on
    ||x|| and the upper bound R on limsup ||x_n||."""

    space: SpaceSpec
    eps: float
    R: float

    def __post_init__(self) -> None:
        require_positive_finite(DomainError, eps=self.eps, R=self.R)


@dataclass(frozen=True)
class VectorShiftFamily:
    """Disjointly supported translates of a base block.

    Term n is the base shifted by start_offset + n*stride; stride at
    least the base width keeps the supports pairwise disjoint, and the
    supports eventually clear any fixed finitely supported vector.
    """

    base: TaggedVector
    stride: int
    start_offset: int = 0

    def __post_init__(self) -> None:
        if self.base.is_zero:
            raise ValueError("shift family needs a nonzero base block")
        if self.stride < self.base.width:
            raise ValueError("stride must be at least the base width")
        if self.base.min_index + self.start_offset + self.stride < 1:
            raise ValueError("first term would leave the index range")

    def term(self, n: int) -> TaggedVector:
        return self.base.shift(self.start_offset + n * self.stride)

    def stabilization_index(self, x: TaggedVector) -> int:
        """First n after which term(n) has support disjoint from x."""
        if x.is_zero:
            return 1
        gap = x.max_index - self.base.min_index - self.start_offset
        return max(1, gap // self.stride + 1)


def splitting_check(x: TaggedVector, fam: VectorShiftFamily, p) -> CheckReport:
    """Verify ||x_n - x||**p = ||x_n||**p + ||x||**p past stabilization.

    Exact for disjoint supports.  At each of two witness indices the
    power sums are taken of magnitudes divided by 2**exp2, with exp2 the
    power of two that puts the largest magnitude of x_n - x, x_n and x
    (one value once the supports are disjoint) in [1/2, 1), so no power
    overflows or underflows to nothing.  The report carries both sums of
    the last index in those units, exp2, the stabilization index and the
    worst relative deviation |lhs - rhs|/rhs.
    """
    p = as_exponent(p).p
    n0 = fam.stabilization_index(x)
    worst = 0.0
    for n in (n0, n0 + 1):
        term = fam.term(n)
        diff = term.sub(x)
        top = max(map(abs, diff.coeffs + term.coeffs + x.coeffs))
        exp2 = _scale_exponent(top, p)
        lhs, term_power, x_power = (math.fsum([math.ldexp(abs(c), -exp2) ** p for c in v.coeffs])
                                    for v in (diff, term, x))
        rhs = term_power + x_power
        worst = max(worst, abs(lhs - rhs) / rhs)
    holds = worst <= 1e-14
    return CheckReport(
        check="splitting_identity",
        holds=holds,
        quantities={
            "p": p,
            "lhs_power": lhs,
            "rhs_power": rhs,
            "exp2": float(exp2),
            "rel_dev": worst,
            "stabilization_index": float(n0),
        },
        mode="exact",
    )


def lp_modulus(space: SpaceSpec, eps: float, R: float) -> float:
    """The lp modulus (R**p + eps**p)**(1/p) - R, without cancellation
    for eps << R, and without underflow where (eps/R)**p underflows
    (numerics.pth_root_shift); UnsupportedSpace unless the space is lp
    with p > 1."""
    if not space.lp_above_one:
        raise UnsupportedSpace(f"no closed form for {space.kind!r} with p = {space.p!r}: it needs lp with p > 1")
    p = space.p
    if eps / R > 2.0 ** (1000.0 / p):  # R**p is far below the rounding of eps**p
        return eps - R
    return pth_root_shift(R, eps, p)


def eta_closed_form(query: ModulusQuery) -> float | SchurFlag:
    """Modulus eta for the lp model: (R**p + eps**p)**(1/p) - R.

    Returns SCHUR for the Schur variants, where the weakly-null
    constraint set degenerates; no numeric convention is invented for
    eta there.
    """
    if query.space.schur_flag:
        return SCHUR
    return lp_modulus(query.space, query.eps, query.R)


def r_closed_form(space: SpaceSpec, c: float) -> float:
    """Modulus r(c) = (1 + c**p)**(1/p) - 1 for lp (p > 1); Schur spaces
    take the conventional value 1."""
    require_positive_finite(DomainError, c=c)
    if space.schur_flag:
        return 1.0
    return lp_modulus(space, c, 1.0)


@dataclass(frozen=True)
class EstimateReport:
    """Empirical modulus estimate: the least exact Opial gap over the
    supplied witnesses, an attained upper bound of the modulus."""

    estimate: float
    per_witness: tuple[float, ...]
    closed_form_gap: float | None = None


def canonical_lp_witnesses(query: ModulusQuery, grid: int):
    """Grid of disjoint-support witnesses: x = eps*e_1 against shifted
    blocks of norm L for L on a grid ending at R."""
    out = []
    for j in range(1, grid + 1):
        level = query.R * j / grid
        fam = VectorShiftFamily(
            base=TaggedVector.basis(1, level), stride=1, start_offset=1
        )
        out.append((TaggedVector.basis(1, query.eps), fam))
    return out


def estimate_eta_empirical(query: ModulusQuery, witnesses) -> EstimateReport:
    """Minimum of liminf||x_n - x|| - liminf||x_n|| over witnesses.

    Every limit is exact.  lp witnesses are (TaggedVector,
    VectorShiftFamily) pairs: past the stabilization index x_n and x have
    disjoint supports, so the gap is (||x_n||**p + ||x||**p)**(1/p) - ||x_n||
    exactly, which lp_modulus forms without cancellation (the difference
    of the two computed norms lost every digit where ||x|| << ||x_n||,
    and fell below the modulus).
    Cesaro-sum witnesses are (SumElement, SlotShiftFamily) pairs: the
    slot-shifted terms are norm-null and ||x_k - x|| -> ||x||, so such a
    witness meets limsup||x_k|| <= R for every R and contributes its
    certified ||x||; SpaceMismatch unless x lives in the query's sum
    (same p) and in its family's.  Either way the result is an upper
    bound of the modulus.
    """
    space = query.space
    if isinstance(witnesses, int):
        if not space.lp_above_one:
            raise UnsupportedSpace("grid witnesses are generated for lp (p > 1) only")
        witnesses = canonical_lp_witnesses(query, witnesses)

    values: list[float] = []
    for x, fam in witnesses:
        if isinstance(x, TaggedVector) and isinstance(fam, VectorShiftFamily):
            if not space.lp_above_one:
                raise UnsupportedSpace("sequence witnesses need an lp space with p > 1")
            x_norm = space.vector_norm(x)
            if x_norm < query.eps:
                continue
            base_norm = space.vector_norm(fam.base)
            if base_norm > query.R * (1.0 + 1e-12):
                continue
            # past the stabilization index the supports are disjoint, so
            # ||x_n - x|| = (||x_n||**p + ||x||**p)**(1/p) (splitting_check),
            # and the gap is formed without subtracting the two norms
            values.append(lp_modulus(space, x_norm, base_norm) if base_norm else x_norm)
        elif isinstance(x, SumElement) and isinstance(fam, SlotShiftFamily):
            if space.kind != "cesaro_sum":
                raise UnsupportedSpace("sum witnesses need a cesaro_sum space")
            if x.p.p != space.p:
                raise SpaceMismatch(f"a witness of the p = {x.p.p!r} sum for a p = {space.p!r} query")
            fam.require_same_sum(x)
            x_norm = cesaro_sum_norm(x).value
            if x_norm >= query.eps:
                values.append(x_norm)
        else:
            raise UnsupportedSpace("witness must pair a TaggedVector or SumElement with its family")

    if not values:
        raise EmptyWitnessSet("every witness violates the modulus constraints")

    estimate = min(values)
    gap = estimate - lp_modulus(space, query.eps, query.R) if space.lp_above_one else None
    return EstimateReport(estimate=estimate, per_witness=tuple(values), closed_form_gap=gap)
