"""Norms for Cesaro sums of Banach-space stacks and for vector-valued
Cesaro function spaces.

Both reduce to the scalar machinery: a sum element is normed through
the sequence of its component norms, a vector-valued step function
through its pointwise-norm profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import (
    MAX_INDEX,
    Exponent,
    InvalidExponent,
    NormResult,
    SpaceMismatch,
    SpaceSpec,
    StepFunction,
    TaggedVector,
    as_exponent,
    pointwise_norm,
)
from .scalar import DEFAULT_TOL, ces_fun_norm, ces_seq_norm


@dataclass(frozen=True)
class SumElement:
    """Finitely supported element of a Cesaro sum of component spaces.

    ``components`` holds (slot, vector) pairs with strictly increasing
    slots; absent slots are zero.  ``stack`` is either one SpaceSpec
    (repeated in every slot) or a tuple covering all occupied slots.
    """

    p: Exponent
    components: tuple[tuple[int, TaggedVector], ...] = ()
    stack: SpaceSpec | tuple[SpaceSpec, ...] = SpaceSpec.lp(2.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_exponent(self.p))
        prev = 0
        kept = []
        for slot, vec in self.components:
            if slot <= prev:
                raise ValueError("slots must be strictly increasing and >= 1")
            if not isinstance(vec, TaggedVector):
                raise SpaceMismatch("components must be TaggedVectors")
            if not vec.is_zero:
                kept.append((slot, vec))
            prev = slot
        if prev > MAX_INDEX:
            raise ValueError("slots must be at most 2**53, past which floats skip integers")
        object.__setattr__(self, "components", tuple(kept))
        if isinstance(self.stack, SpaceSpec):
            return
        stack = tuple(self.stack)
        if kept and len(stack) < kept[-1][0]:
            raise SpaceMismatch("stack does not cover every occupied slot")
        object.__setattr__(self, "stack", stack)

    @classmethod
    def zero(cls, p, stack: SpaceSpec | Sequence[SpaceSpec] = SpaceSpec.lp(2.0)) -> "SumElement":
        stack = stack if isinstance(stack, SpaceSpec) else tuple(stack)
        return cls(as_exponent(p), (), stack)

    @property
    def is_zero(self) -> bool:
        return not self.components

    @property
    def max_slot(self) -> int:
        if self.is_zero:
            raise ValueError("zero element has no occupied slot")
        return self.components[-1][0]

    def space_at(self, slot: int) -> SpaceSpec:
        if isinstance(self.stack, SpaceSpec):
            return self.stack
        if slot > len(self.stack):
            raise SpaceMismatch(f"no space configured for slot {slot}")
        return self.stack[slot - 1]

    def component_norms(self) -> TaggedVector:
        """Sequence of component norms as a finitely supported vector.

        A uniform stack takes SpaceSpec.vector_norms, so an lp stack
        with p > 1 norms all components in one model.p_norms call, as
        pointwise_norm does; a tuple stack takes vector_norm slot by slot.
        """
        if isinstance(self.stack, SpaceSpec):
            norms = self.stack.vector_norms(vec for _, vec in self.components)
        else:
            norms = [self.space_at(slot).vector_norm(vec) for slot, vec in self.components]
        slots = tuple(slot for slot, _ in self.components)
        if 0.0 in norms:  # a norm that underflows to zero is dropped
            slots = tuple(s for s, n in zip(slots, norms) if n != 0.0)
            norms = [n for n in norms if n != 0.0]
        return TaggedVector(slots, tuple(norms))

    def scale(self, lam: float) -> "SumElement":
        if lam == 0.0:
            return SumElement(self.p, (), self.stack)
        comps = tuple((slot, vec.scale(lam)) for slot, vec in self.components)
        return SumElement(self.p, comps, self.stack)

    def add(self, other: "SumElement") -> "SumElement":
        if self.p != other.p or self.stack != other.stack:
            raise SpaceMismatch("sum elements live in different Cesaro sums")
        merged: dict[int, TaggedVector] = {s: v for s, v in self.components}
        for slot, vec in other.components:
            merged[slot] = merged[slot].add(vec) if slot in merged else vec
        comps = tuple((s, v) for s, v in sorted(merged.items()) if not v.is_zero)
        return SumElement(self.p, comps, self.stack)

    def sub(self, other: "SumElement") -> "SumElement":
        return self.add(other.scale(-1.0))


@dataclass(frozen=True)
class SlotShiftFamily:
    """Slot-translated copies of a fixed block inside a Cesaro sum.

    Term k places ``block`` into slot offset + k*stride of a uniform
    stack; the component-norm sequences of distinct terms have disjoint
    supports.  The terms never stabilize, but their limits are exact:
    ||x_k|| = ||block|| zeta(p, slot(k))**(1/p) decreases to 0, and for
    x in the same sum, once slot(k) is past the last slot of x,
    ||x_k - x|| decreases to ||x||.
    """

    block: TaggedVector
    space: SpaceSpec
    p: Exponent
    offset: int = 0
    stride: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_exponent(self.p))
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.offset + self.stride < 1:
            raise ValueError("first term would land outside the slot range")

    def require_same_sum(self, x: SumElement) -> None:
        """Raise SpaceMismatch unless x lives in this family's Cesaro sum."""
        if x.p != self.p or not (isinstance(x.stack, SpaceSpec) and x.stack == self.space):
            raise SpaceMismatch("x and the family live in different Cesaro sums")

    def slot(self, k: int) -> int:
        return self.offset + k * self.stride

    def term(self, k: int) -> SumElement:
        if self.block.is_zero:
            return SumElement(self.p, (), self.space)
        return SumElement(self.p, ((self.slot(k), self.block),), self.space)


def cesaro_sum_norm(x: SumElement, tol: float = DEFAULT_TOL) -> NormResult:
    """Norm of a sum element: the sequence norm of its component norms."""
    if x.p.is_one:
        raise InvalidExponent("Cesaro sums are defined for p > 1")
    return ces_seq_norm(x.component_norms(), x.p, tol)


def ces_vfun_norm(f: StepFunction, p, tol: float = DEFAULT_TOL) -> NormResult:
    """Norm of a vector-valued step function: pointwise norms, then the
    scalar function norm."""
    return ces_fun_norm(pointwise_norm(f), p, tol)
