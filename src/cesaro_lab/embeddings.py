"""Block-averaging embeddings of Cesaro spaces into lp-sums.

T sends a sequence a to the blocks (1/n)(a_1, ..., a_n), the n-th block
measured in l1(n); S does the same with the components of a Cesaro-sum
element, block n measured in the l1-concatenation of the component
spaces.  Both are isometries: the n-th block norm equals the n-th
Cesaro average, term by term, so the outer lp norm of the image can be
compared against the direct norm at rounding precision.

Blocks are stored unscaled (the plain prefix restriction); accessors
apply the 1/n factor.  Blocks past the support maximum N repeat the
N-th restriction, so their norms are S/n with S the l1 mass of the
final block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    CheckReport,
    Exponent,
    InvalidExponent,
    NormResult,
    SpaceMismatch,
    TaggedVector,
    abs_prefix_sums,
    as_exponent,
)
from .scalar import DEFAULT_SEQ_TOL, _norm_from_prefixes
from .vector import SumElement

# finitely supported inputs make both norm routes share their summands,
# so agreement is required at rounding level
ISOMETRY_REL_TOL = 1e-12


@dataclass(frozen=True)
class EmbeddedElement:
    """Image of a sequence or sum element under the averaging embedding.

    ``blocks[n-1]`` is the unscaled restriction to the first n indices
    (a TaggedVector for the sequence embedding, a SumElement for the
    generalized one); the represented block is (1/n) times that.
    """

    outer_p: Exponent
    kind: str  # "sequence" | "sum"
    blocks: tuple

    @property
    def n_stored(self) -> int:
        return len(self.blocks)

    def raw_block(self, n: int):
        """Unscaled block n (restriction to indices/slots <= n)."""
        if n < 1:
            raise ValueError("block index must be >= 1")
        if self.n_stored == 0:
            return TaggedVector.zero() if self.kind == "sequence" else None
        return self.blocks[min(n, self.n_stored) - 1]

    def block_coefficients(self, n: int) -> list[tuple[int, float]]:
        """Scaled block n as (index, coefficient/n) pairs (sequence kind)."""
        if self.kind != "sequence":
            raise SpaceMismatch("coefficient view applies to the sequence embedding")
        raw = self.raw_block(n)
        return [(i, c / n) for i, c in raw.entries]

    def block_norms(self, count: int) -> list[float]:
        """Norms of blocks 1..count: the n-th Cesaro average of the input."""
        prefix = self._norm_prefixes()
        out = []
        running = 0.0
        pos = 0
        for n in range(1, count + 1):
            while pos < len(prefix) and prefix[pos][0] <= n:
                running = prefix[pos][1]
                pos += 1
            out.append(running / n)
        return out

    def _norm_prefixes(self) -> tuple[tuple[int, float], ...]:
        """Prefix sums of the per-index contributions to the block l1 mass.

        For the sequence embedding this is the |a_i| prefix; for the sum
        embedding the prefix of component norms.  Shared with the direct
        norm route via abs_prefix_sums.
        """
        if not self.blocks:
            return ()
        final = self.blocks[-1]
        if self.kind == "sequence":
            return abs_prefix_sums(final)
        return abs_prefix_sums(final.component_norms())

    def scale(self, lam: float) -> "EmbeddedElement":
        return EmbeddedElement(self.outer_p, self.kind, tuple(b.scale(lam) for b in self.blocks))

    def add(self, other: "EmbeddedElement") -> "EmbeddedElement":
        if self.kind != other.kind or self.outer_p != other.outer_p:
            raise SpaceMismatch("embedded elements are not compatible")
        n = max(self.n_stored, other.n_stored)
        if n == 0:
            return self
        blocks = []
        for m in range(1, n + 1):
            a, b = self.raw_block(m), other.raw_block(m)
            if a is None:
                blocks.append(b)
            elif b is None:
                blocks.append(a)
            else:
                blocks.append(a.add(b))
        return EmbeddedElement(self.outer_p, self.kind, tuple(blocks))


def embed_T(a: TaggedVector, p) -> EmbeddedElement:
    """Averaging embedding of a sequence: block n is (1/n)(a_1,...,a_n)."""
    p = as_exponent(p)
    if p.is_one:
        raise InvalidExponent("the embedding requires p > 1")
    if a.is_zero:
        return EmbeddedElement(p, "sequence", ())
    return EmbeddedElement(p, "sequence", tuple(a.restrict(m) for m in range(1, a.max_index + 1)))


def embed_S(x: SumElement) -> EmbeddedElement:
    """Generalized embedding of a Cesaro-sum element: block n carries
    (1/n)(x_1,...,x_n) with the l1-concatenation norm."""
    if x.p.is_one:
        raise InvalidExponent("the embedding requires p > 1")
    if x.is_zero:
        return EmbeddedElement(x.p, "sum", ())
    blocks = []
    for m in range(1, x.max_slot + 1):
        comps = tuple((slot, vec) for slot, vec in x.components if slot <= m)
        blocks.append(SumElement(x.p, comps, x.stack))
    return EmbeddedElement(x.p, "sum", tuple(blocks))


def embedded_outer_norm(emb: EmbeddedElement, tol: float = DEFAULT_SEQ_TOL) -> NormResult:
    """Outer lp norm of an embedded element.

    Block n has norm prefix(n)/n, constant-numerator past the support,
    so the outer norm is the same certified run-wise bracket the direct
    sequence norm uses.
    """
    return _norm_from_prefixes(emb._norm_prefixes(), emb.outer_p.p, tol)


def verify_isometry(value, p=None, tol: float = DEFAULT_SEQ_TOL) -> CheckReport:
    """Compare the direct Cesaro norm with the outer norm of the image.

    Accepts a TaggedVector (p required) or a SumElement.  Both routes
    share their summands term by term for finitely supported inputs, so
    the report demands agreement at rounding level.
    """
    from .scalar import ces_seq_norm
    from .vector import cesaro_sum_norm

    if isinstance(value, TaggedVector):
        if p is None:
            raise InvalidExponent("p is required for sequence inputs")
        p = as_exponent(p)
        direct = ces_seq_norm(value, p, tol)
        image = embed_T(value, p)
        label = "T"
    elif isinstance(value, SumElement):
        direct = cesaro_sum_norm(value, tol)
        image = embed_S(value)
        label = "S"
    else:
        raise SpaceMismatch("expected a TaggedVector or SumElement")

    outer = embedded_outer_norm(image, tol)
    diff = abs(direct.value - outer.value)
    scale_ = 1.0 + max(direct.value, outer.value)
    holds = diff <= ISOMETRY_REL_TOL * scale_
    return CheckReport(
        check=f"isometry_{label}",
        holds=holds,
        quantities={
            "direct": direct.value,
            "direct_error": direct.error_bound,
            "embedded": outer.value,
            "embedded_error": outer.error_bound,
            "abs_diff": diff,
            "rel_diff": diff / scale_,
            "tol": ISOMETRY_REL_TOL,
        },
        mode="exact",
        notes="both routes evaluate identical summands; the tail uses the shared bracket",
    )
