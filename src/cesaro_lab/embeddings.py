"""Block-averaging embeddings of Cesaro spaces into lp-sums.

T sends a sequence a to the blocks (1/n)(a_1, ..., a_n), the n-th block
measured in l1(n); S does the same with the components of a Cesaro-sum
element, block n measured in the l1-concatenation of the component
spaces.  Both are isometries: the n-th block norm equals the n-th
Cesaro average, term by term.

An image keeps only its source element, as given (zero included; the
type of the source tells a sequence image from a sum image), and
derives block n on demand as the restriction to indices (or slots)
<= n; accessors apply the 1/n factor.  Blocks past the support maximum
N repeat block N, so the outer norm needs the l1 mass of the blocks at
the support indices alone.  It reads them off two columns, the support
indices and the magnitudes (the source vector's |coeffs|, or the
columns of a sum element's component norms), and sums each block from
its own slice of the magnitudes, a grouping independent of the direct
norm's running prefix, so the isometry check compares two routes and a
wrong block makes it fail.
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
    as_exponent,
    l1_sum,
)
from .scalar import DEFAULT_TOL, _norm_from_prefixes
from .vector import SumElement

# both routes sum the same magnitudes to rounding accuracy, in different
# groupings, so agreement is required at rounding level
ISOMETRY_REL_TOL = 1e-12


def _slice_masses(mags: list[float]) -> list[float]:
    """The l1 mass of every leading slice mags[:1], mags[:2], ...: each
    block's mass from its own entries, not from a running prefix."""
    return [l1_sum(mags[:k]) for k in range(1, len(mags) + 1)]


@dataclass(frozen=True)
class EmbeddedElement:
    """Image of a sequence or sum element under the averaging embedding.

    ``source`` is the embedded TaggedVector (sequence image) or
    SumElement (sum image), kept as given, zero included.  Block n is
    (1/n) times ``raw_block(n)``.
    """

    outer_p: Exponent
    source: TaggedVector | SumElement

    @property
    def n_stored(self) -> int:
        """Index past which blocks repeat: the support maximum, 0 for zero."""
        src = self.source
        if isinstance(src, TaggedVector):
            return src.indices[-1] if src.indices else 0
        return src.components[-1][0] if src.components else 0

    def raw_block(self, n: int):
        """Unscaled block n (restriction to indices/slots <= n)."""
        if n < 1:
            raise ValueError("block index must be >= 1")
        src = self.source
        if isinstance(src, TaggedVector):
            return src.restrict(n)
        return SumElement(src.p, tuple((s, v) for s, v in src.components if s <= n), src.stack)

    def block_coefficients(self, n: int) -> list[tuple[int, float]]:
        """Scaled block n as (index, coefficient/n) pairs (sequence image)."""
        if not isinstance(self.source, TaggedVector):
            raise SpaceMismatch("coefficient view applies to the sequence embedding")
        block = self.raw_block(n)
        return [(i, c / n) for i, c in zip(block.indices, block.coeffs)]

    def block_norms(self, count: int) -> list[float]:
        """Norms of blocks 1..count: the n-th Cesaro average of the input."""
        starts, masses = self._block_masses()
        out = []
        running = 0.0
        pos = 0
        for n in range(1, count + 1):
            while pos < len(starts) and starts[pos] <= n:
                running = masses[pos]
                pos += 1
            out.append(running / n)
        return out

    def _block_masses(self) -> tuple[list[int], list[float]]:
        """(starts, masses): every index n where the block changes, and
        the l1 mass of raw block n there.

        The magnitudes are the |coefficients|, or for a sum image the
        component norms, each computed once; each mass is the correctly
        rounded sum of the block's own slice of them (_slice_masses), so
        no block is built as an object and the cost is O(nnz**2)
        additions, independent of the support maximum.
        """
        src = self.source
        vec = src if isinstance(src, TaggedVector) else src.component_norms()
        return list(vec.indices), _slice_masses(list(map(abs, vec.coeffs)))

    def scale(self, lam: float) -> "EmbeddedElement":
        return EmbeddedElement(self.outer_p, self.source.scale(lam))

    def add(self, other: "EmbeddedElement") -> "EmbeddedElement":
        if type(self.source) is not type(other.source) or self.outer_p != other.outer_p:
            raise SpaceMismatch("embedded elements are not compatible")
        return EmbeddedElement(self.outer_p, self.source.add(other.source))


def embed_T(a: TaggedVector, p) -> EmbeddedElement:
    """Averaging embedding of a sequence: block n is (1/n)(a_1,...,a_n)."""
    p = as_exponent(p)
    if p.is_one:
        raise InvalidExponent("the embedding requires p > 1")
    return EmbeddedElement(p, a)


def embed_S(x: SumElement) -> EmbeddedElement:
    """Generalized embedding of a Cesaro-sum element: block n carries
    (1/n)(x_1,...,x_n) with the l1-concatenation norm."""
    if x.p.is_one:
        raise InvalidExponent("the embedding requires p > 1")
    return EmbeddedElement(x.p, x)


def embedded_outer_norm(emb: EmbeddedElement, tol: float = DEFAULT_TOL) -> NormResult:
    """Outer lp norm of an embedded element.

    Block n has norm mass(n)/n with the mass constant between support
    indices and past the last one, so the outer norm is the certified
    run-wise bracket of the direct sequence norm, fed the block masses.
    """
    return _norm_from_prefixes(*emb._block_masses(), emb.outer_p.p, tol)


def verify_isometry(value, p=None, tol: float = DEFAULT_TOL) -> CheckReport:
    """Compare the direct Cesaro norm with the outer norm of the image.

    Accepts a TaggedVector (p required) or a SumElement.  The direct
    route sums a running prefix of the magnitudes, the embedded route
    sums each block's own entries; both are accurate to rounding, so
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
        notes="embedded: each block summed from its own entries; direct: a running prefix; "
              "both tails use the shared bracket",
    )
