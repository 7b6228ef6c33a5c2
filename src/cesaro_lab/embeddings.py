"""Block-averaging embeddings of Cesaro spaces into lp-sums.

T sends a sequence a to the blocks (1/n)(a_1, ..., a_n), the n-th block
measured in l1(n); S does the same with the components of a Cesaro-sum
element, block n measured in the l1-concatenation of the component
spaces.  Both are isometries: the n-th block norm equals the n-th
Cesaro average, term by term.

An image keeps only its source element, zero included (its type tells
a sequence image from a sum image), and derives block n on demand as
the restriction to indices (or slots) <= n.  Block n's l1 mass is by
definition the n-th prefix sum of the magnitudes, so the outer norm
reads the direct norm's prefix column and has its bits, in O(nnz);
verify_isometry checks the blocks themselves against that column.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .model import (
    CheckReport,
    Exponent,
    InvalidExponent,
    InvalidTolerance,
    NormResult,
    SpaceMismatch,
    TaggedVector,
    abs_prefix_sums,
    as_exponent,
    l1_mass,
    require_positive_finite,
)
from .scalar import DEFAULT_TOL, seq_norm_from_prefixes
from .vector import SumElement

_U = 2.0 ** -53  # unit roundoff


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

    def magnitudes(self) -> TaggedVector:
        """The vector whose |coefficients| block masses sum: the source,
        or a sum element's component norms."""
        src = self.source
        return src if isinstance(src, TaggedVector) else src.component_norms()

    def block_norms(self, count: int) -> list[float]:
        """Norms of blocks 1..count: the n-th Cesaro average of the input."""
        starts, prefixes = abs_prefix_sums(self.magnitudes())
        return [float(prefixes[k - 1]) / n if (k := bisect_right(starts, n)) else 0.0
                for n in range(1, count + 1)]

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
    """Outer lp norm of an embedded element: block n has norm
    prefix(n)/n, so this is the sequence norm of emb.magnitudes(), with
    the bits of ces_seq_norm (T) and cesaro_sum_norm (S)."""
    return seq_norm_from_prefixes(*abs_prefix_sums(emb.magnitudes()), emb.outer_p.p, tol)


def _mass_allowance(mass: float, terms: int) -> float:
    """Bound on |mass - prefix| for the correctly rounded sum (mass) and
    the Neumaier sum (prefix, numerics.running_sums) of the same `terms`
    nonnegative magnitudes, whose exact sum is S.

    Neumaier's branch forms each addition's error exactly, as TwoSum
    does, so the prefix is within u S + gamma_{terms-1}**2 S of S (Ogita,
    Rump and Oishi, SIAM J. Sci. Comput. 26, 2005, Prop. 4.5), the mass
    within u S, and S <= mass (1 + 2u); one ulp of the mass covers the
    absolute roundings of the subnormal range.
    """
    gamma = (terms - 1) * _U / (1.0 - (terms - 1) * _U)
    return (2.0 * _U + gamma * gamma) * mass * (1.0 + 2.0 * _U) + math.ulp(mass)


def verify_isometry(value, p=None, tol: float = DEFAULT_TOL) -> CheckReport:
    """Check the averaging embedding of a TaggedVector (p required) or a
    SumElement block by block.

    One certified norm, from the prefix column of the magnitudes, is
    both the direct norm and the image's outer norm.  At the first, a
    middle and the last support index n (block 1 of a zero input), the
    l1 mass of raw_block(n) (for S, of its component norms) must match
    the column within _mass_allowance; the report carries the worst
    ratio of the two.
    """
    if isinstance(value, SumElement):
        image, label = embed_S(value), "S"
    elif not isinstance(value, TaggedVector):
        raise SpaceMismatch("expected a TaggedVector or SumElement")
    elif p is None:
        raise InvalidExponent("p is required for sequence inputs")
    else:
        image, label = embed_T(value, p), "T"
    require_positive_finite(InvalidTolerance, tol=tol)

    starts, prefixes = abs_prefix_sums(image.magnitudes())
    norm = seq_norm_from_prefixes(starts, prefixes, image.outer_p.p, tol)
    if len(starts):  # (n, prefix(n), terms summed): a zero input checks block 1 against 0
        last = len(starts) - 1
        checks = [(int(starts[k]), float(prefixes[k]), k + 1) for k in sorted({0, last // 2, last})]
    else:
        checks = [(1, 0.0, 1)]
    worst = 0.0
    for n, prefix, terms in checks:
        block = image.raw_block(n)
        mass = l1_mass(block if label == "T" else block.component_norms())
        worst = max(worst, abs(mass - prefix) / _mass_allowance(mass, terms))
    return CheckReport(
        check=f"isometry_{label}",
        holds=worst <= 1.0,
        quantities={
            "direct": norm.value,
            "direct_error": norm.error_bound,
            "embedded": norm.value,
            "embedded_error": norm.error_bound,
            "blocks_checked": float(len(checks)),
            "worst_block_dev_ratio": worst,
        },
        mode="exact",
        notes="one certified norm from the prefix column of the magnitudes; raw_block(n)'s l1 mass "
              "checked against the column at the first, a middle and the last support index",
    )
