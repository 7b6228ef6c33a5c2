"""
Block-averaging embeddings
==========================

A sequence a maps to the blocks (1/n)(a_1, ..., a_n), each measured in
l1(n); the n-th block norm is exactly the n-th running average of |a|,
so the outer lp norm of the image reproduces the sequence norm.  The
same construction applies to elements of a Cesaro sum, block n carrying
the first n components under the l1-concatenation norm.  An image keeps
only its source and derives each block when asked for it.
"""

from cesaro_lab import (
    SpaceSpec,
    SumElement,
    TaggedVector,
    embed_S,
    embed_T,
    embedded_outer_norm,
    ces_seq_norm,
    verify_isometry,
)

# -- the sequence embedding ---------------------------------------------------

a = TaggedVector.from_dense([1.0, 1.0])
image = embed_T(a, 2.0)
print("block norms of T(1,1):", [round(v, 6) for v in image.block_norms(6)])
print("scaled third block   :", image.block_coefficients(3))
print("block 10 times 10    :", 10 * image.block_norms(10)[-1], " (blocks past the support have norm S/n)")

# the outer norm of the image is the direct norm, bit for bit
direct = ces_seq_norm(a, 2.0)
outer = embedded_outer_norm(image)
print(f"direct  = {direct.value:.15f}")
print(f"embedded= {outer.value:.15f}")

rpt = verify_isometry(a, 2.0)
print("isometry holds:", rpt.holds, " worst block deviation / allowance:",
      rpt.quantities["worst_block_dev_ratio"])

# -- blocks are derived, never stored ----------------------------------------

print()
far = embed_T(TaggedVector.from_pairs([(3, 1.0), (10**9, -2.0)]), 2.0)
print("blocks repeat past n =", far.n_stored, "; raw block 10:", far.raw_block(10).entries)
print("isometry at support index 1e9:", verify_isometry(far.source, 2.0).holds)

# -- linearity on derived blocks ---------------------------------------------

print()
b = TaggedVector.from_pairs([(2, -0.5), (4, 2.0)])
lhs = embed_T(a.add(b), 2.0)
rhs = embed_T(a, 2.0).add(embed_T(b, 2.0))
print("T(a+b) block norms:", [round(v, 6) for v in lhs.block_norms(4)])
print("Ta+Tb  block norms:", [round(v, 6) for v in rhs.block_norms(4)])

# -- the generalized embedding on a Cesaro sum --------------------------------

print()
l2 = SpaceSpec.lp(2.0)
x = SumElement(2.0, ((1, TaggedVector.basis(1)), (2, TaggedVector.from_dense([3.0, 4.0]))), l2)
image = embed_S(x)
print("component norms      :", dict(x.component_norms().entries))
print("block norms of S(x)  :", [round(v, 6) for v in image.block_norms(5)])
rpt = verify_isometry(x)
print("isometry holds:", rpt.holds, " direct:", round(rpt.quantities["direct"], 12))
