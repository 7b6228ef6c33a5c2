"""
Opial moduli and the splitting identity
=======================================

Disjointly supported translates of a block are weakly null in lp for
p > 1 by construction, and against any fixed vector the norms satisfy
the exact splitting identity ||x_n - x||^p = ||x_n||^p + ||x||^p past a
computable stabilization index.  That identity is what makes the
moduli computable: the infimum of

    liminf ||x_n - x|| - liminf ||x_n||

over such witnesses is (R^p + eps^p)^(1/p) - R.  Slot shifts inside a
Cesaro sum never stabilize, yet their limits are exact too: the terms
are norm-null and ||x_k - x|| -> ||x||, so such a witness has gap ||x||.
"""

import math

from cesaro_lab import (
    ModulusQuery,
    SlotShiftFamily,
    SpaceSpec,
    SumElement,
    TaggedVector,
    VectorShiftFamily,
    cesaro_sum_norm,
    estimate_eta_empirical,
    eta_closed_form,
    r_closed_form,
    splitting_check,
)

l2 = SpaceSpec.lp(2.0)

# -- splitting identity --------------------------------------------------------

x = TaggedVector.from_pairs([(1, 2.0), (2, 1.0)])
family = VectorShiftFamily(base=TaggedVector.basis(1, 3.0), stride=1, start_offset=2)
rpt = splitting_check(x, family, 3.0)
# the check takes its powers of magnitudes scaled by 2**-exp2; scale back
unscale = 3 * int(rpt.quantities["exp2"])
print("splitting ||x_n - x||^3 =", math.ldexp(rpt.quantities["lhs_power"], unscale),
      " vs ||x_n||^3 + ||x||^3 =", math.ldexp(rpt.quantities["rhs_power"], unscale))
print("stabilizes at n =", int(rpt.quantities["stabilization_index"]), " holds:", rpt.holds)

# -- closed forms --------------------------------------------------------------

print()
for eps, R in ((1.0, 1.0), (0.5, 1.0), (1.0, 2.0)):
    val = eta_closed_form(ModulusQuery(l2, eps, R))
    print(f"eta_l2(eps={eps}, R={R}) = {val:.12f}")

print("eta_l1(1, 1)        =", eta_closed_form(ModulusQuery(SpaceSpec.lp(1.0), 1.0, 1.0)),
      " (weak null => norm null)")
print("r_l1(c)             =", r_closed_form(SpaceSpec.lp(1.0), 0.7), " (conventional value)")
print("r_l2(1)             =", f"{r_closed_form(l2, 1.0):.12f}", " = sqrt(2) - 1")

# -- empirical witnesses -------------------------------------------------------

print()
query = ModulusQuery(l2, eps=1.0, R=1.0)
est = estimate_eta_empirical(query, 8)  # canonical grid of 8 witness levels
print(f"witness-grid estimate = {est.estimate:.12f}  (an upper bound of the modulus)")
print(f"gap to closed form    = {est.closed_form_gap:.2e}")
print("per witness:", [round(v, 6) for v in est.per_witness])

# slot shifts inside a Cesaro sum: ||x_k|| = ||block|| zeta(p, slot)^(1/p)
# decreases to 0 and ||x_k - x|| decreases to ||x||, so the witness
# contributes exactly ||x||, for any R
print()
p = 1.5
sum_space = SpaceSpec.cesaro_sum(p)
center = SumElement(p, ((1, TaggedVector.basis(1)), (3, TaggedVector.from_pairs([(1, 0.5), (2, -1.0)]))), l2)
slots = SlotShiftFamily(TaggedVector.basis(1, 2.0), l2, p, offset=3, stride=1)
est = estimate_eta_empirical(ModulusQuery(sum_space, eps=0.5, R=0.1), [(center, slots)])
norm = cesaro_sum_norm(center)
print(f"Cesaro-sum gap (exact) = {est.estimate:.15f}")
print(f"||x||                  = {norm.value:.15f} +- {norm.error_bound:.1e}")
for k in (10, 10**3, 10**6):
    term = slots.term(k)
    print(f"k = {k:>7}: ||x_k|| = {cesaro_sum_norm(term).value:.6f}",
          f" ||x_k - x|| = {cesaro_sum_norm(term.sub(center)).value:.6f}")
