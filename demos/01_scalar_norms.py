"""
Scalar norms with certified error bounds
========================================

The sequence norm sums the p-th powers of running averages.  The
running sum is constant between support indices, so the series is
summed run by run in closed form (Euler-Maclaurin with a certified
remainder), and each result carries a rigorous error bar.  The
function norm integrates the p-th power of the running mean
(1/t) * integral of |h| over [0, t]; for step functions the inner
integral is exact and only the outer one needs quadrature.
"""

import math

from cesaro_lab import (
    StepFunction,
    TaggedVector,
    ces_fun_norm,
    ces_seq_norm,
    check_embedding_inequality,
    lp_fun_norm,
    weighted_l1_norm,
)

# -- sequence norms ----------------------------------------------------------

# the first basis vector: averages 1, 1/2, 1/3, ... so the norm at p = 2
# is sqrt(1 + 1/4 + 1/9 + ...) = sqrt(zeta(2)) = pi/sqrt(6)
e1 = TaggedVector.basis(1)
r = ces_seq_norm(e1, 2.0, tol=1e-12)
print(f"||e_1||                = {r.value:.15f}  (+/- {r.error_bound:.2e})")
print(f"pi/sqrt(6)             = {math.pi / math.sqrt(6):.15f}")

# two leading ones: the averages are 1, 1, 2/3, 2/4, ...
ones = TaggedVector.from_dense([1.0, 1.0])
r = ces_seq_norm(ones, 2.0)
print(f"||(1,1)||              = {r.value:.15f}  (+/- {r.error_bound:.2e})")

# the bracket is tight to rounding at once, even for p close to 1 where
# sum_n n**(-p) converges slowly: ||e_1|| = zeta(p)**(1/p)
for p in (1.01, 1.1, 1.5):
    r = ces_seq_norm(e1, p)
    print(f"  p={p}:  ||e_1|| = {r.value:.13f}  error<={r.error_bound:.2e}")

# a tol below the rounding floor is reported, not met silently
r = ces_seq_norm(e1, 2.0, tol=1e-18)
print(f"  tol=1e-18:  error<={r.error_bound:.2e}  warning: {r.warning}")

# -- function norms ----------------------------------------------------------

print()
# constants are fixed points of the averaging operator
const = StepFunction.constant(1.0)
print(f"||1||_Ces_2            = {ces_fun_norm(const, 2.0).value:.15f}")

# an indicator of (0, 1/2]: at p = 1 the norm is the exact weighted
# integral with weight log(1/s), here (1 + ln 2)/2
half = StepFunction.indicator(0.0, 0.5)
w = weighted_l1_norm(half)
print(f"||1_(0,1/2]||_Ces_1    = {w.value:.15f}  exact={w.exact}")
print(f"(1 + ln 2)/2           = {(1 + math.log(2)) / 2:.15f}")

# at p = 2 the closed form is sqrt(1/2 + 1/4) = sqrt(3)/2
r = ces_fun_norm(half, 2.0)
print(f"||1_(0,1/2]||_Ces_2    = {r.value:.15f}  (+/- {r.error_bound:.2e})")
print(f"sqrt(3)/2              = {math.sqrt(3) / 2:.15f}")

# -- the Hardy-type comparison ----------------------------------------------

print()
# the averaged norm never exceeds q times the Lebesgue norm (q conjugate)
for p in (1.5, 2.0, 3.0):
    rpt = check_embedding_inequality(half, p)
    lhs, rhs = rpt.quantities["lhs"], rpt.quantities["rhs"]
    print(f"p={p}:  {lhs:.6f} <= {rhs:.6f}  (q={rpt.quantities['q']:.3f})  holds={rpt.holds}")

print()
print("Lebesgue norms are closed-form for steps:",
      f"||1_(0,1/2]||_2 = {lp_fun_norm(half, 2.0).value:.15f}")
