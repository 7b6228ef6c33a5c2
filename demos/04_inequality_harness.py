"""
Mechanical inequality checks on weakly-null function families
=============================================================

A family f_n(t) = g(t) * (shifted unit block) has ||f_n(t)|| = g(t) for
every n and converges weakly to zero pointwise.  Every limsup in the
checks below is therefore exact: past a stabilization index the
difference f_n - f has the splitting profile

    phi(t) = (g(t)^px + ||f(t)||^px)^(1/px).

The checks: the averaged inequality pair (thm31), its strict form for
nonzero f (cor32), two constructive positive-gap recipes (thm33 via a
level set, thm34 via an integrability bound), a windowed Cesaro-sum
variant (prop21), and the sup-norm example showing the constant 2 in
the generic bound cannot be improved.
"""

from cesaro_lab import (
    FunctionShiftFamily,
    SlotShiftFamily,
    SpaceSpec,
    StepFunction,
    SumElement,
    TaggedVector,
    check_cor32,
    check_prop21,
    check_sharpness_footnote,
    check_thm31,
    compute_eta_thm33,
    verify_thm33,
    verify_thm34,
)

l2 = SpaceSpec.lp(2.0)
family = FunctionShiftFamily(
    profile=StepFunction.constant(1.0),   # g = 1
    space=l2,
    block=TaggedVector.basis(1),          # unit block, shifted out to infinity
    offset=1,
    stride=1,
)
f = StepFunction.constant(TaggedVector.basis(1), l2)  # f = e_1

# -- the averaged inequality pair ---------------------------------------------

rpt = check_thm31(family, f, 2.0)
print(f"r = ||g|| / ||phi|| = {rpt.r:.12f}")
print(f"(1) divided by ||phi||^2: {rpt.lhs1:.6f} <= {rpt.rhs1:.6f}   holds={rpt.holds1}")
print(f"(2): {rpt.lhs2:.6f} <= {rpt.rhs2:.6f}   holds={rpt.holds2}")
print(f"limsup||f_n - f|| stabilizes at n = {rpt.stabilization_index}")

strict = check_cor32(family, f, 2.0)
print(f"strict margin = {strict.quantities['margin']:.6f}  holds={strict.holds}")

# -- constructive gap, level-set route ----------------------------------------

print()
recipe = compute_eta_thm33(f, 2.0, M=1.0, R=1.0, tau=0.5)
print("level set A =", recipe.A, " measure =", recipe.lambda_A)
print(f"t0 = {recipe.t0}, theta = {recipe.theta}, w = {recipe.w:.9f}")
print(f"nu = {recipe.nu:.9f}, omega = {recipe.omega:.6e}, eta = {recipe.eta:.6e}")

conclusion = verify_thm33(family, f, 2.0, M=1.0, R=1.0, tau=0.5)
print(f"conclusion: {conclusion.quantities['lhs']:.9f} <= {conclusion.quantities['rhs']:.9f}",
      f" holds={conclusion.holds}")

# -- constructive gap, integrability route ------------------------------------

print()
conclusion = verify_thm34(family, f, 2.0, r=4.0, eps=1.0, M=1.0, K=1.0, R=1.0, tau=0.25)
q = conclusion.quantities
print(f"Q = {q['Q']} (= 9/256), t0 = {q['t0']} (= 503/512), theta = {q['theta']:.12f}")
print(f"eta = {q['eta']:.3e} > 0   conclusion holds={conclusion.holds}")

# -- slot shifts in a Cesaro sum (windowed) ------------------------------------

print()
center = SumElement(2.0, ((1, TaggedVector.basis(1)),), l2)
slots = SlotShiftFamily(TaggedVector.basis(1), l2, 2.0, offset=1, stride=1)
rpt = check_prop21(slots, center, window=(100, 160))
print(f"windowed limsups: terms {rpt.quantities['limsup_norm_estimate']:.6f}",
      f" differences {rpt.quantities['limsup_diff_estimate']:.6f}")
print(f"margin {rpt.quantities['margin']:.6f} > drift {rpt.quantities['window_drift']:.6f}",
      f" holds={rpt.holds}  ({rpt.notes})")

# -- sharpness of the constant 2 ----------------------------------------------

print()
rpt = check_sharpness_footnote()
print(f"sup-norm example: limsup||x_n|| = {rpt.quantities['limsup_norm']},",
      f"limsup||x_n - x|| = {rpt.quantities['limsup_diff']},",
      f"ratio = {rpt.quantities['ratio']} (the bound is attained)")
