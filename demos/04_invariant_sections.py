"""The five invariant sections of the tensor space y_i (x) x_j.

A tensor sum c_ij y_i (x) x_j with cyclotomic coefficients is stored as
three linear forms in y0..y14, the coefficients f_0, f_1, f_2 of x0, x1
and x2.  The five combinations s_0 .. s_4 are fixed by the diagonal
level-15 action and permuted or scaled by the level-5 generators; every
identity here is checked term by term, never numerically.
"""

from pentangle.sections import (delta_sigma, delta_tau, h5_sigma, h5_tau,
                                involution, render, sections,
                                verify_section_symmetries)

secs = sections()
print("number of sections:", len(secs))
print("s0 =", render(secs[0]))
print("s1 =", render(secs[1]))
print("s1 as forms in y: x0 ->", secs[1][0].render(), " x1 ->",
      secs[1][1].render(), " x2 ->", secs[1][2].render())

# -- invariance under the diagonal action -----------------------------

print()
for i, s in enumerate(secs):
    print("s%d: shift-invariant %s, character-invariant %s"
          % (i, delta_sigma(s) == s, delta_tau(s) == s))

# -- the level-5 generators permute and scale the basis ---------------

print()
shifted = [h5_sigma(s) for s in secs]
print("shift sends s_i to s_{i-1}:",
      all(shifted[i] == secs[(i - 1) % 5] for i in range(5)))
scaled = [h5_tau(s) for s in secs]
print("character scales each s_i by a fifth root:",
      [scaled[i] == secs[i] for i in range(5)],
      "(only s0 has trivial scale)")

# the involution fixes s0 and swaps the rest in pairs
swapped = [involution(s) for s in secs]
print("involution pairing:",
      [next(j for j in range(5) if swapped[i] == secs[j])
       for i in range(5)])

# -- the packaged certificate -----------------------------------------

report = verify_section_symmetries()
print()
print("full symmetry certificate: %d checks, all passed = %s"
      % (len(report["checks"]), report["passed"]))
