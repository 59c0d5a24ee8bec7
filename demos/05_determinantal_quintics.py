"""The symmetric 5x5 matrix of linear forms, its five quadrics, and
the two degree-5 determinants, handled fully symbolically.

The modulus a is left as an indeterminate, so every identity below is
an identity of polynomials in six variables over a rational function
field; no specialization sneaks in.
"""

from pentangle import moore

a = moore.symbolic_modulus()
mm = moore.build_moore_matrices(a)

# -- the structure matrix and its companions --------------------------

print("quadric q0:                   ", mm.quadrics[0].render())
print("structure matrix entry (0, 0):", mm.m.entries[0][0].render())
print("structure matrix entry (1, 4):", mm.m.entries[1][4].render())
print("syzygy matrix entry (0, 1):   ", mm.syzygy.entries[0][1].render())

report = moore.verify_matrix_identities(a)
print()
print("matrix identity certificate (symbolic):")
for check in report["checks"]:
    print("  [%s] %s" % ("ok" if check["passed"] else "XX", check["name"]))

# -- the two quintics -------------------------------------------------

det_structure, det_dual = moore.quintic_equations(mm)
degrees = {sum(e) for e, _ in det_structure.term_items()}
print()
print("det of structure matrix: %d monomials, degrees %s"
      % (len(det_structure.terms), sorted(degrees)))
print("det of dual matrix:      %d monomials" % len(det_dual.terms))

# -- syzygies: the antisymmetric pairing lands in the quadric span ----

span = moore.verify_span_claims(mm)
print()
print("span certificate:")
for check in span["checks"]:
    print("  [%s] %s" % ("ok" if check["passed"] else "XX", check["name"]))

# -- specialization commutes with everything --------------------------

from pentangle.scalars import Cyclo

numeric = moore.build_moore_matrices(Cyclo(2))
det_n, _ = moore.quintic_equations(numeric)
specialized = moore.specialize_modulus(det_structure, Cyclo(2))
print()
print("specializing the symbolic det at a = 2 matches the det built"
      " at a = 2:", specialized == det_n)
