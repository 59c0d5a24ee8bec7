"""Plane cubics in the symmetric pencil and their group law over a
small prime field.

The pencil x0^3 + x1^3 + x2^3 + lam*x0*x1*x2 carries nine shared base
points; each smooth member is an elliptic curve whose group law the
package computes over F_p by the Hessian addition law, on whole arrays
of points at once.  The tests check that law against an independent
chord-tangent construction; here it shows the group through its
invariants, its generators and the verifiers' check records.
"""

from pentangle.hessepencil import (PlaneCubic, group_generators,
                                   group_structure,
                                   verify_intersection_arithmetic,
                                   verify_translation_action)
from pentangle.scalars import Fp

p, lam = 31, 1
curve = PlaneCubic.hesse_member(lam, Fp(1, p))
points = curve.point_array()
print("member lambda = %d over F_%d: %d rational points" % (lam, p,
                                                            len(points)))

# -- group structure --------------------------------------------------

st = group_structure(curve)
print("group structure:", st["invariants"], "order", st["order"],
      "exponent", st["exponent"])
gens = group_generators(curve)
print("generators:", [tuple(g) for g in gens])

# the nine pencil base points lie on the coordinate planes; the
# translation verifier checks that they are the 3-torsion
base = [tuple(row) for row in points.tolist() if 0 in row]
print("points on the coordinate planes: %d" % len(base))


def show(report):
    for check in report["checks"]:
        print("  %-4s %s" % ("ok" if check["passed"] else "FAIL",
                             check["name"]))


print()
print("coordinate action on the member (p = %d, lambda = %d):" % (p, lam))
show(verify_translation_action())

# -- diagonal identities of the group law ------------------------------

print()
print("set identities 3r + 2q = c on the diagonal:")
report = verify_intersection_arithmetic()
show(report)
print("group from the identities' member:", report["group"]["invariants"])
