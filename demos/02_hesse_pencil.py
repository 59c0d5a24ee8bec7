"""Plane cubics in the symmetric pencil and their group law over a
small prime field.

The pencil x0^3 + x1^3 + x2^3 + lam*x0*x1*x2 carries nine shared base
points; each smooth member is an elliptic curve whose group law the
package implements twice (a batched modular route by the Hessian
addition law and a generic line-restriction route) so the two routes
can certify one another.
"""

from pentangle.hessepencil import (PlaneCubic, add_points,
                                   add_points_generic, base_points,
                                   group_structure, scalar_multiple,
                                   torsion_points)
from pentangle.scalars import Fp

p, lam = 31, 1
curve = PlaneCubic.hesse_member(lam, Fp(1, p))
points = curve.points()
print("member lambda = %d over F_%d: %d rational points" % (lam, p,
                                                            len(points)))

# -- group structure --------------------------------------------------

st = group_structure(curve)
print("group structure:", st["invariants"], "order", st["order"])

# the nine pencil base points are inflections and form the 3-torsion
base = base_points(curve)
tor3 = torsion_points(curve, 3)
print("base points found: %d, 3-torsion points: %d" % (len(base),
                                                       len(tor3)))
print("base locus == 3-torsion:",
      sorted(b.int_coords() for b in base)
      == sorted(t.int_coords() for t in tor3))

# -- two independent addition routes ----------------------------------

a, b = points[2], points[5]
s1 = add_points(a, b)
s2 = add_points_generic(a, b)
print("Hessian-law sum:  ", s1.int_coords())
print("generic-chord sum:", s2.int_coords())
print("routes agree:", s1 == s2)

# scalar multiples walk the cyclic pieces
q = points[3]
orbit = [scalar_multiple(k, q).int_coords() for k in range(1, 6)]
print("first multiples of", q.int_coords(), "->", orbit)
print("order of the point divides the group order:",
      scalar_multiple(st["order"], q).is_origin())
