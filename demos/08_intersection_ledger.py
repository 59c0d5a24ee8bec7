"""Intersection-number bookkeeping on three ambient presentations.

All products come from small declarative tables shipped with the
package; divisor classes are integer vectors over a named basis, and
the ledger routines only ever expand multilinearly over those tables.
The point of the exercise: independent routes to the same degrees.
"""

from pentangle import nslattice as ns

# -- the chordal presentation -----------------------------------------

ch = ns.chordal_classes()
h = ch["hyperplane"]
print("hyperplane^3 =", ns.intersection(h, h, h))
print("ruled surface  . h^2 =",
      ns.intersection(ch["ruled_surface"], h, h))
print("adjoint surface. h^2 =",
      ns.intersection(ch["adjoint_surface"], h, h))
residual = 5 * h + ch["canonical"] - ch["adjoint_surface"] - ch["pencil"]
print("5h + K - adjoint - pencil =", residual.coeffs,
      "(zero class:", str(residual.is_zero()) + ")")

# -- the blow-up presentation agrees on the degree --------------------

bl = ns.blowup_classes()
wall = 2 * bl["hyperplane"] - bl["exceptional"]
print()
print("(2h - e)^3 on the blow-up =", ns.intersection(wall, wall, wall))
report = ns.verify_halved_hyperplane_class()
print("halved hyperplane certificate passed:", report["passed"])
for check in report["checks"]:
    print("  -", check["name"], "::", check["detail"])

# -- the scroll and the double point formula --------------------------

sc = ns.scroll_classes()
print()
print("scroll canonical^2 =",
      ns.intersection(sc["canonical"], sc["canonical"]))
print("diagonal image . hyperplane =",
      ns.intersection(sc["diagonal_curve"], sc["hyperplane"]))
dp = ns.verify_double_point_formula()
print("double point certificate passed:", dp["passed"])
for check in dp["checks"]:
    print("  -", check["name"], "::", check["detail"])
