"""Hunting a pencil member with full rational 2-, 3- and 5-torsion,
then collapsing a collinearity condition to pure torsion arithmetic.

Most small primes cannot work: the group of F_p-points must contain
(Z/30)^2, which already forces 900 | #E and 30 | p - 1.  The search
reports why each rejected prime fails, and on the witness curve the
collinearity statement reduces to counting solutions of 5*e = 0.
"""

from pentangle.hessepencil import verify_six_secant_criterion

report = verify_six_secant_criterion()

# the search trace records one entry per rejected prime with the reason
for entry in report["trace"]:
    if "skipped" in entry:
        print("p = %4d rejected: %s" % (entry["p"], entry["skipped"]))
    else:
        cands = entry.get("candidates", [])
        print("p = %4d: %d candidate members inspected" % (entry["p"],
                                                           len(cands)))

w = report["witness"]
print()
print("witness: p = %d, lambda = %d, group order %d" % (w["p"], w["lam"],
                                                        w["order"]))

# -- the collinearity criterion on the witness curve ------------------

print()
print("criterion certificate (passed = %s):" % report["passed"])
for check in report["checks"]:
    print("  [%s] %s" % ("ok" if check["passed"] else "XX", check["name"]))
print()
print("group invariants:", report["witness"]["invariants"])
print("generators:", report["witness"]["generators"])
