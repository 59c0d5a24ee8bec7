"""Exhaustive prime-field certification: scan the curve cut out by the
five quadrics, then sample chords of it and slice with random lines.

Nothing here trusts the symbolic route; the scan solves two of the
quadrics on every fibre over (x0:x1:x2), keeps the points where all
five vanish, and the certificates re-derive every matrix value from
integer arithmetic mod p.
"""

from pentangle import probe

# -- enumerate the curve ----------------------------------------------

scan = probe.scan_curve(31, 2)
print("curve over F_31 at modulus 2: %d points" % len(scan.points))
print("first five points:", scan.points[:5])
print("jacobian ranks seen:", sorted(set(scan.jacobian_ranks)))
print("admissible moduli mod 31:", probe.admissible_moduli(31, 8))

# -- chords of the curve lie on the determinant hypersurface ----------

secants = probe.certify_secant_variety(scan)
print()
print("secant certificate (passed = %s):" % secants["passed"])
for check in secants["checks"]:
    tag = "soft" if check.get("soft") else " ok " if check["passed"] else " XX "
    print("  [%s] %s: %s" % (tag, check["name"], check["detail"]))

# -- random lines meet the determinant locus in at most five points ---

incidence = probe.certify_incidence(scan)
print()
print("incidence certificate (passed = %s):" % incidence["passed"])
for check in incidence["checks"]:
    tag = "soft" if check.get("soft") else " ok " if check["passed"] else " XX "
    print("  [%s] %s: %s" % (tag, check["name"], check["detail"][:90]))
