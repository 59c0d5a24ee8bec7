"""Inverting the quadric map by pure linear algebra over F_p.

The five quadrics define a degree-2 rational map of P^4.  Composing
with unknown cubics and demanding the composite be a scalar multiple of
the identity gives a linear system; its one-dimensional solution space
hands over both the inverse cubics and the common quintic factor, and
that factor turns out to cut the chordal hypersurface.
"""

import numpy as np

from pentangle import probe

scan = probe.scan_curve(31, 1)
witness = probe.interpolate_cremona_inverse(scan)

print("solution space dimension:", witness.solution_dimension)
print("inverse given by %d cubics; common factor has %d monomials"
      % (len(witness.cubics), np.count_nonzero(witness.factor)))
print()
for check in witness.report["checks"]:
    mark = "ok" if check["passed"] else "XX"
    print("  [%s] %s" % (mark, check["name"]))
    print("        %s" % check["detail"][:96])

# -- follow one generic point through the composition -----------------
#
# the curve itself is the base locus of the forward map (the quadrics
# vanish there), so the walk-through uses a generic point instead

p = 31
x = (1, 5, 12, 3, 22)
forward = witness.apply_forward(x)
back = witness.apply_inverse(forward)
scale = next(b * pow(v, -1, p) % p for b, v in zip(back, x) if v)
print()
print("generic point     x =", x)
print("quadric image  f(x) =", forward)
print("cubic pullback g(f(x)) =", back)
print("pullback equals %d * x mod %d:" % (scale, p),
      back == tuple(scale * v % p for v in x))
