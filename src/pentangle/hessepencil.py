"""The pencil of plane cubics x0^3+x1^3+x2^3+lam*x0*x1*x2 and its
group-theoretic arithmetic.

Four layers live here:

  * exact symbolic facts about the pencil over Q(eps3): the four
    sum-of-cubes identities behind the Fermat-curve description of the
    eight nontrivial character cubics, the split members as products of
    line triples, and the singular parameter locus lam^3 = -27;
  * the group law on a smooth member over F_p with origin (0,1,-1): a
    modular route that adds whole int64 arrays of points row by row by
    the Hessian addition law (the tests check it against an independent
    chord-tangent law);
  * torsion arithmetic over small prime fields: point enumeration,
    point orders, group invariants and generators, and the set
    identities 3r+2q = c on the diagonal;
  * the 6-secant collinearity criterion, verified on a searched witness
    curve whose 2-, 3- and 5-torsion are all rational.

The recorded source listings carry two transcription defects that the
verifiers flag instead of silently repairing: the third sum-of-cubes
identity writes a stray fourth variable in one monomial, and the
lambda values listed for two of the split members are swapped relative
to what expansion gives.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .heisenberg import TRIANGLE_LINES, character_decomposition, iota3_on_polynomial
from .checks import Checks
from .multipoly import MultiPoly
from .scalars import (DEFAULT_PRIMES, EPS3, Cyclo, Fp, _inverse_table,
                      _prime_factors, find_root_of_unity, hasse_admits)

VARS3 = ("x0", "x1", "x2")

#: primes admitting a curve with (Z/30)^2 inside its rational points;
#: such a group has order divisible by 900, so p + 1 + 2*sqrt(p) >= 900
#: and 30 | p - 1 are both necessary
WITNESS_PRIMES = (1741, 1801, 1831, 1861, 2671, 2731, 2791)

#: the three finite parameters of singular members; the fourth singular
#: member is the coordinate triangle at lam = infinity
SINGULAR_LAMBDAS = (Cyclo(-3), Cyclo(-3) * EPS3, Cyclo(-3) * EPS3 ** 2)

#: lambda values as listed positionally against the four split members;
#: expansion shows the (1,1) and (1,2) entries are interchanged
RECORDED_TRIANGLE_LAMBDAS: dict[tuple[int, int], Cyclo | None] = {
    (0, 1): None,
    (1, 1): Cyclo(-3) * EPS3 ** 2,
    (1, 0): Cyclo(-3),
    (1, 2): Cyclo(-3) * EPS3,
}


def hesse_polynomial(lam, one) -> MultiPoly:
    """x0^3 + x1^3 + x2^3 + lam*x0*x1*x2 over the ring containing one."""
    lam = one * lam if isinstance(lam, int) else lam
    return MultiPoly(VARS3, {
        (3, 0, 0): one, (0, 3, 0): one, (0, 0, 3): one, (1, 1, 1): lam}, one)


def infinity_member_polynomial(one) -> MultiPoly:
    return MultiPoly(VARS3, {(1, 1, 1): one}, one)


# -- curves ------------------------------------------------------------


class PlaneCubic:
    """A member of the pencil with origin (0,1,-1), which lies on every
    member; lam None is the member at infinity, x0*x1*x2, which is
    singular and carries only incidence data."""

    __slots__ = ("f", "one", "lam", "_points", "_maps", "_orders")

    def __init__(self, lam, one):
        self.one = one
        self.lam = lam
        self.f = (infinity_member_polynomial(one) if lam is None
                  else hesse_polynomial(lam, one))
        self._points = None
        self._maps = None
        self._orders = None

    @classmethod
    def hesse_member(cls, lam, one) -> "PlaneCubic":
        return cls(one * lam if isinstance(lam, int) else lam, one)

    @classmethod
    def infinity_member(cls, one) -> "PlaneCubic":
        return cls(None, one)

    def fp_params(self) -> tuple[int, int]:
        """(lam, p) as plain integers; only for finite members over F_p."""
        if not isinstance(self.one, Fp) or self.lam is None:
            raise ValueError("fast arithmetic needs a pencil member over F_p")
        return self.lam.v, self.one.p

    def point_array(self) -> np.ndarray:
        """All F_p points as sorted rows of a read-only (n, 3) array."""
        if self._points is None:
            self._points = _fp_enumerate_hesse(*self.fp_params())
        return self._points

    def __repr__(self) -> str:
        return "PlaneCubic(%s)" % self.f.render()


# -- Hessian addition law, modular fast route --------------------------
#
# Points are rows of (n, 3) int64 arrays of residues in [0, p), each row
# normalised so its first nonzero coordinate is 1.  Every operation acts
# row by row, so a batch gives the same rows as its rows one at a time.
# The addition law of the Hessian form (Joye and Quisquater, CHES 2001;
# Bernstein, Chuengsatiansup, Kohel and Lange, LATINCRYPT 2015) does not
# involve lam, which enters only the on-curve checks.


def _rows(points) -> np.ndarray:
    """Coordinate triples as an (n, 3) int64 array."""
    return np.asarray(points, dtype=np.int64).reshape(-1, 3)


def _fp_cubic(lam: int, p: int, pts: np.ndarray) -> np.ndarray:
    """The member's cubic at every row; zero exactly on its points."""
    x, y, z = pts.T
    return (x ** 3 + y ** 3 + z ** 3 + lam * x * y * z) % p


def _fp_normalize(v: np.ndarray, p: int) -> np.ndarray:
    """Rows of residues scaled so the first nonzero one is 1, worked on
    as columns, which numpy handles much faster than short rows."""
    x, y, z = v.T
    lead = np.where(x != 0, x, np.where(y != 0, y, z))
    if not lead.all():
        raise ValueError("cannot normalise the zero vector")
    cols = v.T * _inverse_table(p)[lead]
    cols %= p
    return cols.T


def _hessian_law(a: np.ndarray, b: np.ndarray, p: int, rotated: bool = False) -> np.ndarray:
    """The standard addition law, row by row, reduced mod p:
    (X1^2 Y2 Z2 - X2^2 Y1 Z1 : Z1^2 X2 Y2 - Z2^2 X1 Y1 : Y1^2 X2 Z2 - Y2^2 X1 Z1),
    zero on every doubling.  With `rotated`, the same formula at
    (Y1, Z1, X1) and (Z2, X2, Y2): the negated rotated law
    (Z2^2 X1 Z1 - Y1^2 X2 Y2 : Y2^2 Y1 Z1 - X1^2 X2 Z2 : X2^2 X1 Y1 - Z1^2 Y2 Z2).
    Components go into one (3, n) buffer, with few temporaries alive."""
    x1, y1, z1 = a.T
    x2, y2, z2 = b.T
    if rotated:
        x1, y1, z1, x2, y2, z2 = y1, z1, x1, z2, x2, y2
    cols = np.empty((3, len(a)), dtype=np.int64)
    np.subtract(x1 * x1 * y2 * z2, x2 * x2 * y1 * z1, out=cols[0])
    np.subtract(z1 * z1 * x2 * y2, z2 * z2 * x1 * y1, out=cols[1])
    np.subtract(y1 * y1 * x2 * z2, y2 * y2 * x1 * z1, out=cols[2])
    cols %= p
    return cols.T


def _fp_origin(p: int) -> np.ndarray:
    return np.array((0, 1, p - 1), dtype=np.int64)


def _is_origin(pts: np.ndarray, p: int) -> np.ndarray:
    return (pts == _fp_origin(p)).all(axis=1)


def _fp_neg(pts: np.ndarray, p: int) -> np.ndarray:
    return _fp_normalize(pts[:, [0, 2, 1]], p)


def _fp_add(lam: int, p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """P + Q for every row pair, with origin (0:1:-1) and negation
    (x:z:y): the standard law, and the rotated law on the rows where the
    standard one vanishes (every row when b is a, a doubling); on a
    smooth member the two are never both zero.  Raises ArithmeticError
    if a row of a or b or a sum is off its member, or if both laws vanish.

    int64 bound: products of four residues, their differences and the
    cubic's values stay under p**4 + 3*p**3 in absolute value: under
    6.1*10**13 at the largest witness prime 2791, and inside int64 for
    every p below 55 000."""
    if _fp_cubic(lam, p, a).any():
        raise ArithmeticError("first point not on curve")
    if b is a:
        total = _hessian_law(a, a, p, rotated=True)
        zero = ~total.any(axis=1)
    else:
        if _fp_cubic(lam, p, b).any():
            raise ArithmeticError("second point not on curve")
        a, b = np.broadcast_arrays(a, b)
        total = _hessian_law(a, b, p)
        zero = ~total.any(axis=1)
        if zero.any():
            total[zero] = _hessian_law(a[zero], b[zero], p, rotated=True)
            zero[zero] = ~total[zero].any(axis=1)
    if zero.any():
        raise ArithmeticError("both addition laws vanish")
    total = _fp_normalize(total, p)
    if _fp_cubic(lam, p, total).any():
        raise ArithmeticError("sum not on curve")
    return total


def _fp_scalar(lam: int, p: int, k: int, pts: np.ndarray) -> np.ndarray:
    """k * P for every row P; k is shared, so double-and-add runs once."""
    if k < 0:
        return _fp_scalar(lam, p, -k, _fp_neg(pts, p))
    acc = None
    base = pts
    while k:
        if k & 1:
            acc = base if acc is None else _fp_add(lam, p, acc, base)
        if k > 1:
            base = _fp_add(lam, p, base, base)
        k >>= 1
    return np.tile(_fp_origin(p), (len(pts), 1)) if acc is None else acc


def _fp_multiples_235(lam: int, p: int, pts: np.ndarray) -> tuple:
    """(2P, 3P, 5P) for every row P from one doubling, 3P = 2P + P and
    5P = 3P + 2P: three additions where two `_fp_scalar` calls take five."""
    two = _fp_add(lam, p, pts, pts)
    three = _fp_add(lam, p, two, pts)
    return two, three, _fp_add(lam, p, three, two)


# -- enumeration over F_p ----------------------------------------------

#: rows per lambda-grid slab; each int64 temporary of a slab has at most
#: _CHUNK * (p - 1) / d entries, d = gcd(3, p - 1) (the slab width is the
#: number of classes of F_p^* modulo the cube roots of unity), 0.24 MB at
#: the largest witness prime 2791, where d = 3
_CHUNK = 32


def _orbit_classes(p: int) -> tuple:
    """(w, r): w the d = gcd(3, p - 1) cube roots of unity of F_p, as
    powers of omega = g**m (1 when d = 1), and r[j] = g**j for
    j < m = (p - 1)/d, one representative of each class of F_p^* modulo
    them; g is the least generator of F_p^*.  Products stay under p**2."""
    d = gcd(3, p - 1)
    m = (p - 1) // d
    g = find_root_of_unity(p, p - 1).v
    r = np.ones(1, dtype=np.int64)
    while len(r) < m:
        r = np.concatenate([r, r * pow(g, len(r), p) % p])
    return [pow(g, m * s, p) for s in range(d)], r[:m]


def _lambda_blocks(p: int, r: np.ndarray):
    """Yield (i0, block) with block[i, j] = L(r[i0 + i], r[i0 + j]), where
    L(y, z) = -(1 + y^3 + z^3) / (y*z) is the lam whose member holds
    (1, y, z), over the class indices a slab of rows at a time and, in
    each slab, only the columns j >= i0.

    The level-3 Heisenberg group fixes every member: L is symmetric,
    and L(w^a y, w^b z) = w^-(a+b) L(y, z) for w in _orbit_classes.  So
    each entry stands for d points on each sheet s = a + b mod d, all
    on the member at w^-s L: on the diagonal square block[:, :len(block)]
    the d points (1, w^a r_i, w^(s-a) r_j) (weight d), and on the
    rectangle block[:, len(block):] these and their d mirrors
    (weight 2d).  For p = 2 mod 3, d = 1: the swap half of the grid.

    int64 bound: the factors are below 2p+1, p and p, so the product
    stays under 2*p**3, about 4.4*10**10 at the largest witness prime.
    """
    cubes = (r * r % p) * r % p
    inv = _inverse_table(p)[r]
    for start in range(0, len(r), _CHUNK):
        c = cubes[start:start + _CHUNK, None] + 1
        i = inv[start:start + _CHUNK, None]
        yield start, -(c + cubes[None, start:]) * i * inv[None, start:] % p


def _member_points(p: int, lams: Sequence[int]) -> dict[int, np.ndarray]:
    """The points of the members at each lam in lams, in no set order:
    for each lam, the hits of one pass over the lambda blocks whose
    sheet lies on its member, expanded to their points, and the points
    with a zero coordinate, which satisfy 1 + t^3 = 0 for their other
    free coordinate t whatever lam is.  Products stay under p**2."""
    w, r = _orbit_classes(p)
    d = len(w)
    seen = np.zeros(p, dtype=bool)          # block values w^s * lam
    seen[np.outer(np.asarray(lams, dtype=np.int64), w) % p] = True
    hits = []
    for i0, block in _lambda_blocks(p, r):
        iy, iz = np.nonzero(seen[block])
        hits.append((block[iy, iz], r[iy + i0], r[iz + i0], iz >= len(block)))
    value, ry, rz, off = map(np.concatenate, zip(*hits))
    sheets = [value * w[-s] % p for s in range(d)]
    roots = np.nonzero((np.arange(p) ** 3 + 1) % p == 0)[0]
    zero, one = np.zeros_like(roots), np.ones_like(roots)
    members = {}
    for lam in lams:
        ys, zs = [one, zero, roots], [roots, roots, zero]
        for s, sheet in enumerate(sheets):
            hit = sheet == lam
            y0, z0, mirror = ry[hit], rz[hit], off[hit]
            for a in range(d):
                y, z = w[a] * y0 % p, w[(s - a) % d] * z0 % p
                ys += [y, z[mirror]]
                zs += [z, y[mirror]]
        ys, zs = np.concatenate(ys), np.concatenate(zs)
        # x0 is 0 on the first len(roots) points, (0, 1, root), and 1 after
        members[lam] = np.stack([np.arange(len(ys)) >= len(roots), ys, zs], axis=1)
    return members


def _fp_enumerate_hesse(lam: int, p: int) -> np.ndarray:
    """All points of the member as sorted rows of a read-only array."""
    pts = _member_points(p, [lam])[lam]
    pts = pts[np.lexsort(pts.T[::-1])]
    pts.flags.writeable = False
    return pts


def _fp_singular_point(curve: PlaneCubic) -> tuple | None:
    """The first point of the charts of P^2(F_p) where every partial of
    the curve vanishes, or None when the curve is smooth over F_p."""
    p = curve.one.p
    partials = [curve.f.partial_derivative(v) for v in VARS3]
    charts = ([(1, y, z) for y in range(p) for z in range(p)]
              + [(0, 1, z) for z in range(p)] + [(0, 0, 1)])
    zero = curve.f.zero_coeff
    return next((pt for pt in charts
                 if all(g.eval_at(tuple(Fp(c, p) for c in pt)) == zero for g in partials)),
                None)


# -- torsion and group structure ---------------------------------------


def _multiplication_maps(lam: int, p: int, pts: np.ndarray, primes) -> dict:
    """{q: m} with pts[m] = q * pts for each q in primes, pts a member's
    sorted points: one _fp_scalar call per q, its images looked up by
    key.  An image that is not a row raises ArithmeticError."""
    keys = _keys(pts, p)
    maps = {}
    for q in primes:
        images = _keys(_fp_scalar(lam, p, q, pts), p)
        pos = np.searchsorted(keys, images).clip(max=len(keys) - 1)
        if not (keys[pos] == images).all():
            raise ArithmeticError("a multiple by %d is not among the points" % q)
        maps[q] = pos
    return maps


def _least_multiples(maps: dict, n: int, inside: np.ndarray) -> np.ndarray:
    """For every point P, the least k dividing n with k * P in the
    subgroup marked by `inside`, or 0 where n * P is outside it; maps[q]
    sends P to q * P for each prime q dividing n.  With q^e exactly
    dividing n, the q-part of k is the least q^j with q^j * (n / q^e) * P
    inside."""
    powers = []
    for q in _prime_factors(n):
        e = 1
        while n % q ** (e + 1) == 0:
            e += 1
        powers.append((q, e))
    everything = acc = np.arange(len(inside))
    k = np.ones(len(inside), dtype=np.int64)
    for q, e in powers:
        acc = everything
        for other, f in powers:
            if other != q:
                for _ in range(f):
                    acc = maps[other][acc]
        for _ in range(e):
            k[~inside[acc]] *= q
            acc = maps[q][acc]
    # acc now holds n * P
    k[~inside[acc]] = 0
    return k


def _orders(maps: Mapping, pts: np.ndarray, p: int, group_order: int) -> np.ndarray:
    """The order of every row of pts, a member's sorted points: the least
    k dividing group_order with k * P at the origin, from the maps of pts
    for the primes of group_order."""
    orders = _least_multiples(maps, group_order, _is_origin(pts, p))
    if not orders.all():
        raise ArithmeticError("%d * P is not the origin for every row" % group_order)
    return orders


def _curve_maps(curve: PlaneCubic) -> Mapping:
    """The multiplication maps of `curve.point_array()` for every prime
    dividing the point count, as read-only arrays in a read-only mapping
    kept on the curve."""
    if curve._maps is None:
        lam, p = curve.fp_params()
        pts = curve.point_array()
        maps = _multiplication_maps(lam, p, pts, _prime_factors(len(pts)))
        for m in maps.values():
            m.flags.writeable = False
        curve._maps = MappingProxyType(maps)
    return curve._maps


def _point_orders(curve: PlaneCubic) -> np.ndarray:
    """The order of every row of `curve.point_array()`, as a read-only
    array kept on the curve."""
    if curve._orders is None:
        lam, p = curve.fp_params()
        pts = curve.point_array()
        orders = _orders(_curve_maps(curve), pts, p, len(pts))
        orders.flags.writeable = False
        curve._orders = orders
    return curve._orders


def group_structure(curve: PlaneCubic) -> dict:
    """Order, exponent and invariant factors (n1 | n2) of E(F_p), as a
    new dict on every call."""
    lam, p = curve.fp_params()
    n = len(curve.point_array())
    if not hasse_admits(p, n):
        raise AssertionError("point count %d escapes the Hasse bound" % n)
    exponent = lcm(*_point_orders(curve).tolist())
    n1, n2 = n // exponent, exponent
    if n1 * n2 != n or n2 % n1 != 0:
        raise AssertionError("group is not of rank <= 2")
    return {"order": n, "exponent": n2, "invariants": (n1, n2)}


def _keys(pts: np.ndarray, p: int) -> np.ndarray:
    """One integer per point: its coordinates read in base p."""
    return (pts[:, 0] * p + pts[:, 1]) * p + pts[:, 2]


def _sorted_member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Whether each key occurs in sorted_keys.  Bisection instead of
    np.isin, whose sort-based route imports numpy.ma on first use."""
    pos = np.searchsorted(sorted_keys, keys).clip(max=len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def _cyclic_span(lam: int, p: int, gen: np.ndarray, n: int) -> np.ndarray:
    """The rows k * gen for k < n, in order, by doubling: with span_k the
    first k rows and m = min(k, n - k), span_(k+m) is span_k followed by
    the first m rows of span_k plus k * gen, and the same _fp_add call
    gives 2k * gen in one more row."""
    span = _fp_origin(p)[None, :]
    step = gen
    while len(span) < n:
        k = len(span)
        m = min(k, n - k)
        sums = _fp_add(lam, p, np.concatenate([span[:m], step]), step)
        span, step = np.concatenate([span, sums[:m]]), sums[m:]
    return span


def group_generators(curve: PlaneCubic) -> list[list[int]]:
    """One or two coordinate rows generating E(F_p), invariants order
    (n1, n2): the first point of order n2, then the first point P whose
    least k with k*P in the span of the first is n1.  Raises
    ArithmeticError if a row is off the member."""
    lam, p = curve.fp_params()
    pts = curve.point_array()
    n1, n2 = group_structure(curve)["invariants"]
    gens = np.nonzero(_point_orders(curve) == n2)[0][:1]
    if n1 > 1:
        cyclic = np.sort(_keys(_cyclic_span(lam, p, pts[gens], n2), p))
        # n1 divides the point count, so the curve's maps cover its primes
        k = _least_multiples(_curve_maps(curve), n1, _sorted_member(_keys(pts, p), cyclic))
        # the quotient by the order-n2 span has exponent dividing n1, so
        # n1*P lies in the span for every P
        if not k.all():
            raise AssertionError("%d steps left points outside the span of "
                                 "the order-%d generator" % (n1, n2))
        first = np.nonzero(k == n1)[0]
        if not len(first):
            raise AssertionError("no complementary generator found")
        gens = np.concatenate([first[:1], gens])
    if _fp_cubic(lam, p, pts[gens]).any():
        raise ArithmeticError("a generator is not on the member")
    return pts[gens].tolist()


# -- symbolic verifiers ------------------------------------------------


def _character_representatives() -> dict[tuple[int, int], MultiPoly]:
    """Computed degree-3 eigenpolynomials of the eight nontrivial
    characters, keyed by (a, b) mod 3, from one decomposition."""
    return {label: basis[0]
            for label, basis in character_decomposition(3, 3).items()
            if label != (0, 0)}


def _fermat_decompositions():
    """Cube decompositions: (label, [(cube of prefactor, line)], note).

    Prefactors are powers of eta and mu with eta^3 = eps3 and mu^3 = 1/9,
    so only their cubes appear after expansion and everything stays in
    Q(eps3).
    """
    w, w2 = EPS3, EPS3 ** 2
    ninth = Cyclo(Fraction(1, 9))
    return (
        ((1, 0), (
            (Cyclo(1), (1, 0, 0)),
            (w, (0, 1, 0)),          # (eta*x1)^3
            (w2, (0, 0, 1)),         # (eta^2*x2)^3
        ), ""),
        ((0, 2), (
            (w * ninth, (1, w2, w)),
            (w2 * ninth, (1, w, w2)),
            (ninth, (1, 1, 1)),
        ), ""),
        ((1, 2), (
            (w * ninth, (1, w2, w2)),
            (w2 * ninth, (1, w, 1)),
            (ninth, (1, 1, w)),
        ), "recorded left side writes a stray fourth variable in its middle "
           "monomial; verified against the corrected third-variable reading"),
        ((2, 2), (
            (w * ninth, (1, w2, 1)),
            (w2 * ninth, (1, w, w)),
            (ninth, (1, 1, w2)),
        ), ""),
    )


def _linear_form(coeffs) -> MultiPoly:
    one = Cyclo(1)
    cs = tuple(Cyclo(c) for c in coeffs)
    return MultiPoly(VARS3, {
        (1, 0, 0): cs[0], (0, 1, 0): cs[1], (0, 0, 1): cs[2]}, one)


def verify_fermat_identities() -> dict:
    """The four sum-of-cubes identities and the involution pairing."""
    checks = Checks()
    reps = _character_representatives()

    for label, cubes, note in _fermat_decompositions():
        lhs = reps[label]
        rhs = MultiPoly.zero(VARS3, Cyclo(1))
        for scale, line in cubes:
            rhs = rhs + _linear_form(line) ** 3 * scale
        checks.add("sum of cubes for character %r" % (label,), lhs == rhs, note)
    # involution pairing: iota maps the (a,b) eigenpolynomial to a scalar
    # multiple of the (-a,-b) one
    for a in range(3):
        for b in range(3):
            if (a, b) == (0, 0):
                continue
            image = iota3_on_polynomial(reps[a, b])
            target = reps[(-a) % 3, (-b) % 3]
            mono, lead = image.leading_term()
            ok = (target.coeff(mono) == Cyclo(1)
                  and image == target * lead)
            checks.add("involution sends character (%d,%d) to (%d,%d)"
                       % (a, b, (-a) % 3, (-b) % 3), ok,
                       "projective factor %s" % lead)
    # the involution fixes both pencil generators, hence every member
    one = Cyclo(1)
    cubic_sum = hesse_polynomial(0, one)
    triple = infinity_member_polynomial(one)
    checks.add("involution fixes the cube-sum generator",
               iota3_on_polynomial(cubic_sum) == cubic_sum)
    checks.add("involution fixes the triple-product generator",
               iota3_on_polynomial(triple) == triple)
    sample = hesse_polynomial(Cyclo(-3) * EPS3, one)
    checks.add("involution fixes a sample member",
               iota3_on_polynomial(sample) == sample)
    # point evaluation spot checks, cubing each linear form's value
    for pt in ((one, Cyclo(0), Cyclo(0)), (one, one, one),
               (one, EPS3, EPS3 ** 2)):
        agree = True
        for label, cubes, _ in _fermat_decompositions():
            lhs_v = reps[label].eval_at(pt)
            rhs_v = sum((_linear_form(line).eval_at(pt) ** 3 * scale
                         for scale, line in cubes), Cyclo(0))
            agree = agree and lhs_v == rhs_v
        checks.add("identities agree at point %s" % (tuple(str(c) for c in pt),),
                   agree)
    return {"passed": checks.passed, "checks": checks.records}


def triangle_product(key: tuple[int, int]) -> MultiPoly:
    """Product of the three lines of a split member."""
    product = MultiPoly.constant(VARS3, Cyclo(1), Cyclo(1))
    for line in TRIANGLE_LINES[key]:
        product = product * _linear_form(line)
    return product


def _render_lambda(lam: Cyclo | None) -> str:
    return "infinity" if lam is None else str(lam)


#: the prime fields over which the singular locus is scanned
SINGULAR_SCAN_PRIMES = (31, 61)


def verify_triangle_members() -> dict:
    """Split members as pencil elements and the singular parameter locus.

    The lambda pairing is discovered by expansion; the recorded listing
    is reported against it rather than trusted.  Exactness of the
    singular locus lam^3 = -27 is certified over each prime field of
    SINGULAR_SCAN_PRIMES by a full singular-point scan for every lambda.
    """
    checks = Checks()

    one = Cyclo(1)
    discovered: dict[tuple[int, int], Cyclo | None] = {}
    for key in sorted(TRIANGLE_LINES):
        product = triangle_product(key)
        if key == (0, 1):
            ok = product == infinity_member_polynomial(one)
            discovered[key] = None
            checks.add("coordinate triangle is the infinity member", ok)
            continue
        lam = product.coeff((1, 1, 1))
        ok = product == hesse_polynomial(lam, one)
        discovered[key] = lam
        checks.add("triangle %r expands to the member at lambda = %s"
                   % (key, lam), ok)
    lam_set_ok = (set(str(v) for v in discovered.values() if v is not None)
                  == set(str(v) for v in SINGULAR_LAMBDAS))
    checks.add("discovered lambdas exhaust the finite singular set", lam_set_ok)
    mismatched = sorted(
        key for key in discovered
        if discovered[key] != RECORDED_TRIANGLE_LAMBDAS[key]
        if not (discovered[key] is None
                and RECORDED_TRIANGLE_LAMBDAS[key] is None))
    checks.add("recorded pairing has the two swapped slots",
               mismatched == [(1, 1), (1, 2)],
               "slots %r differ from the recorded listing" % (mismatched,))
    scans = []
    for p in SINGULAR_SCAN_PRIMES:
        found = sorted(int(v) for v in _fp_singular_lambda_scan(p))
        w = find_root_of_unity(p, 3)
        expected = sorted({(-3) % p, (-3) * w.v % p, (-3) * w.v * w.v % p})
        scans.append({"p": p, "singular": found, "expected": expected})
        checks.add("singular lambdas over F_%d match the cube roots of -27" % p,
                   found == expected)
        checks.add("the lambda = 0 member is smooth over F_%d" % p,
                   0 not in found)
        inf = PlaneCubic.infinity_member(Fp(1, p))
        checks.add("infinity member is singular over F_%d" % p,
                   _fp_singular_point(inf) is not None)
    return {
        "passed": checks.passed,
        "checks": checks.records,
        "discovered_pairing": {str(k): _render_lambda(v)
                               for k, v in sorted(discovered.items())},
        "recorded_pairing": {str(k): _render_lambda(v)
                             for k, v in sorted(RECORDED_TRIANGLE_LAMBDAS.items())},
        "mismatched_slots": [str(k) for k in mismatched],
        "fp_scans": scans,
    }


def _fp_singular_lambda_scan(p: int) -> np.ndarray:
    """All lambda in F_p whose member has a singular point.

    Any singular point has all coordinates nonzero (a vanishing
    coordinate forces 3*x^2 = 0 in some partial), so the affine chart
    x0 = 1, x1*x2 != 0 sees everything: lambda = -3/(x1*x2) there, and
    the other two partials cut the set down.
    """
    ar = np.arange(1, p, dtype=np.int64)
    inv = _inverse_table(p)[1:]
    lam = (-3 * inv[:, None] * inv[None, :]) % p
    y = ar[:, None]
    z = ar[None, :]
    cond = (((3 * y * y + lam * z) % p == 0)
            & ((3 * z * z + lam * y) % p == 0))
    return np.flatnonzero(np.bincount(lam[cond], minlength=p))


# -- set identities on the diagonal ------------------------------------


#: (p, lam) of the member carrying the diagonal identities and the
#: translation action
SAMPLE_MEMBER = (31, 1)

#: ruling base points drawn by verify_intersection_arithmetic (half as
#: many for the shifted identity)
RULING_SAMPLES = 50


def verify_intersection_arithmetic(seed: int = 20260824) -> dict:
    """The three diagonal set identities, certified pointwise over F_p
    on SAMPLE_MEMBER."""
    p, lam = SAMPLE_MEMBER
    curve = PlaneCubic.hesse_member(lam, Fp(1, p))
    pts = curve.point_array()
    checks = Checks()

    def rows_equal(a, b):
        return (a == b).all(axis=1)

    # (i) 3r+2q = 0 on the diagonal r = q means exactly 5q = 0
    # two routes: the diagonal is 3q + 2q, and 5q is q + 4q by double-and-add
    two_q, three_q, diagonal = _fp_multiples_235(lam, p, pts)
    five_q = _fp_scalar(lam, p, 5, pts)
    five_tors = _is_origin(five_q, p)
    diag = _is_origin(diagonal, p)
    checks.add("diagonal of 3r+2q = 0 is the 5-torsion",
               (diag == five_tors).all(), "%d points" % diag.sum())
    group = group_structure(curve)
    n1, n2 = group["invariants"]
    checks.add("5-torsion count matches the extracted subgroup",
               five_tors.sum() == gcd(5, n1) * gcd(5, n2))
    # (ii) same with every nonzero 3-torsion translate on the right
    three_tors = pts[_is_origin(three_q, p) & ~_is_origin(pts, p)]
    shifted_counts = []
    ok_all = True
    for rhs in _fp_neg(three_tors, p):
        left = rows_equal(diagonal, rhs)
        ok_all = ok_all and (left == rows_equal(five_q, rhs)).all()
        shifted_counts.append(int(left.sum()))
    checks.add("diagonal of 3r+2q = -tau matches 5q = -tau for all 8 taus",
               ok_all and len(three_tors) == 8)
    counts_ok = all(c in (0, five_tors.sum()) for c in shifted_counts)
    checks.add("each shifted diagonal is empty or a 5-torsion coset", counts_ok,
               "counts %r" % sorted(shifted_counts))
    # (iii) on the ruling through p, the unique solution of
    # 3(-e+p)+2e = 0 is e = 3p, and of 3(-e+p)+2e = -tau is e = 3p+tau
    rng = random.Random(seed)
    bases = _rows([rng.choice(pts) for _ in range(RULING_SAMPLES)])
    shifted = [(rng.choice(pts), rng.choice(three_tors))
               for _ in range(RULING_SAMPLES // 2)]
    shift_bases = _rows([base for base, _ in shifted])
    taus = _rows([tau for _, tau in shifted])

    def ruling(base_rows):
        """3(-e+b)+2e for every point e (axis 1) and base b (axis 0)."""
        n = len(pts)
        e_neg = np.tile(_fp_neg(pts, p), (len(base_rows), 1))
        sums = _fp_add(lam, p, e_neg, np.repeat(base_rows, n, axis=0))
        total = _fp_add(lam, p, _fp_scalar(lam, p, 3, sums),
                        np.tile(two_q, (len(base_rows), 1)))
        return total.reshape(len(base_rows), n, 3)

    def single_solution(values, rhs, expected):
        sols = pts[rows_equal(values, rhs)]
        return len(sols) == 1 and (sols[0] == expected).all()

    ok_unique = all(single_solution(values, _fp_origin(p), e)
                    for values, e in zip(ruling(bases), _fp_scalar(lam, p, 3, bases)))
    checks.add("ruling meets the kernel curve once, at e = 3p (%d samples)"
               % RULING_SAMPLES, ok_unique)
    expected = _fp_add(lam, p, _fp_scalar(lam, p, 3, shift_bases), taus)
    ok_shift = all(single_solution(values, rhs, e)
                   for values, rhs, e in zip(ruling(shift_bases),
                                             _fp_neg(taus, p), expected))
    checks.add("shifted ruling equation has the single solution e = 3p+tau",
               ok_shift)
    return {
        "passed": checks.passed,
        "checks": checks.records,
        "p": p, "lam": lam,
        "group": group,
    }


def verify_translation_action() -> dict:
    """The coordinate action restricted to SAMPLE_MEMBER translates by
    fixed 3-torsion points."""
    p, lam = SAMPLE_MEMBER
    curve = PlaneCubic.hesse_member(lam, Fp(1, p))
    pts = curve.point_array()
    o = _fp_origin(p)[None, :]
    w = find_root_of_unity(p, 3).v
    checks = Checks()

    def shift_map(rows):
        return _fp_normalize(rows[:, [2, 0, 1]], p)

    def character_map(rows):
        return _fp_normalize(rows * np.array((1, w * w % p, w)) % p, p)

    def three_torsion(rows):
        return _is_origin(_fp_scalar(lam, p, 3, rows), p)

    for name, mapping in (("cyclic shift", shift_map),
                          ("diagonal character", character_map)):
        t = mapping(o)
        checks.add("%s moves the origin to a 3-torsion point" % name,
                   three_torsion(t)[0] and not _is_origin(t, p)[0])
        ok = (mapping(pts) == _fp_add(lam, p, pts, t)).all()
        checks.add("%s is translation by a fixed 3-torsion point" % name, ok,
                   "translation point %r" % (tuple(t[0].tolist()),))
    bases = pts[(pts == 0).any(axis=1)]
    checks.add("the 9 coordinate-plane sections are 3-torsion",
               len(bases) == 9 and three_torsion(bases).all())
    return {"passed": checks.passed, "checks": checks.records,
            "p": p, "lam": lam}


# -- torsion witness search and the 6-secant criterion -----------------


def _lambda_histogram(p: int) -> np.ndarray:
    """hist[lam] = number of affine points with all coordinates nonzero.

    base[L] counts the class pairs at block value L of _lambda_blocks
    (diagonal squares once, rectangles twice), and the d points of a
    pair on sheet s lie on the member at w^-s L, so hist[lam] is d
    times the sum of base[w^s lam] over the sheets.  Every member
    carries the same 9 coordinate-plane points (p = 1 mod 3 here), so
    the member at lam has hist[lam] + 9 rational points.  Products stay
    under p**2.
    """
    w, r = _orbit_classes(p)
    base = np.zeros(p, dtype=np.int64)
    for _, block in _lambda_blocks(p, r):
        rows = len(block)
        base += np.bincount(block[:, :rows].ravel(), minlength=p)
        base += 2 * np.bincount(block[:, rows:].ravel(), minlength=p)
    lam = np.arange(p, dtype=np.int64)
    return len(w) * sum(base[lam * ws % p] for ws in w)


def _two_torsion_counts(p: int, lams: Sequence[int]) -> np.ndarray:
    """Each member's rational 2-torsion count: 1 plus the number of roots
    of x^3 + lam*x + 2, the x1 = x2 slice.  A root x (never 0) fixes
    lam = -(x^3 + 2)/x, so one count over F_p^* serves every lam.
    Products stay under p**2."""
    x = np.arange(1, p, dtype=np.int64)
    lam = -((x * x % p) * x + 2) % p * _inverse_table(p)[1:] % p
    return 1 + np.bincount(lam, minlength=p)[list(lams)]


#: candidate lambdas tried per prime by find_torsion_witness
MAX_CANDIDATES = 40


class _WitnessSearch(dict):
    """The report of find_torsion_witness, a plain dict to its readers;
    `member` holds a found witness's sorted read-only points and their
    2P and 4P, which the criterion reuses."""

    member = None


def _try_candidates(p: int, lams: Sequence[int]) -> tuple:
    """(tried, member): the trace entries of the candidate lambdas at p
    up to the first whose member has full 2-, 3- and 5-torsion, and that
    member's sorted points with their 2P and 4P (None if none passes).
    Only members with 4 rational 2-torsion points are enumerated, in one
    pass over the lambda grid, and each one's points are doubled twice:
    3P = 0 exactly when 2P = -P, and 5P = 0 exactly when 4P = -P."""
    two_torsion = _two_torsion_counts(p, lams).tolist()
    members = _member_points(p, [lam for lam, t in zip(lams, two_torsion) if t == 4])
    tried = []
    for lam, t in zip(lams, two_torsion):
        if t != 4:
            tried.append({"lam": lam, "two_torsion": t})
            continue
        pts = members[lam]
        two = _fp_add(lam, p, pts, pts)
        four = _fp_add(lam, p, two, two)
        neg = _fp_neg(pts, p)
        c3 = int((two == neg).all(axis=1).sum())
        c5 = int((four == neg).all(axis=1).sum())
        tried.append({"lam": lam, "order": len(pts), "two_torsion": 4,
                      "three_torsion": c3, "five_torsion": c5})
        if c3 == 9 and c5 == 25:
            order = np.lexsort(pts.T[::-1])
            return tried, tuple(v[order] for v in (pts, two, four))
    return tried, None


def find_torsion_witness() -> dict:
    """First (p, lambda) whose member has full rational 2-, 3- and
    5-torsion, over DEFAULT_PRIMES then WITNESS_PRIMES, with the search
    trace of every rejected prime.

    Deterministic, and each call searches afresh.  At most
    MAX_CANDIDATES are tried per prime (see _try_candidates); the trace
    gives each searched prime's candidate total and says when the cap
    cut a search short.  See _WitnessSearch for the witness's points.
    """
    trace = []
    for p in DEFAULT_PRIMES + WITNESS_PRIMES:
        lo, hi = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
        if (hi // 900) * 900 < lo:
            trace.append({"p": p, "skipped":
                          "no multiple of 900 in the point-count window"
                          " [%d, %d]" % (lo, hi)})
            continue
        if (p - 1) % 30 != 0:
            trace.append({"p": p, "skipped":
                          "full 30-torsion pairing needs 30 | p-1"})
            continue
        lams = np.arange(p, dtype=np.int64)
        cands = np.flatnonzero(((_lambda_histogram(p) + 9) % 900 == 0)
                               & ((lams ** 3 + 27) % p != 0)).tolist()
        tried, member = _try_candidates(p, cands[:MAX_CANDIDATES])
        if member is not None:
            found = _WitnessSearch(
                witness={"p": p, "lam": tried[-1]["lam"], "order": len(member[0])},
                trace=trace + [{"p": p, "candidates": tried, "candidate_total": len(cands)}])
            member[0].flags.writeable = False
            found.member = member
            return found
        if len(cands) > MAX_CANDIDATES:
            reason = ("search cut short at MAX_CANDIDATES: %d of %d candidate"
                      " lambdas tried, none passed the torsion counts"
                      % (len(tried), len(cands)))
        else:
            reason = "no candidate lambda passed the torsion counts"
        trace.append({"p": p, "candidates": tried,
                      "candidate_total": len(cands), "skipped": reason})
    return _WitnessSearch(witness=None, trace=trace)


def verify_six_secant_criterion(seed: int = 20260824) -> dict:
    """Collinearity reduction on a witness curve with rational 2-, 3-
    and 5-torsion.

    For e0 on the curve, tau a nonzero 3-torsion point and tau_i the
    three nonzero 2-torsion points, the points p_i = e0 + tau + tau_i
    satisfy sum(p_i) + 2*e0 = 5*e0, because sum(tau_i) = 0 and
    3*tau = 0; the collinearity condition sum(p_i) + 2*e0 = 0 therefore
    holds exactly when 5*e0 = 0, which has precisely 25 solutions.
    """
    search = find_torsion_witness()
    checks = Checks()
    if search["witness"] is None:
        checks.add("witness search", False, "no prime in the configured list")
        return {"passed": checks.passed, "witness": None,
                "trace": search["trace"], "checks": checks.records}
    p = search["witness"]["p"]
    lam = search["witness"]["lam"]
    curve = PlaneCubic.hesse_member(lam, Fp(1, p))
    pts, two, four = search.member
    curve._points = pts

    nonzero = ~_is_origin(pts, p)
    neg = _fp_neg(pts, p)
    two, three, five = (pts[_is_origin(two, p) & nonzero],
                        pts[(two == neg).all(axis=1) & nonzero],
                        pts[(four == neg).all(axis=1)])
    checks.add("witness torsion counts (2,3,5) = (4,9,25)",
               len(two) == 3 and len(three) == 8 and len(five) == 25,
               "order %d" % len(pts))
    s2 = _fp_add(lam, p, _fp_add(lam, p, two[[0]], two[[1]]), two[[2]])
    checks.add("the three nonzero 2-torsion points sum to zero",
               _is_origin(s2, p)[0])

    def collinearity_sums(e0, tau):
        """sum(p_i) + 2*e0 with p_i = e0 + tau + tau_i, row by row."""
        shifted = _fp_add(lam, p, e0, tau)
        trio = [_fp_add(lam, p, shifted, t) for t in two[:3]]
        pair = _fp_add(lam, p, trio[0], trio[1])
        return _fp_add(lam, p, _fp_add(lam, p, pair, trio[2]), _fp_scalar(lam, p, 2, e0))

    e0 = np.repeat(five, len(three), axis=0)
    total = collinearity_sums(e0, np.tile(three, (len(five), 1)))
    checks.add("sum(p_i) + 2*e0 = 5*e0 on all 25 x 8 torsion choices",
               (total == _fp_scalar(lam, p, 5, e0)).all())
    checks.add("collinearity holds at every 5-torsion e0",
               _is_origin(total, p).all())
    rng = random.Random(seed)
    draws = [(rng.choice(pts), rng.choice(three)) for _ in range(50)]
    e0 = _rows([e for e, _ in draws])
    total = collinearity_sums(e0, _rows([tau for _, tau in draws]))
    five_e0 = _fp_scalar(lam, p, 5, e0)
    equiv_ok = ((_is_origin(total, p) == _is_origin(five_e0, p)).all()
                and (total == five_e0).all())
    checks.add("collinearity is equivalent to 5*e0 = 0 on random points",
               equiv_ok)
    checks.add("the equation 5*e0 = 0 has exactly 25 solutions",
               len(five) == 25)
    gens = group_generators(curve)
    st = group_structure(curve)
    return {
        "passed": checks.passed,
        "checks": checks.records,
        "witness": {"p": p, "lam": lam, "order": st["order"],
                    "invariants": list(st["invariants"]),
                    "generators": [tuple(g) for g in gens]},
        "trace": search["trace"],
    }
