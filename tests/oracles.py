"""Independent reference computations that several test modules compare
the package against.  Plain exact arithmetic over the coefficient field,
one scalar operation at a time, with none of the package's batching or
staging, with these exceptions.  The rank mask tests every 4x4 minor
with the package's staged determinant, a route independent of row
reduction.  The singular directions evaluate that staged determinant at
every point of projective space, a route independent of the full scan's
twist reduction and coefficient expansion.  The lattice quintic reads a
determinant's coefficients off its values by the package's row
reduction, a route independent of expanding the determinant over
coefficient vectors.  The complement steps add points by the package's
Hessian addition law, a route independent of composing multiplication
maps.  The two-chord sum adds whole arrays of points over F_p by
restricting the cubic to chords and tangent lines, a route independent
of the package's Hessian addition law.  The tuple-keyed polynomial kernels read a polynomial's terms as
exponent tuples through `term_items`, a route independent of the packed
monomials."""

from __future__ import annotations

from itertools import product
from typing import Mapping, Sequence

import numpy as np

from pentangle.hessepencil import (_cyclic_span, _fp_add, _fp_cubic, _fp_normalize,
                                   _fp_origin, _keys, _point_orders,
                                   _sorted_member, group_structure)
from pentangle.multipoly import MultiPoly
from pentangle.probe import (_chart_blocks, _coefficients, _det_staged, _lattice,
                             _structure_rows)
from pentangle.scalars import cyclo_root_of_unity


def scalar_matrix_det(rows: Sequence[Sequence], one):
    """Determinant of a square scalar matrix by Gaussian elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    zero = one * 0
    det = one
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != zero), None)
        if pivot is None:
            return zero
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k]
        inv = one / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != zero:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    return det


def incidence_residual(x_point, y_point, mm) -> list:
    """The pairing vector M(y) x of a Moore matrix bundle at one point
    pair; all zeros certifies incidence.

    The other evaluation order, the dual matrix at x applied to y, is
    computed too and must give the same vector.
    """
    one = mm.one
    xs = [one * v for v in x_point]
    ys = [one * v for v in y_point]

    def apply(rows, vec):
        return [sum((r * v for r, v in zip(row, vec)), one * 0) for row in rows]

    lhs = apply(mm.m.eval_at(ys), xs)
    if lhs != apply(mm.m_prime.eval_at(xs), ys):
        raise AssertionError("the two pairing evaluation orders disagree")
    return lhs


def rank_at_most_three_mask(rows, p: int):
    """Whether every 4x4 minor vanishes, for 5x5 rows of (n,) residue
    arrays: the mask of the matrices of rank at most three.

    The stack shrinks as the test goes: each minor is computed only on the
    columns where every earlier minor vanished.
    """
    n = len(rows[0][0])
    live = np.arange(n)
    for drop_row, drop_col in product(range(5), repeat=2):
        minor = [[entry for c, entry in enumerate(row) if c != drop_col]
                 for r, row in enumerate(rows) if r != drop_row]
        zero = _det_staged(minor, p) == 0
        rows = [[entry[zero] for entry in row] for row in rows]
        live = live[zero]
    mask = np.zeros(n, dtype=bool)
    mask[live] = True
    return mask


def singular_directions(p: int, z) -> np.ndarray:
    """The unreduced evaluation: the (5, n) stack of every normalised point
    of projective four-space over F_p at which the structure determinant
    vanishes, each point evaluated on its own."""
    return np.concatenate([block[:, _det_staged(_structure_rows(block, z, p), p) == 0]
                           for block in _chart_blocks(p)], axis=1)


def chord_sample(rng, points, p: int) -> tuple:
    """A point on the chord through two distinct curve points, one
    ``randrange`` call per draw: two indices, again while they are equal,
    then two nonzero scalars."""
    while True:
        first = rng.randrange(len(points))
        second = rng.randrange(len(points))
        if first != second:
            break
    lam = rng.randrange(1, p)
    mu = rng.randrange(1, p)
    left, right = points[first], points[second]
    return tuple((lam * left[i] + mu * right[i]) % p for i in range(5))


def lattice_quintic(rows, z, p: int) -> np.ndarray:
    """The coefficient vector over monomials(5, 5)[::-1] of the determinant
    of ``rows(x, z, p)``, the structure or the dual rows, read off its
    values on the quintic lattice by one solve."""
    return _coefficients(_det_staged(rows(_lattice(5), z, p), p), 5, p)


def substitute(poly: MultiPoly, images: Mapping[str, MultiPoly]) -> MultiPoly:
    """Simultaneous substitution var -> polynomial in the same ring: every
    term expanded as its coefficient times powers of the images, the
    variables without an image kept."""
    acc = MultiPoly.zero(poly.vars, poly.one)
    for mono, c in poly.term_items():
        piece = MultiPoly.constant(poly.vars, c, poly.one)
        for v, e in zip(poly.vars, mono):
            image = images.get(v)
            if image is None:
                image = MultiPoly.variable(v, poly.vars, poly.one)
            piece = piece * image ** e
        acc = acc + piece
    return acc


def _grevlex(mono: tuple):
    """Sort key: ascending order lists monomials from grevlex-largest down."""
    return (-sum(mono), tuple(reversed(mono)))


def _accumulate(out: dict, mono: tuple, c, zero) -> None:
    acc = out.get(mono, zero) + c
    if not acc:
        out.pop(mono, None)
    else:
        out[mono] = acc


def multiply(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f * g over exponent tuples: every pair of terms, exponents added
    place by place."""
    out: dict[tuple, object] = {}
    for m1, c1 in f.term_items():
        for m2, c2 in g.term_items():
            _accumulate(out, tuple(a + b for a, b in zip(m1, m2)), c1 * c2, f.zero_coeff)
    return MultiPoly(f.vars, out, f.one)


def leading_term(f: MultiPoly) -> tuple:
    """The grevlex-largest (exponent tuple, coefficient) pair."""
    return min(f.term_items(), key=lambda t: _grevlex(t[0]))


def exact_divide(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f / g over exponent tuples: the remainder rescanned for its
    grevlex-largest term, divided by g's leading coefficient each time;
    a leading term g's leading monomial does not divide raises
    ValueError."""
    zero = f.zero_coeff
    g_mono, g_coeff = leading_term(g)
    rem = dict(f.term_items())
    quot: dict[tuple, object] = {}
    while rem:
        mono = min(rem, key=_grevlex)
        diff = tuple(a - b for a, b in zip(mono, g_mono))
        if any(e < 0 for e in diff):
            raise ValueError("not exactly divisible")
        c = rem[mono] / g_coeff
        _accumulate(quot, diff, c, zero)
        for m2, c2 in g.term_items():
            _accumulate(rem, tuple(a + b for a, b in zip(diff, m2)), -(c * c2), zero)
    return MultiPoly(f.vars, quot, f.one)


def partial_derivative(f: MultiPoly, var: str) -> MultiPoly:
    """d/d var over exponent tuples, with no characteristic guard."""
    idx = f.vars.index(var)
    out: dict[tuple, object] = {}
    for mono, c in f.term_items():
        e = mono[idx]
        if e:
            _accumulate(out, mono[:idx] + (e - 1,) + mono[idx + 1:], c * e, f.zero_coeff)
    return MultiPoly(f.vars, out, f.one)


def monomials(degree: int, nvars: int) -> list[tuple]:
    """Every exponent tuple of total degree ``degree`` in ``nvars``
    variables, lexicographically descending: each leading exponent from
    ``degree`` down, followed by the tuples of the rest."""
    if nvars == 1:
        return [(degree,)]
    return [(lead,) + rest for lead in range(degree, -1, -1)
            for rest in monomials(degree - lead, nvars - 1)]


def grevlex_monomials(f: MultiPoly) -> list[tuple]:
    """The exponent tuples of f's terms, grevlex-largest first."""
    return sorted((mono for mono, _ in f.term_items()), key=_grevlex)


def tensor_action(g, terms: Mapping[tuple[int, int], object], axis: int) -> dict:
    """A Heisenberg element acting on one factor of sum c y_i (x) x_j,
    term by term from the element's fields: on the y factor (axis 0,
    level 15) (i, j, c) -> (i - s, j, c * central * eps15^(-e*t*i)), and on
    the x factor (axis 1, level 3) the same rule in j with eps3.  Terms
    are {(i, j): c} and come back reduced mod (15, 3), zeros dropped."""
    n = (15, 3)[axis]
    if g.level != n:
        raise ValueError("factor %d carries the level-%d action" % (axis, n))
    eps = cyclo_root_of_unity(n)
    out: dict[tuple[int, int], object] = {}
    for (i, j), c in terms.items():
        k = (i, j)[axis]
        c = c * g.central * eps ** (-g.twist * g.tau_power * k % n)
        key = (i - g.sigma_power, j) if axis == 0 else (i, j - g.sigma_power)
        _accumulate(out, (key[0] % 15, key[1] % 3), c, c * 0)
    return out


def complement_steps(curve) -> np.ndarray:
    """For every point P of a smooth member over F_p with invariants
    (n1, n2), n1 > 1, the least k >= 1 with k * P in the span of the
    member's first point of order n2, found by adding P to k * P one step
    at a time."""
    lam, p = curve.fp_params()
    pts = curve.point_array()
    n1, n2 = group_structure(curve)["invariants"]
    gen2 = pts[np.nonzero(_point_orders(curve) == n2)[0][:1]]
    cyclic = np.sort(_keys(_cyclic_span(lam, p, gen2, n2), p))
    k = np.ones(len(pts), dtype=np.int64)
    acc = pts.copy()
    outside = ~_sorted_member(_keys(acc, p), cyclic)
    for _ in range(n1):
        if not outside.any():
            return k
        idx = np.nonzero(outside)[0]
        acc[idx] = _fp_add(lam, p, acc[idx], pts[idx])
        k[idx] += 1
        outside[idx] = ~_sorted_member(_keys(acc[idx], p), cyclic)
    raise AssertionError("%d steps left points outside the span" % n1)


def gradient(lam: int, p: int, pts: np.ndarray) -> np.ndarray:
    """The gradient of the member's cubic at every row."""
    x, y, z = pts.T
    return np.stack(((3 * x * x + lam * y * z) % p,
                     (3 * y * y + lam * x * z) % p,
                     (3 * z * z + lam * x * y) % p), axis=-1)


def cross(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Row-wise cross products mod p."""
    return np.stack(((u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]) % p,
                     (u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]) % p,
                     (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]) % p),
                    axis=-1)


def tangent_companions(lam: int, p: int, pts: np.ndarray) -> np.ndarray:
    """A second point of the tangent line at every row: grad x e_k, with
    k = 0 where x0 != 0 and k = 1 elsewhere.  Its k-th coordinate is zero
    and the row's is not, so at a smooth point it is never a multiple of
    the row; at a singular point it is zero, and this raises
    ArithmeticError."""
    grad = gradient(lam, p, pts)
    e = np.where(pts[:, :1] != 0, np.array([1, 0, 0]), np.array([0, 1, 0]))
    companion = cross(grad, e, p)
    if not companion.any(axis=1).all():
        raise ArithmeticError("singular point has no tangent line")
    return companion


def _restrict(lam: int, p: int, a: np.ndarray, r: np.ndarray) -> tuple:
    """Coefficients (c30, c21, c12, c03) of the cubic on the lines
    s*a + t*r, one per row."""
    a0, a1, a2 = a.T
    r0, r1, r2 = r.T
    c21 = (3 * (a0 * a0 * r0 + a1 * a1 * r1 + a2 * a2 * r2)
           + lam * (a0 * a1 * r2 + a0 * r1 * a2 + r0 * a1 * a2)) % p
    c12 = (3 * (a0 * r0 * r0 + a1 * r1 * r1 + a2 * r2 * r2)
           + lam * (a0 * r1 * r2 + r0 * a1 * r2 + r0 * r1 * a2)) % p
    return _fp_cubic(lam, p, a), c21, c12, _fp_cubic(lam, p, r)


def third_points(lam: int, p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The third intersection of the member with the line through a and b,
    row by row, the tangent line where the rows coincide.  Raises
    ArithmeticError if a row is off the member or its line lies in it.
    Intermediates stay under 3*p**4 + 9*p**3."""
    a, b = np.broadcast_arrays(a, b)
    same = ~cross(a, b, p).any(axis=1)
    r = b.copy()
    if same.any():
        r[same] = tangent_companions(lam, p, a[same])
    c30, c21, c12, c03 = _restrict(lam, p, a, r)
    if c30.any() or c03[~same].any():
        raise ArithmeticError("point not on curve")
    if c21[same].any():
        raise ArithmeticError("tangency division has a remainder")
    s0 = np.where(same, c03, c12)
    t0 = np.where(same, -c12, -c21) % p
    if not (s0.astype(bool) | t0.astype(bool)).all():
        raise ArithmeticError("line lies in the cubic")
    return _fp_normalize((s0[:, None] * a + t0[:, None] * r) % p, p)


def add_by_two_chords(lam: int, p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """P + Q as the third point of the line through the origin and P*Q,
    the two-chord form of the chord-tangent law, row by row."""
    return third_points(lam, p, third_points(lam, p, a, b), _fp_origin(p))
