"""Prime-field certification of the quintic curve and its secant geometry.

The symbolic route in :mod:`pentangle.moore` proves the matrix identities
over cyclotomic scalars.  This module is the independent numeric route: it
enumerates the complete point set of the curve over each supported prime
field with numpy, by solving two of the quadrics on the fibres over
(x0:x1:x2) in O(p**2) work; checks the rank and vanishing statements by
exhaustive counting and seeded sampling, in batches; and interpolates the
inverse of the Cremona transformation defined by the five quadrics.  The
exhaustive count over the whole dual space at p=31 evaluates the structure
quintic from its coefficients, expanded once from the matrix of linear
forms, on one point of each orbit of the diagonal fifth-root twist: on
slabs of points (y0:y1:y2), two products with a table of powers give its
values at every (y3, y4).

Every sampling operation takes an explicit seed and reports it, so repeated
runs with the same configuration produce identical reports.  Point sets can
be cached on disk in a small text format with an integrity hash; a corrupt
or stale cache file is silently replaced by a fresh scan.

The coordinate conventions match :mod:`pentangle.moore`: the curve is the
common zero locus of the five quadrics built from an invertible modulus,
the structure matrix acts on the dual space, and the dual matrix is the
Jacobian of the quadrics.  The forward Cremona map sends a point to its
five quadric values in natural index order; that pinning of the target
coordinates is certified, not assumed, by checking that chord images land
on the singular hypersurface of the structure matrix.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from itertools import combinations
from math import isqrt
from pathlib import Path

import numpy as np

from .checks import Checks
from .moore import excluded_modulus_residues
from .multipoly import monomials
from .scalars import (DEFAULT_PRIMES, Fp, _inverse_table, _normalize_mod_p,
                      find_root_of_unity, hasse_admits)

SEED = 20260824
CACHE_VERSION = 1
SUPPORTED_PRIMES = DEFAULT_PRIMES

# chart slabs never exceed this many columns, nor the full incidence scan's
# evaluations this many points.  The curve scan's plane charts have p**2
# columns, so they are split only at p >= 211.
_CHUNK = 1 << 15


# ---------------------------------------------------------------------------
# residue arithmetic shared by scalar and vectorised call sites


def _coerce_residue(p: int, a) -> int:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"prime {p} is not in the supported list {SUPPORTED_PRIMES}")
    if isinstance(a, Fp):
        if a.p != p:
            raise ValueError(f"modulus lives in F_{a.p}, scan requested over F_{p}")
        a = a.v
    if not isinstance(a, int):
        raise TypeError(f"modulus must be an integer residue, got {type(a).__name__}")
    a %= p
    if a in excluded_modulus_residues(p):
        raise ValueError(f"modulus {a} is excluded over F_{p}: the quintic curve degenerates")
    return a


def _z_residues(p: int, a: int) -> tuple[int, int, int, int, int]:
    inva = pow(a, p - 2, p)
    return (2 % p, a, (-inva) % p, (-inva) % p, a)


def _quadric_values(x, p: int, a: int) -> list:
    """Values of the five quadrics; works on int tuples and numpy stacks.

    For coordinates below p a value is reduced once, from under 3*p**3 in
    magnitude: 4.2*10**7 at p=241, the largest supported prime.
    """
    inva = pow(a, p - 2, p)
    return [(x[i] * x[i] + a * x[(i + 2) % 5] * x[(i + 3) % 5]
             - inva * x[(i + 1) % 5] * x[(i + 4) % 5]) % p for i in range(5)]


def _residue_index(values, p: int) -> np.ndarray:
    """Residues below p as an index array; a value outside [0, p) raises,
    where numpy would wrap a negative index.  Under the unsigned view a
    negative value reads as at least 2**63, so one maximum tests both."""
    index = np.asarray(values, dtype=np.intp)
    if index.size and index.view(np.uintp).max() >= p:
        raise ValueError(f"index values must be residues in [0, {p})")
    return index


def _residue_products(v, z, p: int) -> list:
    """products[t][k] = z[t] * v[k] mod p, ints for five ints and arrays
    for a (5, ...) stack, gathered from the (5, p) table of z_t * u mod p,
    each reduced from under p**2 (5.9*10**4 at p=241)."""
    table = np.array(z, dtype=np.int64)[:, None] * np.arange(p, dtype=np.int64) % p
    index = _residue_index(v, p)
    if not isinstance(v, np.ndarray):
        table, index = table.tolist(), index.tolist()
    return [[row[k] for k in index] for row in table]


def _structure_rows(y, z, p: int) -> list:
    """Entry (i, j) is y[(i+j)%5] * z[(i-j)%5] mod p."""
    products = _residue_products(y, z, p)
    return [[products[(i - j) % 5][(i + j) % 5] for j in range(5)] for i in range(5)]


def _dual_rows(x, z, p: int) -> list:
    """Entry (i, m) is z[(2i-m)%5] * x[(m-i)%5] mod p."""
    products = _residue_products(x, z, p)
    return [[products[(2 * i - m) % 5][(m - i) % 5] for m in range(5)] for i in range(5)]


def _times(rows, vec, p: int) -> tuple:
    """Matrix-vector product over F_p, of ints or of stacks: rows of (n,)
    arrays and a (5, n) array.  An entry sums five products of residues."""
    return tuple(sum(r * v for r, v in zip(row, vec)) % p for row in rows)


def _laplace(rows, p: int, products):
    """Determinant by Laplace expansion along successive rows.

    Stage ``d`` holds the minors of rows ``0..d`` for every column subset,
    so each minor is computed once.  ``products(d, pairs)`` yields the
    product of each (entry of row d, minor of stage d - 1) pair, in order;
    a minor sums its terms with alternating signs.  Minors stay unreduced
    and only the determinant is reduced mod p, the delayed reduction of
    Dumas, Giorgi and Pernet (ACM TOMS 35(3), 2008).
    """
    n = len(rows)
    cols = tuple(range(n))
    minors = {(c,): rows[0][c] for c in cols}
    for depth in range(1, n):
        subs = list(combinations(cols, depth + 1))
        terms = iter(products(depth, [(rows[depth][c], minors[sub[:pos] + sub[pos + 1:]])
                                      for sub in subs for pos, c in enumerate(sub)]))
        staged = {}
        for sub in subs:
            acc = 0
            for pos in range(depth + 1):
                term = next(terms)
                acc = acc + term if (depth + pos) % 2 == 0 else acc - term
            staged[sub] = acc
        minors = staged
    return minors[cols] % p


def _det_staged(rows, p: int):
    """Determinant of a matrix of ints or of numpy arrays of residues below
    p, by ``_laplace``, one product at a time.  A stage-d minor is a
    (d+1)x(d+1) determinant of residues, below (d+1)!*p**(d+1) in
    magnitude, so the unreduced 5x5 determinant stays below 5!*p**5:
    under 9.8*10**13 at p=241, the largest supported prime."""
    return _laplace(rows, p, lambda depth, pairs: (entry * minor for entry, minor in pairs))


def _det_forms(rows, p: int) -> np.ndarray:
    """Determinant of a 5x5 matrix of linear forms, as its coefficient
    vector over ``monomials(5, 5)[::-1]``.

    An entry is a coefficient vector over ``monomials(1, 5)[::-1]``, so the
    rows at ``_lattice(1)`` of ``_structure_rows`` or ``_dual_rows`` are the
    matrix.  Each stage of ``_laplace`` is one ``_multiply`` of its minors,
    of degree d, by their entries over ``_product_table(d, 1)``, which
    reduces each product.  A minor sums at most four such terms, so a
    coefficient of a product sums at most 5 products of a value below
    4*p in magnitude and a residue: under 1.2*10**6 at p=241, the largest
    supported prime.
    """
    def products(depth, pairs):
        entries, minors = zip(*pairs)
        return _multiply(np.stack(minors, axis=1), np.stack(entries, axis=1),
                         _product_table(depth, 1), p).T

    return _laplace(rows, p, products)


def _rref_mod_p(rows, p: int) -> tuple[np.ndarray, list]:
    """Reduced row echelon form over F_p, and its pivot columns.

    Entries are reduced mod p first and again after every update, so
    each entry is below p before each outer product and no intermediate
    value reaches p**2 in magnitude: int64 is exact for every p below
    3*10**9, and the largest supported prime (241) stays below 58 081.

    The pivot row is zero left of its pivot column, so only the rows with
    a nonzero entry in that column change, and only from that column on;
    the result is the unique reduced echelon form all the same.
    """
    reduced = np.array(rows, dtype=np.int64)
    reduced %= p
    pivots = []
    row = 0
    for c in range(reduced.shape[1]):
        nonzero = np.nonzero(reduced[row:, c])[0]
        if nonzero.size == 0:
            continue
        lead = row + int(nonzero[0])
        if lead != row:
            reduced[[row, lead]] = reduced[[lead, row]]
        reduced[row, c:] = reduced[row, c:] * pow(int(reduced[row, c]), p - 2, p) % p
        targets = np.nonzero(reduced[:, c])[0]
        targets = targets[targets != row]
        reduced[targets, c:] = (reduced[targets, c:]
                                - np.outer(reduced[targets, c], reduced[row, c:])) % p
        pivots.append(c)
        row += 1
        if row == reduced.shape[0]:
            break
    return reduced, pivots


def _rref_stack(rows, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``_rref_mod_p`` of k matrices at once, one step per column for all.

    Rows hold (k,) arrays, as ``_det_staged`` takes them; out come a
    (k, m, n) stack and its (k, n) pivot mask.  Entries are residues before
    each step, so an update stays below p**2: under 58 081 at p=241, the
    largest supported prime, inside int64.
    """
    reduced = np.moveaxis(np.array(rows, dtype=np.int64) % p, -1, 0)
    k, m, n = reduced.shape
    inverse = _inverse_table(p)
    rank = np.zeros(k, dtype=np.int64)
    pivots = np.zeros((k, n), dtype=bool)
    for c in range(n):
        # each matrix with a nonzero entry below its pivot rows leads with the first
        open_rows = (reduced[:, :, c] != 0) & (np.arange(m) >= rank[:, None])
        live = np.nonzero(open_rows.any(axis=1))[0]
        lead = open_rows[live].argmax(axis=1)
        top = rank[live]
        mats = reduced[live]
        each = np.arange(live.size)
        row = mats[each, lead] * inverse[mats[each, lead, c]][:, None] % p
        mats[each, lead] = mats[each, top]
        mats -= mats[:, :, c, None] * row[:, None, :]
        mats[each, top] = row
        reduced[live] = mats % p
        pivots[live, c] = True
        rank[live] += 1
    return reduced, pivots


def _kernel_stack(reduced, pivots, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel bases of (k, m, n) reduced forms with (k, n) pivot masks,
    stacked matrix by matrix, and the matrix of each vector.  That of free
    column f is one at f, zero at the other free columns, and minus column
    f of the pivot rows at the pivot columns."""
    owners, free = np.nonzero(~pivots)
    rows = np.maximum(pivots.cumsum(axis=1) - 1, 0)[owners]
    entries = -reduced[owners[:, None], rows, free[:, None]] % p
    return np.where(pivots[owners], entries, free[:, None] == np.arange(pivots.shape[1])), owners


def _nullspace_mod_p(rows, p: int) -> np.ndarray:
    """Deterministic kernel basis, one vector per row: each free column set
    to one in turn."""
    reduced, pivots = _rref_mod_p(rows, p)
    mask = np.zeros(reduced.shape[1], dtype=bool)
    mask[pivots] = True
    return _kernel_stack(reduced[None], mask[None], p)[0]


def _random_point(rng: random.Random, p: int) -> tuple:
    while True:
        vec = tuple(rng.randrange(p) for _ in range(5))
        if any(vec):
            return vec


def _random_points(rng: random.Random, p: int, n: int) -> np.ndarray:
    """n ``_random_point`` draws as a (5, n) stack, leaving rng as they do.

    ``randrange(p)`` retries ``getrandbits(k)``, k = p.bit_length(), until
    it is below p; that is the top k bits of one 32-bit output, and
    ``getrandbits(32*m)`` holds m outputs, the first least significant.  The
    draws are read off such blocks, all-zero vectors skipped, and rng is
    rewound and advanced by the outputs used.
    """
    if not n:
        return np.zeros((5, 0), dtype=np.int64)
    state = rng.getstate()
    k = p.bit_length()
    words = np.zeros(0, dtype=np.uint32)
    kept = []
    while len(kept) < n:
        # the outputs the missing vectors need on average, and one vector's more
        m = (5 * (n - len(kept)) + 5) * 2 ** k // p + 1
        block = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        words = np.concatenate([words, np.frombuffer(block, dtype="<u4") >> (32 - k)])
        accepted = np.flatnonzero(words < p)
        vectors = words[accepted[:accepted.size // 5 * 5]].reshape(-1, 5)
        kept = np.flatnonzero(vectors.any(axis=1))
    rng.setstate(state)
    rng.getrandbits(32 * int(accepted[5 * kept[n - 1] + 4] + 1))
    return vectors[kept[:n]].T.astype(np.int64)


def _chord_samples(rng: random.Random, points, p: int, n: int) -> np.ndarray:
    """n points on chords through two distinct curve points, off the curve,
    as a (5, n) stack.

    A sample draws two indices by ``randrange(len(points))``, again while
    they are equal, and two scalars by ``randrange(1, p)``.  Both scalars
    are nonzero, so the sample differs from either endpoint; the curve has
    no trisecant lines, so the sample misses the curve.
    """
    draws = []
    for _ in range(n):
        first = second = 0
        while first == second:
            first, second = rng.randrange(len(points)), rng.randrange(len(points))
        draws.append((first, second, rng.randrange(1, p), rng.randrange(1, p)))
    first, second, lam, mu = np.array(draws, dtype=np.int64).reshape(n, 4).T
    ends = np.array(points, dtype=np.int64).T
    return (lam * ends[:, first] + mu * ends[:, second]) % p


# ---------------------------------------------------------------------------
# chart enumeration of projective space


def _chart_blocks(p: int, coords: int = 5):
    """Stacks of projective points with leading coordinate one.

    The ``coords`` charts partition projective space of dimension
    ``coords - 1``; within a chart the free coordinates run through
    base-``p`` digits of an index range, so the enumeration order is
    deterministic.
    """
    for lead in range(coords):
        free = coords - 1 - lead
        total = p ** free
        for start in range(0, total, _CHUNK):
            stop = min(start + _CHUNK, total)
            idx = np.arange(start, stop, dtype=np.int64)
            block = np.zeros((coords, stop - start), dtype=np.int64)
            block[lead] = 1
            for t in range(free):
                block[lead + 1 + t] = (idx // (p ** (free - 1 - t))) % p
            yield block


def _determinant_slabs(p: int, z):
    """The structure determinant on one point of each twist orbit of
    projective four-space.

    The twist y_i -> eps**i * y_i, eps of order five, gives M(twisted y) =
    D M(y) D with D = diag(eps**i), det(D)**2 = 1, so the determinant and
    the rank are constant on each orbit.  The structure quintic, expanded
    once by ``_det_forms``, must show it: a nonzero coefficient at a
    monomial of weight sum(i*e_i) not 0 mod 5 raises ArithmeticError.

    Yields ``(base, dets, weights)``, ``dets[s, t]`` the value at
    ``base[:, s] + t*e4``, which stands for ``weights[s]`` points: first
    e4 = (0:0:0:0:1), then chart points (y0:y1:y2) of projective two-space
    with every (y3, y4), last (0:0:0:1:t) with every t.  The twist scales a
    head's first nonzero coordinate after its leading one by a fifth root
    of unity, so a head is kept, with weight 5, only where that coordinate
    is least in its class; the heads it fixes, (1:0:0), (0:1:0) and
    (0:0:1), and the points off the chart keep weight 1.  On a slab of
    ``_CHUNK // 16 // p`` heads, the quintic's terms in y3**l * y4**k have
    36 coefficients, forms in (y0, y1, y2) evaluated at every slab head.
    One product with the (6, p) table of t**d mod p expands them over every
    y3, a second over every y4.  Only the 26 twist-invariant monomials are
    evaluated, once the check has passed.  A head monomial is a product of
    three residues, reduced; a coefficient then sums at most 26 products
    of two residues, a value over y3 six products of that and a residue,
    and over y4 six more, so the one reduction after them sees under
    936*p**4: under 3.2*10**12 at p=241, the largest supported prime,
    where the table holds t**5 < 8.2*10**11 before its reduction.
    """
    quintic = _det_forms(_structure_rows(_lattice(1), z, p), p)
    exponents = _lattice(5)
    invariant = np.arange(5) @ exponents % 5 == 0
    if np.any(quintic[~invariant]):
        raise ArithmeticError(f"the structure quintic over F_{p} is not twist invariant")
    quintic, exponents = quintic[invariant], exponents[:, invariant]
    # tails[m, l, k]: the coefficient of monomial m if it ends in y3**l * y4**k
    tails = np.zeros((len(quintic), 6, 6), dtype=np.int64)
    tails[np.arange(len(quintic)), exponents[3], exponents[4]] = quintic
    powers = np.arange(p, dtype=np.int64) ** np.arange(6)[:, None] % p

    def values(heads):
        """The quintic at (heads[:, s] : y3 : y4), as an (n, p, p) array."""
        index = _residue_index(heads, p)
        heads_powers = powers[exponents[:3, :, None], index[:, None]].prod(axis=0) % p
        out = powers.T @ np.tensordot(heads_powers, tails, axes=(0, 0)) @ powers
        out %= p
        return out

    # least[v]: v is the least of its class v * eps**j; least[0] keeps the fixed heads
    eps = find_root_of_unity(p, 5).v
    least = (powers[1, :, None] * [pow(eps, j, p) for j in range(5)] % p).min(axis=1) == powers[1]
    heads = np.concatenate(list(_chart_blocks(p, 3)), axis=1)
    nonzero = heads != 0
    moved = np.where(nonzero & (nonzero.cumsum(axis=0) == 2), heads, 0).sum(axis=0)
    kept = least[_residue_index(moved, p)]
    heads, weights = heads[:, kept], np.where(moved[kept], 5, 1)

    one = np.ones(1, dtype=np.int64)
    corner = values(np.zeros((3, 1), dtype=np.int64))[0]
    yield np.array([[0], [0], [0], [0], [1]], dtype=np.int64), corner[:1, 1:2], one
    step = _CHUNK // 16 // p
    for start in range(0, heads.shape[1], step):
        slab = heads[:, start:start + step]
        dets = values(slab).reshape(-1, p)
        base = np.zeros((5, len(dets)), dtype=np.int64)
        base[:3] = np.repeat(slab, p, axis=1)
        base[3] = np.tile(np.arange(p), slab.shape[1])
        rows = np.repeat(weights[start:start + step], p)
        for lo in range(0, len(dets), _CHUNK // p):
            hi = lo + _CHUNK // p
            yield base[:, lo:hi], dets[lo:hi], rows[lo:hi]
    yield np.array([[0], [0], [0], [1], [0]], dtype=np.int64), corner[1:2], one


# ---------------------------------------------------------------------------
# curve scans


class CurveScan:
    """Exhaustive, validated point set of the quintic curve over F_p.

    Construction re-checks every stored invariant, so a scan loaded from a
    cache file gets the same scrutiny as a fresh enumeration: points are
    normalised, strictly sorted, satisfy all five quadrics, the count lies
    in the Hasse window, the set is stable under the coordinate rotation
    and the diagonal root-of-unity scaling, and the Jacobian has rank three
    at every point.  A rank below three would be a singular curve point and
    raises with the offending point.
    """

    __slots__ = ("p", "a", "root", "points", "jacobian_ranks", "from_cache", "_member")

    def __init__(self, p: int, a, points, from_cache: bool = False):
        a = _coerce_residue(p, a)
        points = tuple(tuple(int(c) % p for c in pt) for pt in points)
        if not points:
            raise ValueError("a curve scan cannot be empty")
        for pt in points:
            if len(pt) != 5:
                raise ValueError(f"point {pt} does not have five coordinates")
            if _normalize_mod_p(pt, p) != pt:
                raise ValueError(f"point {pt} is not normalised")
        if list(points) != sorted(set(points)):
            raise ValueError("points must be strictly sorted and duplicate-free")
        for pt in points:
            if any(_quadric_values(pt, p, a)):
                raise ValueError(f"point {pt} does not lie on the curve")
        count = len(points)
        if not hasse_admits(p, count):
            raise RuntimeError(f"point count {count} falls outside the Hasse window for p={p}")

        root = find_root_of_unity(p, 5).v
        member = frozenset(points)
        rotated = {_normalize_mod_p(pt[1:] + pt[:1], p) for pt in points}
        if rotated != member:
            raise RuntimeError("point set is not stable under the coordinate rotation")
        scaled = {
            _normalize_mod_p(tuple(pt[i] * pow(root, i, p) % p for i in range(5)), p)
            for pt in points
        }
        if scaled != member:
            raise RuntimeError("point set is not stable under the diagonal character scaling")

        jacobians = _dual_rows(np.array(points).T, _z_residues(p, a), p)
        ranks = _rref_stack(jacobians, p)[1].sum(axis=1).tolist()
        for pt, rank in zip(points, ranks):
            if rank < 3:
                raise RuntimeError(f"singular curve point detected at {pt} (rank {rank})")

        self.p = p
        self.a = a
        self.root = root
        self.points = points
        self.jacobian_ranks = tuple(ranks)
        self.from_cache = from_cache
        self._member = member

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"CurveScan(p={self.p}, a={self.a}, points={len(self.points)})"

    def contains(self, vec) -> bool:
        return _normalize_mod_p(tuple(int(c) % self.p for c in vec), self.p) in self._member


def admissible_moduli(p: int, count: int = 2) -> tuple[int, ...]:
    """The first admissible residues over F_p, in increasing order."""
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"prime {p} is not in the supported list {SUPPORTED_PRIMES}")
    excluded = excluded_modulus_residues(p)
    out = []
    for a in range(1, p):
        if a not in excluded:
            out.append(a)
            if len(out) == count:
                break
    return tuple(out)


def _cache_path(cache_dir, p: int, a: int) -> Path:
    return Path(cache_dir) / f"curve-p{p}-a{a}.txt"


def _point_payload(points) -> str:
    return "".join(",".join(str(c) for c in pt) + "\n" for pt in points)


def write_point_cache(scan: CurveScan, cache_dir) -> Path:
    """Write the scan's point list atomically, with an integrity hash."""
    path = _cache_path(cache_dir, scan.p, scan.a)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _point_payload(scan.points)
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    text = (
        f"# pentangle curve scan v{CACHE_VERSION}\n"
        f"# p={scan.p} a={scan.a} count={len(scan.points)}\n"
        f"# sha256={digest}\n"
    ) + payload
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="ascii")
    os.replace(tmp, path)
    return path


def read_point_cache(p: int, a: int, cache_dir) -> CurveScan | None:
    """Load a cached scan, or None when the file is absent, stale or corrupt."""
    path = _cache_path(cache_dir, p, a)
    if not path.is_file():
        return None
    try:
        lines = path.read_text(encoding="ascii").splitlines()
        if lines[0] != f"# pentangle curve scan v{CACHE_VERSION}":
            return None
        if lines[1] != f"# p={p} a={a} count={len(lines) - 3}":
            return None
        payload = "".join(line + "\n" for line in lines[3:])
        digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
        if lines[2] != f"# sha256={digest}":
            return None
        points = tuple(tuple(int(c) for c in line.split(",")) for line in lines[3:])
        return CurveScan(p, a, points, from_cache=True)
    except (OSError, ValueError, RuntimeError, IndexError, UnicodeDecodeError):
        return None


def _fibre_candidates(triples, p: int, a: int) -> np.ndarray:
    """Points over a stack of plane points (x0:x1:x2) where q0 and q2 vanish.

    On the fibre over (x0:x1:x2), q0 and q2 are linear in (x3, x4) with
    matrix [[a*x2, -x1/a], [-x1/a, a*x0]] and right-hand side
    (-x0**2, -x2**2).  Where its determinant is nonzero, Cramer's rule
    gives the one solution.  On the conic where it vanishes, the
    candidates are the p solutions of the q2 row with x3 free; that row
    is zero only when x0 = 0, and then x1 = 0 too, so the triple is
    (0:0:1), where q2 = x2**2 has no zero.

    Every residue is reduced below p before each product, so no
    intermediate value reaches 2*p**2 in magnitude: under 1.2*10**5 at
    p=241, the largest supported prime, far inside int64.
    """
    x0, x1, x2 = triples
    inverse = _inverse_table(p)
    m00 = a * x2 % p
    m01 = (p - pow(a, p - 2, p)) * x1 % p
    m11 = a * x0 % p
    r0 = -(x0 * x0) % p
    r1 = -(x2 * x2) % p
    det = (m00 * m11 - m01 * m01) % p

    regular = np.nonzero(det)[0]
    dinv = inverse[det[regular]]
    x3 = (r0 * m11 - m01 * r1)[regular] % p * dinv % p
    x4 = (m00 * r1 - m01 * r0)[regular] % p * dinv % p
    solved = np.stack([x0[regular], x1[regular], x2[regular], x3, x4])

    conic = np.nonzero((det == 0) & (m11 != 0))[0]
    free = np.arange(p, dtype=np.int64)
    paired = ((r1[conic, None] - m01[conic, None] * free) % p
              * inverse[m11[conic]][:, None] % p)
    fallback = np.stack([np.repeat(x[conic], p) for x in (x0, x1, x2)]
                        + [np.tile(free, conic.size), paired.ravel()])
    return np.concatenate([solved, fallback], axis=1)


def scan_curve(p: int, a, cache_dir=None) -> CurveScan:
    """Enumerate the curve over F_p, optionally through an on-disk cache.

    The scan runs over the fibres of the projection to (x0:x1:x2): each
    normalised plane point yields the candidates of ``_fibre_candidates``,
    the line x0 = x1 = x2 = 0 is tested point by point, and the candidates
    where all five quadrics vanish are the curve.  That is O(p**2) work in
    place of the p**4 points of projective four-space.
    """
    a = _coerce_residue(p, a)
    if cache_dir is not None:
        cached = read_point_cache(p, a, cache_dir)
        if cached is not None:
            return cached
    stacks = [_fibre_candidates(triples, p, a) for triples in _chart_blocks(p, 3)]
    stacks += [np.concatenate([np.zeros((3, tail.shape[1]), dtype=np.int64), tail])
               for tail in _chart_blocks(p, 2)]
    points = []
    for stack in stacks:
        values = _quadric_values(stack, p, a)
        mask = values[0] == 0
        for q in values[1:]:
            mask &= q == 0
        points.extend(map(tuple, stack[:, mask].T.tolist()))
    scan = CurveScan(p, a, sorted(points))
    if cache_dir is not None:
        write_point_cache(scan, cache_dir)
    return scan


def certify_scan(scan: CurveScan) -> dict:
    """The scan's census as checks: how many points it found, whether
    that count lies in the Hasse window, and the Jacobian ranks."""
    p, n = scan.p, len(scan.points)
    ranks = sorted(set(scan.jacobian_ranks))
    checks = Checks()
    checks.add("curve scan completes", True, "%d points (%s)"
               % (n, "cache" if scan.from_cache else "fresh scan"))
    checks.add("point count in hasse window", hasse_admits(p, n),
               "|%d + 1 - %d| = %d <= %d" % (p, n, abs(p + 1 - n), isqrt(4 * p)))
    checks.add("jacobian rank three on the curve", ranks == [3],
               "rank values %s at %d points" % (ranks, n))
    return {"passed": checks.passed, "checks": checks.records}


# ---------------------------------------------------------------------------
# secant certification


def _rounded_ratio(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, for den an odd prime.

    A tie would need 2*num = den*(2k+1), so den would divide num and
    num/den would be an integer: there are no ties, and rounding half up
    agrees with the round-half-even of string formatting.
    """
    return (2 * num + den) // (2 * den)


def _density_envelope(samples: int, p: int) -> tuple[int, int]:
    """The least and greatest zero counts within 5 binomial deviations plus
    one of samples/p.

    Multiplied through by p, |zeros - samples/p| <= 5*sqrt(samples*(p-1))/p + 1
    reads d <= p + 5*sqrt(samples*(p-1)) for d = |zeros*p - samples|, and
    as d is an integer the square root may be rounded down: the envelope
    is decided in integers.
    """
    reach = p + isqrt(25 * samples * (p - 1))
    return -((reach - samples) // p), (samples + reach) // p


def _factor_two_envelope(total: int, p: int) -> tuple[int, int]:
    """The least and greatest counts within a factor of two of total/p."""
    return -(-total // (2 * p)), 2 * total // p


def _rank_three_envelope(p: int) -> tuple[int, int]:
    """The rank-three direction counts of curve scale: one up to 20*p."""
    return 1, 20 * p


#: chord samples, and as many uniform samples, drawn by certify_secant_variety
SECANT_SAMPLES = 1000
#: random vector pairs on which certify_secant_variety compares the two forms
DUALITY_SAMPLES = 500


def certify_secant_variety(scan: CurveScan, seed: int = SEED) -> dict:
    """Certify the vanishing and rank statements along chords of the curve.

    Hard checks: the Jacobian has rank three at every curve point, the dual
    determinant vanishes at every sampled chord point, the structure and
    dual bilinear forms agree on random vector pairs, and a generic point
    witnesses a nonzero determinant.  The observed vanishing density over
    uniform samples is compared with the hypersurface heuristic of one in p
    as a soft check.
    """
    p, a = scan.p, scan.a
    z = _z_residues(p, a)
    rng = random.Random(seed)
    checks = Checks()

    rank_three = sum(1 for r in scan.jacobian_ranks if r == 3)
    checks.add("jacobian rank three at every curve point", rank_three == len(scan),
               f"rank three at {rank_three} of {len(scan)} points")

    chords = _chord_samples(rng, scan.points, p, SECANT_SAMPLES)
    dets = _det_staged(_dual_rows(chords, z, p), p)
    vanished = int(np.count_nonzero(dets == 0))
    checks.add("dual determinant vanishes on chord samples", vanished == SECANT_SAMPLES,
               f"{vanished}/{SECANT_SAMPLES} chord points have zero dual determinant")

    pairs = _random_points(rng, p, 2 * DUALITY_SAMPLES)
    xs, ys = pairs[:, 0::2], pairs[:, 1::2]
    agree = np.count_nonzero(np.all(np.equal(
        _times(_structure_rows(ys, z, p), xs, p), _times(_dual_rows(xs, z, p), ys, p)), axis=0))
    checks.add("structure and dual evaluations agree on random pairs",
               agree == DUALITY_SAMPLES,
               f"{agree}/{DUALITY_SAMPLES} pairs have zero duality residual")

    witness = None
    for _ in range(64):
        x = _random_point(rng, p)
        value = _det_staged(_dual_rows(x, z, p), p)
        if value:
            witness = (x, int(value))
            break
    checks.add("dual determinant nonzero at a generic point", witness is not None,
               "no nonzero value found in 64 draws" if witness is None
               else f"determinant {witness[1]} at {witness[0]}")

    uniform = _random_points(rng, p, SECANT_SAMPLES)
    zeros = int(np.count_nonzero(_det_staged(_dual_rows(uniform, z, p), p) == 0))
    tenths = _rounded_ratio(10 * SECANT_SAMPLES, p)
    low, high = _density_envelope(SECANT_SAMPLES, p)
    checks.add("vanishing density tracks the hypersurface heuristic",
               low <= zeros <= high,
               f"{zeros} zeros in {SECANT_SAMPLES} uniform samples, "
               f"expected about {tenths // 10}.{tenths % 10}",
               soft=True)

    return {
        "p": p,
        "a": a,
        "seed": seed,
        "samples": SECANT_SAMPLES,
        "passed": checks.passed,
        "soft_passed": checks.soft_passed,
        "checks": checks.records,
    }


# ---------------------------------------------------------------------------
# incidence certification


def _line_stack(pairs, p: int) -> np.ndarray:
    """The points u + t*v, t < p, and v of the line of each (u, v) in a
    (k, 2, 5) stack, line by line, as a (5, k*(p+1)) stack."""
    base, direction = pairs[:, 0, :, None], pairs[:, 1, :, None]
    finite = (base + direction * np.arange(p)) % p
    return np.concatenate([finite, direction], axis=2).transpose(1, 0, 2).reshape(5, -1)


def _independent_pairs(rng: random.Random, p: int, count: int) -> np.ndarray:
    """The first ``count`` independent pairs of random points, drawn in
    rounds: a draw gives at most one pair, so a sequential loop would make
    every draw of a round, and no more."""
    pairs = np.zeros((0, 2, 5), dtype=np.int64)
    while len(pairs) < count:
        drawn = np.array([(_random_point(rng, p), _random_point(rng, p))
                          for _ in range(count - len(pairs))], dtype=np.int64)
        ranks = _rref_stack(drawn.transpose(1, 2, 0), p)[1].sum(axis=1)
        pairs = np.concatenate([pairs, drawn[ranks == 2]])
    return pairs


def _low_rank_census(points, weights, z, p: int) -> dict:
    """The total weight of the structure matrices at a (5, n) stack with
    each rank below four, ``weights[k]`` that of point k.  Those have every
    4x4 minor zero, so the one off row and column zero of the structure
    rows prunes the stack before it is reduced; unreduced it stays below
    4!*p**4, under 8.1*10**10 at p=241, the largest supported prime."""
    kept = _det_staged([row[1:] for row in _structure_rows(points, z, p)[1:]], p) == 0
    ranks = _rref_stack(_structure_rows(points[:, kept], z, p), p)[1].sum(axis=1)
    low = ranks < 4
    return Counter(np.repeat(ranks[low], weights[kept][low]).tolist())


def _census_text(census) -> str:
    return ", ".join(f"rank {r}: {n}" for r, n in sorted(census.items()))


#: random dual-space lines sliced by certify_incidence
INCIDENCE_LINES = 60


def certify_incidence(scan: CurveScan, seed: int = SEED) -> dict:
    """Certify the kernel geometry of the structure matrix by line slicing.

    Random dual lines meet the singular hypersurface of the structure
    matrix where its determinant, evaluated at all their points at once,
    vanishes: at most five points, unless the line lies in it, as lines of
    the planes sweeping it out do, and then at all p+1.  Every such point
    needs a nonzero kernel (one stacked reduction) whose vectors satisfy
    the dual relation and lie on the chordal quintic.  Curve points must
    span pencils of singular directions.  At p=31 the whole dual space is
    scanned and its rank census recorded, each on one point of every twist
    orbit counted with the orbit's size (``_determinant_slabs``).
    """
    p, a = scan.p, scan.a
    z = _z_residues(p, a)
    rng = random.Random(seed)
    checks = Checks()
    full_scan = p == 31

    stack = _line_stack(_independent_pairs(rng, p, INCIDENCE_LINES), p)
    zero = _det_staged(_structure_rows(stack, z, p), p) == 0
    per_line = zero.reshape(INCIDENCE_LINES, p + 1).sum(axis=1).tolist()
    ys = stack[:, zero]
    count = ys.shape[1]
    contained = per_line.count(p + 1)
    checks.add("line sections vanish at no more than quintic many points",
               all(c <= 5 or c == p + 1 for c in per_line),
               f"zero counts per line: min {min(per_line)}, max {max(per_line)}, "
               f"total {sum(per_line)} over {INCIDENCE_LINES} lines" + (
                   f"; {contained} line{'s lie' if contained > 1 else ' lies'} in the "
                   "hypersurface" if contained else ""))
    checks.add("line slicing finds incidence points", count > 0,
               f"{count} intersection points collected")

    reduced, pivots = _rref_stack(_structure_rows(ys, z, p), p)
    xs, owners = _kernel_stack(reduced, pivots, p)
    rank_census = Counter(pivots.sum(axis=1).tolist())
    kernel_ok = np.count_nonzero(np.bincount(owners))
    kernel_vectors = len(xs)
    rows = _dual_rows(xs.T, z, p)
    dual_ok = np.count_nonzero(~np.any(_times(rows, ys[:, owners], p), axis=0))
    chordal_ok = np.count_nonzero(_det_staged(rows, p) == 0)
    on_curve = sum(map(scan.contains, xs.tolist()))
    checks.add("singular structure matrices have nonzero kernels", kernel_ok == count,
               f"{kernel_ok}/{count} incidence points have a kernel")
    checks.add("kernel vectors satisfy the dual relation", dual_ok == kernel_vectors,
               f"{dual_ok}/{kernel_vectors} kernel vectors annihilate the dual matrix")
    checks.add("kernel vectors lie on the chordal quintic",
               chordal_ok == kernel_vectors,
               f"{chordal_ok}/{kernel_vectors} kernel vectors have zero dual determinant")
    checks.add("sampled kernel ranks stay in the expected band",
               set(rank_census) <= {3, 4},
               f"{_census_text(rank_census)}; {on_curve} kernel vectors lie on the curve",
               soft=True)

    probed = scan.points[:5]
    vectors, owners = _kernel_stack(*_rref_stack(_dual_rows(np.array(probed).T, z, p), p), p)
    xs, ys = [], []
    for i, x in enumerate(probed):
        pencil = vectors[owners == i]
        if len(pencil) == 2:
            first, second = pencil
            t = rng.randrange(1, p)
            xs += [x] * 4
            ys += [first, second, (first + second) % p, (first + t * second) % p]
    pencil_ok = len(xs) // 4
    pencil_samples = len(xs)
    xs = np.array(xs).reshape(-1, 5).T
    rows = _structure_rows(np.array(ys).reshape(-1, 5).T, z, p)
    pencil_samples_ok = np.count_nonzero(
        (_det_staged(rows, p) == 0) & ~np.any(_times(rows, xs, p), axis=0)
        & [scan.contains(x) for x in xs.T.tolist()])
    checks.add("curve points span pencils of singular directions",
               pencil_ok == len(probed) and pencil_samples_ok == pencil_samples,
               f"{pencil_ok}/{len(probed)} curve points have a two-dimensional kernel; "
               f"{pencil_samples_ok}/{pencil_samples} pencil members are singular with "
               "the curve point in their kernel")

    if full_scan:
        total = 0
        singular, weights = [], []
        for base, dets, rows in _determinant_slabs(p, z):
            total += int(rows.sum()) * dets.shape[1]
            slices, values = np.nonzero(dets == 0)
            found = base[:, slices]
            found[4] += values
            singular.append(found)
            weights.append(rows[slices])
        hits, weights = np.concatenate(singular, axis=1), np.concatenate(weights)
        zero_count = int(weights.sum())
        census = _low_rank_census(hits, weights, z, p)
        rank_three = census.get(3, 0)
        # exhaustive counts deviate from the heuristic total/p at Weil scale,
        # not binomial scale, so the envelope is a factor of two either way
        low, high = _factor_two_envelope(total, p)
        checks.add("full scan vanishing density tracks the hypersurface heuristic",
                   low <= zero_count <= high and total == (p ** 5 - 1) // (p - 1),
                   f"{zero_count} singular directions among {total}, "
                   f"expected about {_rounded_ratio(total, p)} within a factor of two",
                   soft=True)
        low, high = _rank_three_envelope(p)
        checks.add("rank three locus has curve scale", low <= rank_three <= high,
                   f"{rank_three} rank-three directions (low-rank census: "
                   f"{_census_text(census) or 'none'}); "
                   f"envelope [{low}, {high}]",
                   soft=True)

    return {
        "p": p,
        "a": a,
        "seed": seed,
        "lines": INCIDENCE_LINES,
        "full_scan": full_scan,
        "passed": checks.passed,
        "soft_passed": checks.soft_passed,
        "checks": checks.records,
    }


# ---------------------------------------------------------------------------
# forms over F_p for the Cremona interpolation
#
# A form of degree d is its coefficient vector over monomials(d, 5)[::-1].
# The exponent tuples of those monomials are also points: the lattice
# x >= 0, sum(x) = d, on which a form's values determine its coefficients.


def _lattice(d: int) -> np.ndarray:
    """The (5, n) stack of points x >= 0 with sum d, in coefficient order."""
    return np.array(monomials(d, 5)[::-1], dtype=np.int64).T


def _monomial_matrix(stack, d: int, p: int) -> np.ndarray:
    """Values of every degree-d monomial at a (5, n) stack of points.

    Row k holds the monomials at point k, so a form's values are
    ``M @ coeffs % p``.  One (d + 1, 5, n) table holds every power of
    every coordinate, reduced mod p, and a monomial is the product of the
    five entries its exponents, the columns of ``_lattice(d)``, pick.
    The (n_d, n) values of the n_d monomials are multiplied in place, one
    coordinate's gathered (n_d, n) factor at a time, the largest
    temporary; a value stays below p**5 before its one reduction, under
    8.2*10**11 at p=241, the largest supported prime.  A form of degree
    at most 6 has at most 210 monomials, so each entry of ``M @ coeffs``
    sums at most 210 products of residues below p and stays below
    210*p**2: under 1.3*10**7 at p=241, far inside int64.
    """
    stack = np.asarray(stack, dtype=np.int64) % p
    powers = np.ones((d + 1,) + stack.shape, dtype=np.int64)
    for e in range(d):
        powers[e + 1] = powers[e] * stack % p
    exponents = _lattice(d)
    values = powers[exponents[0], 0]
    for i in range(1, 5):
        values *= powers[exponents[i], i]
    values %= p
    return values.T


def _coefficients(values, d: int, p: int) -> np.ndarray:
    """Coefficients of degree-d forms from their values on ``_lattice(d)``.

    ``values`` has one row per lattice point and one column per form (or is
    a single vector).  The lattice is the principal lattice of the simplex
    (Nicolaides, SIAM J. Numer. Anal. 9, 1972): over F_p it determines the
    forms exactly when p > d, and the solve raises unless its pivots are
    the monomial columns.  It serves the quadrics (d = 2), known only by
    their values; products of known forms are multiplied out by
    ``_multiply``, and determinants of linear forms by ``_det_forms``.
    """
    square = _monomial_matrix(_lattice(d), d, p)
    n = square.shape[1]
    reduced, pivots = _rref_mod_p(np.column_stack([square, values]), p)
    if pivots != list(range(n)):
        raise RuntimeError(f"degree-{d} forms are not determined by their lattice values "
                           f"over F_{p}")
    return reduced[:, n:].reshape(np.shape(values))


def _product_table(d1: int, d2: int) -> np.ndarray:
    """Where monomial i of degree d1 times monomial j of degree d2 falls
    among those of degree d1 + d2, as an (n1, n2) table, in coefficient
    order.  Codes with the exponents as base-(d1 + d2 + 1) digits sort in
    that order and add under products, which reach every monomial."""
    weights = (d1 + d2 + 1) ** np.arange(4, -1, -1)
    codes = (_lattice(d1).T @ weights)[:, None] + _lattice(d2).T @ weights
    return np.unique(codes, return_inverse=True)[1].reshape(codes.shape)


def _multiply(left, right, table, p: int) -> np.ndarray:
    """The products of the forms in the columns of ``left`` and ``right``,
    column by column, by one ``np.add.at`` over their ``_product_table``.
    An output coefficient sums one product per monomial of the right factor
    at most: 15 products of residues for quadrics, under 9*10**5 at p=241,
    the largest supported prime, far inside int64."""
    out = np.zeros((table.max() + 1, left.shape[1]), dtype=np.int64)
    np.add.at(out, table, left[:, None] * right)
    return out % p


def _quadric_products(p: int, a: int) -> np.ndarray:
    """The (210, 35) coefficients of the products q**alpha, |alpha| = 3 in
    coefficient order: the quadrics read off their lattice values, then
    each product of k quadrics one of k - 1 times a quadric."""
    quadrics = _coefficients(np.array(_quadric_values(_lattice(2), p, a)).T, 2, p)[:, ::-1]
    products = quadrics
    for k in (2, 3):
        # the first (product, quadric) pair landing on each exponent tuple
        left, right = np.divmod(np.unique(_product_table(k - 1, 1), return_index=True)[1], 5)
        products = _multiply(products[:, left], quadrics[:, right],
                             _product_table(2 * k - 2, 2), p)
    return products


def _coordinate_multiples(quintics) -> np.ndarray:
    """The (210, 5, k) sextic coefficients of x_j * g for the k quintics g
    in the columns of a (126, k) array."""
    out = np.zeros((210, 5, quintics.shape[1]), dtype=np.int64)
    out[_product_table(5, 1)[:, ::-1], np.arange(5)] = quintics[:, None]
    return out


def _cremona_kernel(products, p: int) -> np.ndarray:
    """Kernel basis of the interpolation system in c_0 .. c_4 (the cubics)
    and g (the quintic factor), one vector per row.

    Block j reads P c_j = x_j * g in sextic coefficients, P = ``products``.
    P has full column rank (its left kernel N, a 35-pivot solve, is
    checked), so g fixes every c_j and the kernel is the g-system's.
    Block 0 is solved from the column side: x_0 * g = P c_0 holds exactly
    when P c_0 is zero at the 84 sextics free of x_0, and g is then P c_0
    at the rows of x_0 * beta.  For j = 1..4, g runs through the kernel of
    N's columns at the rows of x_j * beta: the kernel K of block 0 is cut
    down by the kernel of block j times K, and the loop stops once it is
    empty.  The free columns of the full system are the last nonzero
    entries of its kernel vectors, here all in g, and a
    ``_nullspace_mod_p`` vector is one at its own free column and zero at
    the other free columns and after its own.  One row reduction of K with
    its columns reversed, rows read back in reverse, is that basis.  The
    c_j are read off one solve of [P | x_j * g], so this is
    ``_nullspace_mod_p`` of the full system.  Each solve is
    ``_rref_mod_p``, within its int64 bound.  P c_0 sums 35 products of
    residues below p, a block times K and the next kernel times K at most
    126: under 7.3*10**6 at p=241, the largest supported prime.
    """
    nsextic, ncubic = products.shape
    left = _nullspace_mod_p(products.T, p)
    if len(left) > nsextic - ncubic:
        raise RuntimeError(f"the {ncubic} quadric products have rank "
                           f"{nsextic - len(left)} over F_{p}")
    # shift[beta, j]: the sextic coefficient of x_j * x**beta
    shift = _product_table(5, 1)[:, ::-1]
    factors = _nullspace_mod_p(products[_lattice(6)[0] == 0], p) @ products[shift[:, 0]].T % p
    for j in range(1, 5):
        if not len(factors):
            break
        factors = _nullspace_mod_p(left[:, shift[:, j]] @ factors.T % p, p) @ factors % p
    factors = _rref_mod_p(factors[:, ::-1], p)[0][::-1, ::-1]
    multiples = _coordinate_multiples(factors.T).reshape(nsextic, -1)
    reduced = _rref_mod_p(np.column_stack([products, multiples]), p)[0]
    cubics = reduced[:ncubic, ncubic:].reshape(ncubic, 5, -1).transpose(2, 1, 0)
    return np.column_stack([cubics.reshape(-1, 5 * ncubic), factors])


class CremonaWitness:
    """Interpolated inverse of the quadric-defined Cremona transformation.

    Holds the five inverse cubics as the rows of a (5, 35) array, the
    common quintic factor relating their composition to the identity as a
    length-126 vector, the dimension of the interpolation solution space,
    and the verification report.  A form of degree d is its coefficient
    vector over ``monomials(d, 5)[::-1]``.
    """

    __slots__ = ("p", "a", "cubics", "factor", "solution_dimension", "report")

    def __init__(self, p, a, cubics, factor, solution_dimension, report):
        self.p = p
        self.a = a
        self.cubics = cubics
        self.factor = factor
        self.solution_dimension = solution_dimension
        self.report = report

    def apply_forward(self, point) -> tuple:
        return tuple(_quadric_values(tuple(int(c) for c in point), self.p, self.a))

    def apply_inverse(self, point) -> tuple:
        column = np.array(point, dtype=np.int64).reshape(5, 1)
        return tuple((_monomial_matrix(column, 3, self.p) @ self.cubics.T % self.p)[0].tolist())

    def __repr__(self) -> str:
        return (f"CremonaWitness(p={self.p}, a={self.a}, "
                f"solution_dimension={self.solution_dimension})")


#: points interpolate_cremona_inverse sends through the map and back
ROUNDTRIP_SAMPLES = 500
#: chord points whose images it tests on the structure determinant
CHORD_IMAGE_SAMPLES = 200


def interpolate_cremona_inverse(scan: CurveScan, seed: int = SEED) -> CremonaWitness:
    """Interpolate cubics inverting the forward quadric map over F_p.

    The composition of a candidate inverse with the forward map must equal
    a common degree-five factor times the identity, coefficient by
    coefficient.  The coefficients of the products q**alpha are multiplied
    out from the quadrics', and that linear condition, five row blocks on
    one shared matrix of products, is solved exactly over F_p by
    ``_cremona_kernel``.  The solution is then re-checked against each
    block, compared with the chordal quintic (the dual determinant,
    expanded by ``_det_forms``), and exercised on random round trips and
    chord images, evaluated in batches.
    """
    p, a = scan.p, scan.a
    z = _z_residues(p, a)
    rng = random.Random(seed)
    # column k: coefficients of the k-th cubic monomial in the quadrics
    products = _quadric_products(p, a)
    nsextic, ncubic = products.shape
    basis = _cremona_kernel(products, p)
    dimension = len(basis)
    if not dimension:
        raise RuntimeError("interpolation admits no inverse with a nonzero common factor "
                           "(solution space dimension 0)")
    # ascending monomial order fixes the free columns, hence the vector chosen
    cubics = basis[0, :5 * ncubic].reshape(5, ncubic)
    factor = basis[0, 5 * ncubic:]

    checks = Checks()
    checks.add("interpolation system admits a nonzero solution", dimension >= 1,
               f"solution space dimension {dimension} "
               f"({5 * nsextic} equations, {basis.shape[1]} unknowns)")
    support = np.flatnonzero(factor)
    checks.add("common factor is a nonzero quintic", support.size > 0,
               f"{support.size} monomials")
    # block j: products @ c_j against x_j * factor; an entry sums 35 products
    # of residues below p, under 2.1*10**6 at p=241
    residual = products @ cubics.T - _coordinate_multiples(factor[:, None])[..., 0]
    checks.add("composition identity holds coefficient-wise", not np.any(residual % p),
               "cubics composed with the quadrics equal the factor times each coordinate")

    chordal = _det_forms(_dual_rows(_lattice(1), z, p), p)
    lead = support[0]
    ratio = int(factor[lead]) * pow(int(chordal[lead]), p - 2, p) % p
    proportional = np.array_equal(factor, ratio * chordal % p)
    checks.add("common factor matches the chordal quintic up to scale", proportional,
               f"scale factor {ratio}" if proportional else "monomial supports differ")

    passes = 0
    skips = 0
    draws = 0
    valid = 0
    while valid < ROUNDTRIP_SAMPLES and draws < 8 * ROUNDTRIP_SAMPLES:
        # each draw gives at most one valid sample, so a sequential loop
        # would make every draw of this round too, and no more
        count = min(ROUNDTRIP_SAMPLES - valid, 8 * ROUNDTRIP_SAMPLES - draws)
        xs = _random_points(rng, p, count)
        draws += count
        images = np.array(_quadric_values(xs, p, a))
        g_values = _monomial_matrix(xs, 5, p) @ factor % p
        mapped = images.any(axis=0)
        skips += int(np.count_nonzero(mapped & (g_values == 0)))
        kept = mapped & (g_values != 0)
        valid += int(np.count_nonzero(kept))
        back = _monomial_matrix(images[:, kept], 3, p) @ cubics.T % p
        scaled = (g_values[kept] * xs[:, kept] % p).T
        passes += int(np.count_nonzero(np.all(back == scaled, axis=1)))
    checks.add("round trip reproduces sample points",
               valid == ROUNDTRIP_SAMPLES and passes == valid,
               f"{passes}/{valid} round trips exact; {skips} draws skipped on the "
               "vanishing factor (base locus)")

    chords = _chord_samples(rng, scan.points, p, CHORD_IMAGE_SAMPLES)
    stack = np.array(_quadric_values(chords, p, a))
    # every index map's permuted images side by side, (1, 0) the identity first
    maps = [(c, d) for c in range(1, 5) for d in range(5)]
    permuted = np.concatenate([stack[[(c * i + d) % 5 for i in range(5)]] for c, d in maps],
                              axis=1)
    dets = _det_staged(_structure_rows(permuted, z, p), p).reshape(len(maps), -1)
    surviving = [m for m, row in zip(maps, dets) if not row.any()]
    zero_count = int(np.count_nonzero(dets[0] == 0))
    checks.add("structure determinant vanishes on chord images",
               zero_count == CHORD_IMAGE_SAMPLES,
               f"{zero_count}/{CHORD_IMAGE_SAMPLES} chord images on the determinant "
               f"locus; index maps preserving the quintic: {surviving}")

    report = {
        "p": p,
        "a": a,
        "seed": seed,
        "samples": ROUNDTRIP_SAMPLES,
        "passed": checks.passed,
        "soft_passed": checks.soft_passed,
        "checks": checks.records,
    }
    return CremonaWitness(p, a, cubics, factor, dimension, report)
