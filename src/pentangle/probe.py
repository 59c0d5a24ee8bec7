"""Prime-field certification of the quintic curve and its secant geometry.

The symbolic route in :mod:`pentangle.moore` proves the matrix identities
over cyclotomic scalars.  This module is the independent numeric route: it
enumerates complete point sets over small prime fields with numpy, checks
the rank and vanishing statements by exhaustive counting, and interpolates
the inverse of the Cremona transformation defined by the five quadrics.

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
from itertools import combinations
from pathlib import Path

import numpy as np

from .checks import Checks
from .moore import excluded_modulus_residues
from .multipoly import monomials
from .scalars import DEFAULT_PRIMES, Fp, find_root_of_unity

SEED = 20260824
CACHE_VERSION = 1
SUPPORTED_PRIMES = DEFAULT_PRIMES

# chart slabs never exceed this many columns; keeps peak memory modest
_CHUNK = 1 << 20


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
    """Values of the five quadrics; works on int tuples and numpy stacks."""
    inva = pow(a, p - 2, p)
    out = []
    for i in range(5):
        q = (x[i] * x[i] + a * x[(i + 2) % 5] * x[(i + 3) % 5]
             - inva * x[(i + 1) % 5] * x[(i + 4) % 5]) % p
        out.append(q)
    return out


def _structure_rows(y, z, p: int) -> list:
    return [[y[(i + j) % 5] * z[(i - j) % 5] % p for j in range(5)] for i in range(5)]


def _dual_rows(x, z, p: int) -> list:
    return [[z[(2 * i - m) % 5] * x[(m - i) % 5] % p for m in range(5)] for i in range(5)]


def _apply_structure(y, x, z, p: int) -> tuple:
    return tuple(
        sum(z[(i - j) % 5] * y[(i + j) % 5] * x[j] for j in range(5)) % p
        for i in range(5)
    )


def _apply_dual(x, y, z, p: int) -> tuple:
    return tuple(
        sum(z[(2 * i - m) % 5] * x[(m - i) % 5] * y[m] for m in range(5)) % p
        for i in range(5)
    )


def _det_staged(rows, p: int):
    """Determinant by Laplace expansion along successive rows.

    Stage ``d`` holds the minors of rows ``0..d`` for every column subset,
    so each minor is computed once.  Entries may be ints or numpy arrays;
    intermediate values are reduced after every stage, which keeps the
    int64 path far from overflow for all supported primes.
    """
    n = len(rows)
    cols = tuple(range(n))
    minors = {(c,): rows[0][c] for c in cols}
    for depth in range(1, n):
        staged = {}
        for sub in combinations(cols, depth + 1):
            acc = 0
            for pos, c in enumerate(sub):
                rest = tuple(cc for cc in sub if cc != c)
                term = rows[depth][c] * minors[rest]
                acc = acc + term if (depth + pos) % 2 == 0 else acc - term
            staged[sub] = acc % p
        minors = staged
    return minors[cols]


def _submatrix(rows, drop_row: int, drop_col: int) -> list:
    return [
        [entry for c, entry in enumerate(row) if c != drop_col]
        for r, row in enumerate(rows)
        if r != drop_row
    ]


def _rank_at_most_three_mask(rows, p: int):
    """Vectorised test that every four-by-four minor vanishes."""
    mask = None
    for drop_row in range(5):
        for drop_col in range(5):
            minor = _det_staged(_submatrix(rows, drop_row, drop_col), p)
            zero = minor == 0
            mask = zero if mask is None else (mask & zero)
    return mask


def _rref_mod_p(rows, p: int) -> tuple[np.ndarray, list]:
    """Reduced row echelon form over F_p, and its pivot columns.

    Entries are reduced mod p first and again after every update, so
    each entry is below p before each outer product and no intermediate
    value reaches p**2 in magnitude: int64 is exact for every p below
    3*10**9, and the largest supported prime (241) stays below 58 081.
    """
    reduced = np.array(rows, dtype=np.int64) % p
    pivots = []
    row = 0
    for c in range(reduced.shape[1]):
        nonzero = np.nonzero(reduced[row:, c])[0]
        if nonzero.size == 0:
            continue
        lead = row + int(nonzero[0])
        if lead != row:
            reduced[[row, lead]] = reduced[[lead, row]]
        reduced[row] = reduced[row] * pow(int(reduced[row, c]), p - 2, p) % p
        column = reduced[:, c].copy()
        column[row] = 0
        reduced = (reduced - np.outer(column, reduced[row])) % p
        pivots.append(c)
        row += 1
        if row == reduced.shape[0]:
            break
    return reduced, pivots


def _rank_mod_p(rows, p: int) -> int:
    return len(_rref_mod_p(rows, p)[1])


def _nullspace_mod_p(rows, p: int) -> tuple:
    """Deterministic kernel basis: each free column set to one in turn."""
    reduced, pivots = _rref_mod_p(rows, p)
    ncols = reduced.shape[1]
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = np.zeros(ncols, dtype=np.int64)
        vec[free] = 1
        vec[pivots] = -reduced[:len(pivots), free] % p
        basis.append(tuple(vec.tolist()))
    return tuple(basis)


def _normalize_point(vec, p: int) -> tuple:
    for v in vec:
        if v % p:
            inv = pow(v % p, p - 2, p)
            return tuple(x * inv % p for x in vec)
    raise ValueError("cannot normalise the zero vector")


def _random_point(rng: random.Random, p: int) -> tuple:
    while True:
        vec = tuple(rng.randrange(p) for _ in range(5))
        if any(vec):
            return vec


def _chord_sample(rng: random.Random, points, p: int) -> tuple:
    """A point on the chord through two distinct curve points, off the curve.

    Both scalars are nonzero, so the sample differs from either endpoint;
    the curve has no trisecant lines, so the sample misses the curve.
    """
    while True:
        first = rng.randrange(len(points))
        second = rng.randrange(len(points))
        if first != second:
            break
    lam = rng.randrange(1, p)
    mu = rng.randrange(1, p)
    left, right = points[first], points[second]
    return tuple((lam * left[i] + mu * right[i]) % p for i in range(5))


# ---------------------------------------------------------------------------
# chart enumeration of projective four-space


def _chart_blocks(p: int, chunk: int = _CHUNK):
    """Stacks of projective points with leading coordinate one.

    The five charts partition projective space; within a chart the free
    coordinates run through base-``p`` digits of an index range, so the
    enumeration order is deterministic.
    """
    for lead in range(5):
        free = 4 - lead
        total = p ** free
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            idx = np.arange(start, stop, dtype=np.int64)
            block = np.zeros((5, stop - start), dtype=np.int64)
            block[lead] = 1
            for t in range(free):
                block[lead + 1 + t] = (idx // (p ** (free - 1 - t))) % p
            yield block


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
            if _normalize_point(pt, p) != pt:
                raise ValueError(f"point {pt} is not normalised")
        if list(points) != sorted(set(points)):
            raise ValueError("points must be strictly sorted and duplicate-free")
        for pt in points:
            if any(_quadric_values(pt, p, a)):
                raise ValueError(f"point {pt} does not lie on the curve")
        count = len(points)
        if (count - p - 1) ** 2 > 4 * p:
            raise RuntimeError(f"point count {count} falls outside the Hasse window for p={p}")

        root = find_root_of_unity(p, 5).v
        member = frozenset(points)
        rotated = {_normalize_point(pt[1:] + pt[:1], p) for pt in points}
        if rotated != member:
            raise RuntimeError("point set is not stable under the coordinate rotation")
        scaled = {
            _normalize_point(tuple(pt[i] * pow(root, i, p) % p for i in range(5)), p)
            for pt in points
        }
        if scaled != member:
            raise RuntimeError("point set is not stable under the diagonal character scaling")

        z = _z_residues(p, a)
        ranks = []
        for pt in points:
            rank = _rank_mod_p(_dual_rows(pt, z, p), p)
            if rank < 3:
                raise RuntimeError(f"singular curve point detected at {pt} (rank {rank})")
            ranks.append(rank)

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
        return _normalize_point(tuple(int(c) % self.p for c in vec), self.p) in self._member


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


def scan_curve(p: int, a, cache_dir=None) -> CurveScan:
    """Enumerate the curve over F_p, optionally through an on-disk cache."""
    a = _coerce_residue(p, a)
    if cache_dir is not None:
        cached = read_point_cache(p, a, cache_dir)
        if cached is not None:
            return cached
    points = []
    for block in _chart_blocks(p):
        values = _quadric_values(block, p, a)
        mask = values[0] == 0
        for q in values[1:]:
            mask &= q == 0
        points.extend(map(tuple, block[:, mask].T.tolist()))
    scan = CurveScan(p, a, sorted(points))
    if cache_dir is not None:
        write_point_cache(scan, cache_dir)
    return scan


# ---------------------------------------------------------------------------
# secant certification


def certify_secant_variety(scan: CurveScan, samples: int = 1000,
                           duality_samples: int = 500, seed: int = SEED) -> dict:
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

    chords = np.array([_chord_sample(rng, scan.points, p) for _ in range(samples)],
                      dtype=np.int64).T
    dets = _det_staged(_dual_rows(chords, z, p), p)
    vanished = int(np.count_nonzero(dets == 0))
    checks.add("dual determinant vanishes on chord samples", vanished == samples,
               f"{vanished}/{samples} chord points have zero dual determinant")

    agree = 0
    for _ in range(duality_samples):
        x = _random_point(rng, p)
        y = _random_point(rng, p)
        if _apply_structure(y, x, z, p) == _apply_dual(x, y, z, p):
            agree += 1
    checks.add("structure and dual evaluations agree on random pairs",
               agree == duality_samples,
               f"{agree}/{duality_samples} pairs have zero duality residual")

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

    uniform = np.array([_random_point(rng, p) for _ in range(samples)], dtype=np.int64).T
    zeros = int(np.count_nonzero(_det_staged(_dual_rows(uniform, z, p), p) == 0))
    expected = samples / p
    slack = 5.0 * (samples * (1.0 / p) * (1.0 - 1.0 / p)) ** 0.5 + 1.0
    checks.add("vanishing density tracks the hypersurface heuristic",
               abs(zeros - expected) <= slack,
               f"{zeros} zeros in {samples} uniform samples, expected about {expected:.1f}",
               soft=True)

    return {
        "p": p,
        "a": a,
        "seed": seed,
        "samples": samples,
        "passed": checks.passed,
        "soft_passed": checks.soft_passed,
        "checks": checks.records,
    }


# ---------------------------------------------------------------------------
# incidence certification


def _line_stack(u, v, p: int) -> np.ndarray:
    """All p+1 projective points of the line spanned by two vectors."""
    base = np.array(u, dtype=np.int64).reshape(5, 1)
    direction = np.array(v, dtype=np.int64).reshape(5, 1)
    ts = np.arange(p, dtype=np.int64).reshape(1, p)
    finite = (base + direction * ts) % p
    return np.concatenate([finite, direction], axis=1)


def _independent_pair(rng: random.Random, p: int) -> tuple:
    while True:
        u = _random_point(rng, p)
        v = _random_point(rng, p)
        if _rank_mod_p((u, v), p) == 2:
            return u, v


def certify_incidence(scan: CurveScan, lines: int = 60, seed: int = SEED,
                      full_scan: bool | None = None) -> dict:
    """Certify the kernel geometry of the structure matrix by line slicing.

    Random lines in the dual space are intersected with the singular
    hypersurface of the structure matrix by evaluating its determinant at
    all points of each line.  Every intersection point must have a nonzero
    kernel whose vectors satisfy the dual relation and land on the chordal
    quintic.  Curve points are checked to span two-dimensional pencils of
    singular directions.  At p=31 (or on request) the whole dual space is
    scanned and the rank census on the singular hypersurface is recorded.
    """
    p, a = scan.p, scan.a
    z = _z_residues(p, a)
    rng = random.Random(seed)
    checks = Checks()
    if full_scan is None:
        full_scan = p == 31

    incidence_points = []
    per_line = []
    for _ in range(lines):
        u, v = _independent_pair(rng, p)
        stack = _line_stack(u, v, p)
        dets = _det_staged(_structure_rows(stack, z, p), p)
        hits = stack[:, dets == 0]
        per_line.append(hits.shape[1])
        incidence_points.extend(map(tuple, hits.T.tolist()))
    checks.add("line sections vanish at no more than quintic many points",
               all(c <= 5 for c in per_line),
               f"zero counts per line: min {min(per_line)}, max {max(per_line)}, "
               f"total {sum(per_line)} over {lines} lines")
    checks.add("line slicing finds incidence points", len(incidence_points) > 0,
               f"{len(incidence_points)} intersection points collected")

    kernel_ok = 0
    dual_ok = 0
    chordal_ok = 0
    on_curve = 0
    rank_census: dict[int, int] = {}
    kernel_vectors = 0
    for y in incidence_points:
        basis = _nullspace_mod_p(_structure_rows(y, z, p), p)
        if basis:
            kernel_ok += 1
        rank = 5 - len(basis)
        rank_census[rank] = rank_census.get(rank, 0) + 1
        for x in basis:
            kernel_vectors += 1
            if _apply_dual(x, y, z, p) == (0, 0, 0, 0, 0):
                dual_ok += 1
            if _det_staged(_dual_rows(x, z, p), p) == 0:
                chordal_ok += 1
            if scan.contains(x):
                on_curve += 1
    checks.add("singular structure matrices have nonzero kernels",
               kernel_ok == len(incidence_points),
               f"{kernel_ok}/{len(incidence_points)} incidence points have a kernel")
    checks.add("kernel vectors satisfy the dual relation", dual_ok == kernel_vectors,
               f"{dual_ok}/{kernel_vectors} kernel vectors annihilate the dual matrix")
    checks.add("kernel vectors lie on the chordal quintic",
               chordal_ok == kernel_vectors,
               f"{chordal_ok}/{kernel_vectors} kernel vectors have zero dual determinant")
    census_text = ", ".join(f"rank {r}: {n}" for r, n in sorted(rank_census.items()))
    checks.add("sampled kernel ranks stay in the expected band",
               set(rank_census) <= {3, 4},
               f"{census_text}; {on_curve} kernel vectors lie on the curve",
               soft=True)

    pencil_ok = 0
    pencil_samples_ok = 0
    pencil_samples = 0
    probed = scan.points[:5]
    for x in probed:
        basis = _nullspace_mod_p(_dual_rows(x, z, p), p)
        if len(basis) != 2:
            continue
        pencil_ok += 1
        first, second = basis
        t = rng.randrange(1, p)
        mixes = [first, second,
                 tuple((f + s) % p for f, s in zip(first, second)),
                 tuple((f + t * s) % p for f, s in zip(first, second))]
        for y in mixes:
            pencil_samples += 1
            det_zero = _det_staged(_structure_rows(y, z, p), p) == 0
            annihilates = _apply_structure(y, x, z, p) == (0, 0, 0, 0, 0)
            if det_zero and annihilates and scan.contains(x):
                pencil_samples_ok += 1
    checks.add("curve points span pencils of singular directions",
               pencil_ok == len(probed) and pencil_samples_ok == pencil_samples,
               f"{pencil_ok}/{len(probed)} curve points have a two-dimensional kernel; "
               f"{pencil_samples_ok}/{pencil_samples} pencil members are singular with "
               "the curve point in their kernel")

    if full_scan:
        total = 0
        zero_count = 0
        low_rank_points = []
        for block in _chart_blocks(p):
            rows = _structure_rows(block, z, p)
            dets = _det_staged(rows, p)
            mask = dets == 0
            total += block.shape[1]
            zero_count += int(np.count_nonzero(mask))
            hits = block[:, mask]
            hit_rows = _structure_rows(hits, z, p)
            low = _rank_at_most_three_mask(hit_rows, p)
            low_rank_points.extend(map(tuple, hits[:, low].T.tolist()))
        census: dict[int, int] = {}
        for y in low_rank_points:
            rank = _rank_mod_p(_structure_rows(y, z, p), p)
            census[rank] = census.get(rank, 0) + 1
        rank_three = census.get(3, 0)
        expected = total / p
        # exhaustive counts deviate from the heuristic at Weil scale, not
        # binomial scale, so the envelope is a factor of two either way
        checks.add("full scan vanishing density tracks the hypersurface heuristic",
                   expected / 2 <= zero_count <= 2 * expected,
                   f"{zero_count} singular directions among {total}, "
                   f"expected about {expected:.0f} within a factor of two",
                   soft=True)
        low_text = ", ".join(f"rank {r}: {n}" for r, n in sorted(census.items())) or "none"
        checks.add("rank three locus has curve scale", 1 <= rank_three <= 20 * p,
                   f"{rank_three} rank-three directions (low-rank census: {low_text}); "
                   f"envelope [1, {20 * p}]",
                   soft=True)

    return {
        "p": p,
        "a": a,
        "seed": seed,
        "lines": lines,
        "full_scan": bool(full_scan),
        "passed": checks.passed,
        "soft_passed": checks.soft_passed,
        "checks": checks.records,
    }


# ---------------------------------------------------------------------------
# polynomial dictionaries over F_p for the Cremona interpolation


def _poly_mul(left: dict, right: dict, p: int) -> dict:
    out: dict[tuple, int] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = (out.get(key, 0) + c1 * c2) % p
    return {k: v for k, v in out.items() if v}


def _poly_eval(poly: dict, point, p: int) -> int:
    total = 0
    for exponent, coeff in poly.items():
        term = coeff
        for i in range(5):
            if exponent[i]:
                term = term * pow(point[i] % p, exponent[i], p) % p
        total += term
    return total % p


def _quadric_polys(p: int, a: int) -> tuple:
    inva = pow(a, p - 2, p)
    out = []
    for i in range(5):
        poly: dict[tuple, int] = {}
        square = [0] * 5
        square[i] = 2
        poly[tuple(square)] = 1
        plus = [0] * 5
        plus[(i + 2) % 5] += 1
        plus[(i + 3) % 5] += 1
        poly[tuple(plus)] = (poly.get(tuple(plus), 0) + a) % p
        minus = [0] * 5
        minus[(i + 1) % 5] += 1
        minus[(i + 4) % 5] += 1
        poly[tuple(minus)] = (poly.get(tuple(minus), 0) - inva) % p
        out.append({k: v for k, v in poly.items() if v})
    return tuple(out)


def _dual_determinant_poly(p: int, a: int) -> dict:
    z = _z_residues(p, a)
    variables = []
    for i in range(5):
        exponent = [0] * 5
        exponent[i] = 1
        variables.append({tuple(exponent): 1})
    rows = [[{k: v * z[(2 * i - m) % 5] % p for k, v in variables[(m - i) % 5].items()}
             for m in range(5)] for i in range(5)]

    def det(block):
        if len(block) == 1:
            return block[0][0]
        acc: dict[tuple, int] = {}
        for r, row in enumerate(block):
            rest = [rr[1:] for k, rr in enumerate(block) if k != r]
            term = _poly_mul(row[0], det(rest), p)
            sign = 1 if r % 2 == 0 else p - 1
            for key, value in term.items():
                acc[key] = (acc.get(key, 0) + sign * value) % p
        return {k: v for k, v in acc.items() if v}

    return det(rows)


class CremonaWitness:
    """Interpolated inverse of the quadric-defined Cremona transformation.

    Holds the five forward quadrics, the five inverse cubics, the common
    quintic factor relating their composition to the identity, the
    dimension of the interpolation solution space, and the verification
    report.  Polynomials are dictionaries from exponent tuples to residues.
    """

    __slots__ = ("p", "a", "quadrics", "cubics", "factor",
                 "solution_dimension", "sample_count", "report")

    def __init__(self, p, a, quadrics, cubics, factor,
                 solution_dimension, sample_count, report):
        self.p = p
        self.a = a
        self.quadrics = quadrics
        self.cubics = cubics
        self.factor = factor
        self.solution_dimension = solution_dimension
        self.sample_count = sample_count
        self.report = report

    def apply_forward(self, point) -> tuple:
        return tuple(_poly_eval(q, point, self.p) for q in self.quadrics)

    def apply_inverse(self, point) -> tuple:
        return tuple(_poly_eval(c, point, self.p) for c in self.cubics)

    def __repr__(self) -> str:
        return (f"CremonaWitness(p={self.p}, a={self.a}, "
                f"solution_dimension={self.solution_dimension})")


def interpolate_cremona_inverse(scan: CurveScan, roundtrip_samples: int = 500,
                                secant_samples: int = 200, seed: int = SEED) -> CremonaWitness:
    """Interpolate cubics inverting the forward quadric map over F_p.

    The composition of a candidate inverse with the forward map must equal
    a common degree-five factor times the identity, coefficient by
    coefficient.  That linear condition is solved exactly by row reduction
    over F_p; the solution is then re-verified by an independent symbolic
    composition, compared against the dual determinant, and exercised on
    random round trips and chord images.
    """
    p, a = scan.p, scan.a
    rng = random.Random(seed)
    quadrics = _quadric_polys(p, a)
    # ascending order fixes the column order, hence the kernel vector chosen
    cubic_monomials = monomials(3, 5)[::-1]
    quintic_monomials = monomials(5, 5)[::-1]
    sextic_monomials = monomials(6, 5)[::-1]
    sextic_index = {m: i for i, m in enumerate(sextic_monomials)}
    ncubic = len(cubic_monomials)
    ncols = 5 * ncubic + len(quintic_monomials)

    products = []
    for alpha in cubic_monomials:
        poly = {(0, 0, 0, 0, 0): 1}
        for i in range(5):
            for _ in range(alpha[i]):
                poly = _poly_mul(poly, quadrics[i], p)
        products.append(poly)

    blocks = []
    for j in range(5):
        block = np.zeros((len(sextic_monomials), ncols), dtype=np.int64)
        for column, poly in enumerate(products):
            for monomial, coeff in poly.items():
                block[sextic_index[monomial], j * ncubic + column] = coeff
        for column, beta in enumerate(quintic_monomials):
            shifted = list(beta)
            shifted[j] += 1
            row = sextic_index[tuple(shifted)]
            block[row, 5 * ncubic + column] = (block[row, 5 * ncubic + column] - 1) % p
        blocks.append(block)
    system = np.concatenate(blocks, axis=0) % p

    basis = _nullspace_mod_p(system, p)
    dimension = len(basis)
    solution = next((vec for vec in basis if any(vec[5 * ncubic:])), None)
    if solution is None:
        raise RuntimeError(
            "interpolation admits no inverse with a nonzero common factor "
            f"(solution space dimension {dimension})")

    cubics = tuple(
        {cubic_monomials[k]: int(solution[j * ncubic + k])
         for k in range(ncubic) if solution[j * ncubic + k]}
        for j in range(5)
    )
    factor = {quintic_monomials[k]: int(solution[5 * ncubic + k])
              for k in range(len(quintic_monomials)) if solution[5 * ncubic + k]}

    checks = Checks()
    checks.add("interpolation system admits a nonzero solution", dimension >= 1,
               f"solution space dimension {dimension} "
               f"({system.shape[0]} equations, {ncols} unknowns)")
    checks.add("common factor is a nonzero quintic",
               bool(factor) and all(sum(e) == 5 for e in factor),
               f"{len(factor)} monomials")

    composed_ok = True
    for j in range(5):
        acc: dict[tuple, int] = {}
        for monomial, coeff in cubics[j].items():
            column = cubic_monomials.index(monomial)
            for key, value in products[column].items():
                acc[key] = (acc.get(key, 0) + coeff * value) % p
        acc = {k: v for k, v in acc.items() if v}
        shift = [0] * 5
        shift[j] = 1
        target = _poly_mul(factor, {tuple(shift): 1}, p)
        if acc != target:
            composed_ok = False
    checks.add("composition identity holds coefficient-wise", composed_ok,
               "cubics composed with the quadrics equal the factor times each coordinate")

    dual_det = _dual_determinant_poly(p, a)
    ratio = None
    proportional = set(factor) == set(dual_det)
    if proportional:
        for key in factor:
            r = factor[key] * pow(dual_det[key], p - 2, p) % p
            if ratio is None:
                ratio = r
            elif r != ratio:
                proportional = False
                break
    checks.add("common factor matches the chordal quintic up to scale", proportional,
               f"scale factor {ratio}" if proportional else "monomial supports differ")

    passes = 0
    skips = 0
    draws = 0
    valid = 0
    while valid < roundtrip_samples and draws < 8 * roundtrip_samples:
        draws += 1
        x = _random_point(rng, p)
        image = tuple(_poly_eval(q, x, p) for q in quadrics)
        if not any(image):
            continue
        g_value = _poly_eval(factor, x, p)
        if g_value == 0:
            skips += 1
            continue
        valid += 1
        back = tuple(_poly_eval(c, image, p) for c in cubics)
        if back == tuple(g_value * x[i] % p for i in range(5)):
            passes += 1
    checks.add("round trip reproduces sample points",
               valid == roundtrip_samples and passes == valid,
               f"{passes}/{valid} round trips exact; {skips} draws skipped on the "
               "vanishing factor (base locus)")

    z = _z_residues(p, a)
    chord_images = []
    for _ in range(secant_samples):
        x = _chord_sample(rng, scan.points, p)
        chord_images.append(tuple(_poly_eval(q, x, p) for q in quadrics))
    surviving = []
    for c in range(1, 5):
        for d in range(5):
            if all(
                _det_staged(_structure_rows(
                    tuple(u[(c * i + d) % 5] for i in range(5)), z, p), p) == 0
                for u in chord_images
            ):
                surviving.append((c, d))
    zero_count = sum(
        1 for u in chord_images
        if _det_staged(_structure_rows(u, z, p), p) == 0)
    checks.add("structure determinant vanishes on chord images",
               zero_count == secant_samples,
               f"{zero_count}/{secant_samples} chord images on the determinant "
               f"locus; index maps preserving the quintic: {surviving}")

    report = {
        "p": p,
        "a": a,
        "seed": seed,
        "samples": roundtrip_samples,
        "passed": checks.passed,
        "soft_passed": checks.soft_passed,
        "checks": checks.records,
    }
    return CremonaWitness(p, a, quadrics, cubics, factor,
                          dimension, roundtrip_samples, report)
