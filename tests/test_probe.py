"""Prime-field certification tests.

Expected values frozen here (point counts, excluded residues, the full-scan
rank census, the surviving index maps) were produced by an independent
prototype that used plain integer arithmetic and a separate Gaussian
elimination, before this module was written.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest

from pentangle import probe
from pentangle.moore import (
    VARS_X,
    build_moore_matrices,
    quintic_equations,
    reference_curve_points,
)
from pentangle.multipoly import MultiPoly, monomials, scalar_matrix_nullspace, scalar_matrix_rank
from pentangle.report import make_config, run, suite_seed
from pentangle.scalars import Fp, _inverse_table, _normalize_mod_p, find_root_of_unity

from oracles import (chord_sample, dual_rows, incidence_residual, lattice_quintic,
                     rank_at_most_three_mask, singular_directions, structure_rows)

SEED = 20260824
ROOT = Path(__file__).resolve().parent.parent

EXCLUDED_31 = frozenset({0, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24})
EXCLUDED_61 = frozenset({0, 6, 10, 17, 21, 29, 31, 35, 43, 54, 59})
DIHEDRAL_MAPS = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
                 (4, 0), (4, 1), (4, 2), (4, 3), (4, 4)]


@pytest.fixture(scope="module")
def scan31():
    return probe.scan_curve(31, 2)


@pytest.fixture(scope="module")
def scan61():
    return probe.scan_curve(61, 1)


@pytest.fixture(scope="module")
def witness31(scan31):
    return probe.interpolate_cremona_inverse(scan31)


@pytest.fixture(scope="module")
def moore31():
    return build_moore_matrices(Fp(2, 31))


@pytest.fixture(scope="module")
def dual_det31(moore31):
    return quintic_equations(moore31)[1]


# ---------------------------------------------------------------------------
# input validation


def test_unsupported_prime_rejected():
    with pytest.raises(ValueError):
        probe.scan_curve(7, 1)
    with pytest.raises(ValueError):
        probe.admissible_moduli(37)


def test_excluded_modulus_rejected():
    for bad in (0, 3, 24, 31 + 5):
        with pytest.raises(ValueError):
            probe.scan_curve(31, bad)


def test_field_element_modulus_accepted(scan31):
    again = probe.scan_curve(31, Fp(2, 31))
    assert again.points == scan31.points


def test_field_element_from_wrong_field_rejected():
    with pytest.raises(ValueError):
        probe.scan_curve(31, Fp(2, 61))


def test_admissible_moduli_skip_excluded_residues():
    assert probe.admissible_moduli(31) == (1, 2)
    assert probe.admissible_moduli(61) == (1, 2)
    first_eight = probe.admissible_moduli(31, count=8)
    assert all(a not in EXCLUDED_31 for a in first_eight)
    assert first_eight == (1, 2, 4, 7, 8, 11, 13, 14)


# ---------------------------------------------------------------------------
# curve scans


def test_point_counts_frozen(scan31, scan61):
    assert len(scan31) == 25
    assert len(scan61) == 50
    assert len(probe.scan_curve(31, 1)) == 25
    assert len(probe.scan_curve(61, 2)) == 75
    # 241 is the largest supported prime, where the int64 bound of the
    # fibre solve is tightest
    for a in (1, 2):
        assert len(probe.scan_curve(151, a)) == 150
        assert len(probe.scan_curve(241, a)) == 250


def _exhaustive_points(p, a):
    """The curve by brute force: every point of P^4(F_p), filtered."""
    points = []
    for block in probe._chart_blocks(p):
        values = probe._quadric_values(block, p, a)
        mask = values[0] == 0
        for q in values[1:]:
            mask &= q == 0
        points.extend(map(tuple, block[:, mask].T.tolist()))
    return tuple(sorted(points))


@pytest.mark.parametrize("p, moduli", [
    (31, [a for a in range(31) if a not in EXCLUDED_31]),
    (61, probe.admissible_moduli(61)),
])
def test_fibre_scan_matches_exhaustive_scan(p, moduli):
    for a in moduli:
        assert probe.scan_curve(p, a).points == _exhaustive_points(p, a), a


def test_counts_sit_in_hasse_window(scan31, scan61):
    for scan in (scan31, scan61):
        p = scan.p
        assert (len(scan) - p - 1) ** 2 <= 4 * p


def test_points_normalized_sorted_unique(scan31):
    pts = scan31.points
    assert list(pts) == sorted(set(pts))
    for pt in pts:
        lead = next(c for c in pt if c)
        assert lead == 1


def test_points_satisfy_symbolic_quadrics(scan31):
    quadrics = build_moore_matrices(Fp(2, 31)).quadrics
    for pt in scan31.points[:10]:
        coords = [Fp(c, 31) for c in pt]
        for q in quadrics:
            assert q.eval_at(coords).v == 0


def test_reference_points_appear_in_scan(scan31):
    for pt in reference_curve_points(Fp(2, 31)):
        assert scan31.contains([c.v for c in pt])


def test_jacobian_rank_three_everywhere(scan31, scan61):
    assert set(scan31.jacobian_ranks) == {3}
    assert set(scan61.jacobian_ranks) == {3}


def test_scan_symmetry_orbits(scan31):
    p = scan31.p
    member = set(scan31.points)
    root = scan31.root
    for pt in scan31.points:
        rotated = _normalize_mod_p(pt[1:] + pt[:1], p)
        scaled = _normalize_mod_p(
            tuple(pt[i] * pow(root, i, p) % p for i in range(5)), p)
        assert rotated in member and scaled in member


def test_scan_is_deterministic(scan31):
    assert probe.scan_curve(31, 2).points == scan31.points


def test_constructor_rejects_corrupted_point_lists(scan31):
    pts = scan31.points
    with pytest.raises(ValueError):
        probe.CurveScan(31, 2, ())
    with pytest.raises(ValueError):
        probe.CurveScan(31, 2, pts + ((1, 1, 1, 1, 1),))
    doubled = (tuple(2 * c % 31 for c in pts[0]),) + pts[1:]
    with pytest.raises(ValueError):
        probe.CurveScan(31, 2, doubled)
    with pytest.raises(ValueError):
        probe.CurveScan(31, 2, pts + (pts[0],))
    with pytest.raises(RuntimeError):
        probe.CurveScan(31, 2, pts[:-1])


# ---------------------------------------------------------------------------
# point cache files


def test_cache_roundtrip(tmp_path, scan31):
    first = probe.scan_curve(31, 2, cache_dir=tmp_path)
    assert not first.from_cache
    path = tmp_path / "curve-p31-a2.txt"
    assert path.is_file()
    lines = path.read_text().splitlines()
    assert lines[0] == "# pentangle curve scan v1"
    assert lines[1] == "# p=31 a=2 count=25"
    assert lines[2].startswith("# sha256=")
    second = probe.scan_curve(31, 2, cache_dir=tmp_path)
    assert second.from_cache
    assert second.points == scan31.points


def test_cache_hash_tamper_triggers_rescan(tmp_path):
    probe.scan_curve(31, 2, cache_dir=tmp_path)
    path = tmp_path / "curve-p31-a2.txt"
    text = path.read_text().replace("# sha256=", "# sha256=0", 1)
    path.write_text(text)
    assert probe.read_point_cache(31, 2, tmp_path) is None
    repaired = probe.scan_curve(31, 2, cache_dir=tmp_path)
    assert not repaired.from_cache
    assert probe.read_point_cache(31, 2, tmp_path) is not None


def test_cache_payload_tamper_triggers_rescan(tmp_path):
    probe.scan_curve(31, 2, cache_dir=tmp_path)
    path = tmp_path / "curve-p31-a2.txt"
    lines = path.read_text().splitlines()
    lines[5] = "1,1,1,1,1"
    path.write_text("".join(line + "\n" for line in lines))
    assert probe.read_point_cache(31, 2, tmp_path) is None
    assert not probe.scan_curve(31, 2, cache_dir=tmp_path).from_cache


def test_cache_garbage_file_triggers_rescan(tmp_path):
    path = tmp_path / "curve-p31-a2.txt"
    path.write_text("not a cache file\n")
    scan = probe.scan_curve(31, 2, cache_dir=tmp_path)
    assert not scan.from_cache
    assert len(scan) == 25


# ---------------------------------------------------------------------------
# linear algebra kernels


def _det_gauss(rows, p):
    m = [list(r) for r in rows]
    det = 1
    n = len(m)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            m[r] = [(v - f * w) % p for v, w in zip(m[r], m[c])]
    return det % p


def test_staged_determinant_matches_gaussian_oracle():
    rng = random.Random(SEED)
    for p in (31, 61, 241):
        for _ in range(25):
            rows = [[rng.randrange(p) for _ in range(5)] for _ in range(5)]
            assert probe._det_staged(rows, p) == _det_gauss(rows, p)
        for _ in range(10):
            rows = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
            assert probe._det_staged(rows, p) == _det_gauss(rows, p)
    # on int64 stacks the minors stay unreduced and only the determinant is
    # reduced, so it reaches its largest magnitude there; at p=241, the
    # largest supported prime, with all-(p-1) rows among the cases and the
    # 0/(p-1) matrices of the largest |det|: 5 is the largest determinant
    # of a 0/1 matrix of order five, so theirs is 5*(p-1)**5 in magnitude
    p = 241
    extreme = [[[0, 1, 1, 0, 0], [1, 0, 1, 0, 1], [1, 1, 0, 1, 0], [0, 0, 1, 1, 1],
                [0, 1, 0, 0, 1]],
               [[1, 1, 1, 1, 0], [1, 0, 1, 0, 1], [1, 0, 0, 1, 1], [1, 1, 0, 0, 1],
                [0, 1, 1, 1, 1]]]
    extreme = [[[(p - 1) * v for v in row] for row in m] for m in extreme]
    extreme += [m[1::-1] + m[2:] for m in extreme]
    assert sorted(map(_leibniz, extreme)) == [-5 * (p - 1) ** 5] * 2 + [5 * (p - 1) ** 5] * 2
    matrices = [[[p - 1] * 5 for _ in range(5)],
                [[p - 1 if r != c else 1 for c in range(5)] for r in range(5)]] + extreme
    matrices += [[[rng.randrange(p) for _ in range(5)] for _ in range(5)]
                 for _ in range(200)]
    stack = [[np.array([m[r][c] for m in matrices], dtype=np.int64)
              for c in range(5)] for r in range(5)]
    expected = [_det_gauss(m, p) for m in matrices]
    # the Python-int route, the exact integer determinant and the int64 stack
    assert [probe._det_staged(m, p) for m in matrices] == expected
    assert [_leibniz(m) % p for m in matrices] == expected
    assert probe._det_staged(stack, p).tolist() == expected


def _leibniz(rows):
    """The determinant over the integers, unreduced, summed over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(row[c] for row, c in zip(rows, perm))
    return total


def _python_int_determinant(rows):
    """The determinant of a 5x5 matrix of linear forms, each a list of five
    ints over monomials(1, 5)[::-1], expanded over all permutations in
    Python ints without reduction, over monomials(5, 5)[::-1]."""
    variables = monomials(1, 5)[::-1]
    total = {}
    for perm in itertools.permutations(range(5)):
        inversions = sum(perm[i] > perm[j] for i in range(5) for j in range(i + 1, 5))
        terms = {(0,) * 5: (-1) ** inversions}
        for r, c in enumerate(perm):
            product = {}
            for mono, coeff in terms.items():
                for var, a in zip(variables, rows[r][c]):
                    key = tuple(m + v for m, v in zip(mono, var))
                    product[key] = product.get(key, 0) + coeff * a
            terms = product
        for mono, coeff in terms.items():
            total[mono] = total.get(mono, 0) + coeff
    return [total.get(mono, 0) for mono in monomials(5, 5)[::-1]]


def test_form_determinant_matches_python_int_expansion():
    # a coefficient sums at most 5 products of a minor's coefficient and a
    # residue per stage, and minors sum unreduced terms; checked at p=241,
    # the largest supported prime, with all-(p-1) linear forms
    p = 241
    rng = random.Random(SEED)
    z = probe._z_residues(p, 1)
    matrices = [[[[p - 1] * 5] * 5] * 5,
                [[[p - 1] * 5 if r == 0 else [rng.randrange(p) for _ in range(5)]
                  for _ in range(5)] for r in range(5)],
                [[[p - 1 if (r + c + k) % 3 else rng.randrange(p) for k in range(5)]
                  for c in range(5)] for r in range(5)]]
    matrices += [[[entry.tolist() for entry in row] for row in rows(probe._lattice(1), z, p)]
                 for rows in (probe._structure_rows, probe._dual_rows)]
    for matrix in matrices:
        rows = [[np.array(entry, dtype=np.int64) for entry in row] for row in matrix]
        expected = [c % p for c in _python_int_determinant(matrix)]
        assert probe._det_forms(rows, p).tolist() == expected


@pytest.mark.parametrize("p", probe.SUPPORTED_PRIMES)
def test_form_determinant_matches_lattice_solve(p):
    # both quintics, the structure and the chordal one, at every admissible
    # modulus the default run uses
    for a in probe.admissible_moduli(p):
        z = probe._z_residues(p, a)
        for rows, oracle in ((probe._structure_rows, structure_rows),
                             (probe._dual_rows, dual_rows)):
            assert np.array_equal(probe._det_forms(rows(probe._lattice(1), z, p), p),
                                  lattice_quintic(oracle, z, p))


@pytest.mark.parametrize("rows, oracle", [(probe._structure_rows, structure_rows),
                                          (probe._dual_rows, dual_rows)])
def test_row_builders_match_closed_form(rows, oracle):
    # the table gather against one product and one reduction per entry, on
    # ints and on stacks, with coordinates p-1 among the cases; at p=241,
    # the largest supported prime, the determinants of the gathered stacks
    # match the closed form's too.  An input outside [0, p) raises.
    rng = random.Random(SEED)
    for p in (31, 241):
        z = probe._z_residues(p, 1)
        points = [(p - 1,) * 5, (0, 0, 0, 0, p - 1)]
        points += [probe._random_point(rng, p) for _ in range(60)]
        for point in points:
            built = rows(point, z, p)
            assert built == oracle(point, z, p)
            assert all(type(entry) is int for row in built for entry in row)
        stack = np.array(points, dtype=np.int64).T
        built = rows(stack, z, p)
        assert all(entry.dtype == np.int64 for row in built for entry in row)
        assert np.array_equal(np.array(built), np.array(oracle(stack, z, p)))
        assert np.array_equal(probe._det_staged(built, p),
                              probe._det_staged(oracle(stack, z, p), p))
        for bad in ((0, 0, 0, 0, p), (1, 2, -1, 0, 0)):
            with pytest.raises(ValueError):
                rows(bad, z, p)
            with pytest.raises(ValueError):
                rows(np.array(bad, dtype=np.int64)[:, None], z, p)


def test_monomial_matrix_matches_python_ints():
    # a monomial multiplies five residues and a form sums at most 210
    # products; checked at p=241 with the worst-case residue p-1
    p = 241
    rng = random.Random(SEED)
    points = [(p - 1,) * 5] + [tuple(rng.randrange(p) for _ in range(5)) for _ in range(40)]
    # the (5, 1) column is the shape CremonaWitness.apply_inverse passes
    for chosen, d in itertools.product((points, points[:1]), (0, 1, 2, 3, 5, 6)):
        exponents = monomials(d, 5)[::-1]
        # entries shifted by p: the kernel reduces and multiplies in place,
        # so it must do so on copies and hand the input back unchanged
        given = np.array(chosen, dtype=np.int64).T + p
        matrix = probe._monomial_matrix(given, d, p)
        assert given.tolist() == [[x + p for x in column] for column in zip(*chosen)]
        expected = [[prod(pow(x, e, p) for x, e in zip(pt, mono)) % p for mono in exponents]
                    for pt in chosen]
        assert matrix.tolist() == expected
        coeffs = [p - 1] * len(exponents)
        values = (matrix @ np.array(coeffs, dtype=np.int64) % p).tolist()
        assert values == [sum(c * v for c, v in zip(coeffs, row)) % p for row in expected]


def _low_rank_square(rng, p, rank=None):
    """A 5x5 matrix whose rows are combinations of ``rank`` random rows."""
    if rank is None:
        rank = rng.randrange(1, 5)
    basis_rows = [[rng.randrange(p) for _ in range(5)] for _ in range(rank)]
    weights = [[rng.randrange(p) for _ in basis_rows] for _ in range(5)]
    return [[sum(w * b[c] for w, b in zip(row, basis_rows)) % p for c in range(5)]
            for row in weights]


def _tall_sparse(rng, p):
    # 40x12 with about 80 % zeros, two zero columns and repeated rows:
    # most rows have a zero in most pivot columns, so the row reduction
    # skips them
    rows = [[rng.randrange(1, p) if rng.random() < 0.2 else 0 for _ in range(12)]
            for _ in range(40)]
    for row in rows:
        row[3] = row[9] = 0
    for k in range(0, 40, 8):
        rows[k + 1] = list(rows[k])
    return rows


def test_nullspace_vectors_annihilate():
    # 241 is the largest supported prime, where the int64 bound of the
    # numpy row reduction is tightest; the exact elimination over Fp in
    # multipoly is the independent oracle for rank and kernel basis
    rng = random.Random(SEED)
    for p in (31, 241):
        one = Fp(1, p)
        matrices = ([_low_rank_square(rng, p) for _ in range(20)]
                    + [_tall_sparse(rng, p) for _ in range(20)])
        for rows in matrices:
            kernel = probe._nullspace_mod_p(rows, p)
            fp_rank = len(probe._rref_mod_p(rows, p)[1])
            exact_rows = [[Fp(v, p) for v in row] for row in rows]
            assert fp_rank == scalar_matrix_rank(exact_rows, one)
            assert kernel.tolist() == [[c.v for c in vec]
                                       for vec in scalar_matrix_nullspace(exact_rows, one)]
            assert len(kernel) == len(rows[0]) - fp_rank
            for vec in kernel:
                for row in rows:
                    assert sum(r * v for r, v in zip(row, vec)) % p == 0


def _entry_stack(matrices):
    """Matrices as rows of (k,) arrays, the layout _rref_stack and
    _det_staged take."""
    return np.array(matrices, dtype=np.int64).transpose(1, 2, 0)


def test_rank_mask_matches_rank_column_by_column():
    # the minors oracle against the stacked ranks and the one-matrix solve
    rng = random.Random(SEED)
    p = 31
    ranks = [rng.choice((3, 4, 5)) for _ in range(300)] + [3, 3, 4, 5, 2, 1]
    matrices = [_low_rank_square(rng, p, rank) for rank in ranks]
    actual = [len(probe._rref_mod_p(m, p)[1]) for m in matrices]
    assert {3, 4, 5} <= set(actual)
    stack = _entry_stack(matrices)
    mask = rank_at_most_three_mask(stack, p)
    assert mask.dtype == bool
    assert mask.tolist() == [rank <= 3 for rank in actual]
    assert probe._rref_stack(stack, p)[1].sum(axis=1).tolist() == actual
    empty = [[np.zeros(0, dtype=np.int64) for _ in range(5)] for _ in range(5)]
    assert rank_at_most_three_mask(empty, p).shape == (0,)


def _stack_cases(rng, p, m, n):
    """Random m x n matrices: plain ones and ones with a repeated row, a zero
    row, a zero column, or every entry p - 1."""
    matrices = []
    for kind in range(60):
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        if kind % 5 == 1:
            rows[-1] = list(rows[0])
        elif kind % 5 == 2:
            rows[rng.randrange(m)] = [0] * n
        elif kind % 5 == 3:
            column = rng.randrange(n)
            for row in rows:
                row[column] = 0
        elif kind % 5 == 4:
            rows = [[p - 1] * n for _ in range(m)]
        matrices.append(rows)
    return matrices


@pytest.mark.parametrize("p", [31, 61, 241])
def test_stacked_reduction_matches_one_matrix_solves(p):
    # every update stays below p**2, checked at 241, the largest supported
    # prime, with all-(p-1) matrices among the cases; the kernels are
    # compared with the exact elimination over Fp in multipoly
    rng = random.Random(SEED + p)
    one = Fp(1, p)
    for m, n in ((5, 5), (2, 5), (4, 7), (7, 3)):
        matrices = _stack_cases(rng, p, m, n)
        if m == n == 5:
            matrices += [_low_rank_square(rng, p) for _ in range(40)] + [[[0] * 5] * 5]
        reduced, pivots = probe._rref_stack(_entry_stack(matrices), p)
        assert reduced.shape == (len(matrices), m, n) and pivots.shape == (len(matrices), n)
        vectors, owners = probe._kernel_stack(reduced, pivots, p)
        assert owners.tolist() == sorted(owners.tolist())
        for i, rows in enumerate(matrices):
            single, single_pivots = probe._rref_mod_p(rows, p)
            assert reduced[i].tolist() == single.tolist()
            assert np.flatnonzero(pivots[i]).tolist() == single_pivots
            exact = scalar_matrix_nullspace([[Fp(v, p) for v in row] for row in rows], one)
            assert vectors[owners == i].tolist() == [[c.v for c in vec] for vec in exact]
    empty = np.zeros((5, 5, 0), dtype=np.int64)
    reduced, pivots = probe._rref_stack(empty, p)
    assert reduced.shape == (0, 5, 5) and pivots.shape == (0, 5)
    vectors, owners = probe._kernel_stack(reduced, pivots, p)
    assert vectors.shape == (0, 5) and owners.shape == (0,)


def _representatives(p, z):
    """The zeros the full scan evaluates, as a (5, n) stack, and their weights."""
    singular, weights = [], []
    for base, dets, rows in probe._determinant_slabs(p, z):
        slices, values = np.nonzero(dets == 0)
        found = base[:, slices]
        found[4] += values
        singular.append(found)
        weights.append(rows[slices])
    return np.concatenate(singular, axis=1), np.concatenate(weights)


@pytest.mark.parametrize("a", probe.admissible_moduli(31))
def test_low_rank_census_matches_minor_oracle(a):
    # on the singular points of the p=31 full scan: about 990 of them pass
    # the census's one-minor prefilter, and only the rank-three ones count;
    # the scan's representatives, weighted, give the census of all of them
    p = 31
    z = probe._z_residues(p, a)
    points = singular_directions(p, z)
    assert points.shape[1] == 25000
    mask = rank_at_most_three_mask(structure_rows(points, z, p), p)
    expected = {}
    for y in points[:, mask].T.tolist():
        rank = len(probe._rref_mod_p(structure_rows(y, z, p), p)[1])
        expected[rank] = expected.get(rank, 0) + 1
    assert expected == {3: 25}
    ones = np.ones(points.shape[1], dtype=np.int64)
    assert probe._low_rank_census(points, ones, z, p) == expected
    assert probe._low_rank_census(points[:, ~mask], ones[~mask], z, p) == {}
    representatives, weights = _representatives(p, z)
    # 70 zeros of weight one and 4 986 of weight five
    assert representatives.shape[1] == 5056 and int(weights.sum()) == 25000
    assert probe._low_rank_census(representatives, weights, z, p) == expected


def _slab_points(base, dets):
    """The points base[:, s] + t*e4 of a slab, in the order of dets.T.ravel()."""
    slices, values = dets.shape
    block = np.tile(base, values)
    block[4] += np.repeat(np.arange(values), slices)
    return block


def _twisted(block, j, p):
    """The normalised images of a (5, n) stack under y_i -> eps**(i*j) y_i."""
    eps = find_root_of_unity(p, 5).v
    moved = block * np.array([pow(eps, i * j, p) for i in range(5)])[:, None] % p
    lead = moved[np.argmax(moved != 0, axis=0), np.arange(moved.shape[1])]
    return moved * _inverse_table(p)[lead] % p


@pytest.mark.parametrize("a", probe.admissible_moduli(31))
def test_sliced_full_scan_matches_staged_determinant(a):
    # each point of weight five stands for its orbit under the twist, one of
    # weight one for itself; together they are every point of P^4(F_31)
    # once, and the value at each is the staged determinant there
    p = 31
    z = probe._z_residues(p, a)
    keys = []
    zeros = 0
    for base, dets, weights in probe._determinant_slabs(p, z):
        assert base.shape[0] == 5 and weights.shape == (base.shape[1],)
        assert dets.shape in ((base.shape[1], p), (1, 1))
        assert 0 < dets.size <= probe._CHUNK
        assert set(weights.tolist()) <= {1, 5}
        block, values = _slab_points(base, dets), dets.T.ravel()
        orbit = np.tile(weights, dets.shape[1]) == 5
        for j in range(5):
            points = _twisted(block[:, orbit], j, p) if j else block
            expected = values[orbit] if j else values
            assert np.array_equal(expected, probe._det_staged(structure_rows(points, z, p), p))
            # normalised: the first nonzero coordinate of every point is one
            lead = points[np.argmax(points != 0, axis=0), np.arange(points.shape[1])]
            assert np.all(lead == 1)
            keys.append(sum(points[i] * p ** (4 - i) for i in range(5)))
            zeros += int(np.count_nonzero(expected == 0))
    keys = np.concatenate(keys)
    assert keys.size == np.unique(keys).size == (p ** 5 - 1) // (p - 1) == 954305
    assert zeros == 25000


def test_full_scan_slabs_at_largest_prime():
    # the power table holds t**5 for t < p before its reduction, and a value
    # is reduced once, below 936*p**4: checked on the first slabs at p=241
    p = 241
    z = probe._z_residues(p, 1)
    slabs = probe._determinant_slabs(p, z)
    for base, dets, _ in itertools.islice(slabs, 3):
        block = _slab_points(base, dets)
        assert dets.size <= probe._CHUNK
        assert np.array_equal(dets.T.ravel(), probe._det_staged(structure_rows(block, z, p), p))


def test_full_scan_values_match_every_monomial():
    # the slabs evaluate the 26 twist-invariant monomials only; on p=31
    # slabs their values equal those of all 126 monomials of the quintic
    p = 31
    z = probe._z_residues(p, 2)
    quintic = probe._det_forms(probe._structure_rows(probe._lattice(1), z, p), p)
    invariant = np.arange(5) @ probe._lattice(5) % 5 == 0
    assert np.count_nonzero(invariant) == 26
    assert np.array_equal(np.flatnonzero(quintic), np.flatnonzero(invariant))
    for base, dets, _ in itertools.islice(probe._determinant_slabs(p, z), 4):
        block = _slab_points(base, dets)
        assert np.array_equal(dets.T.ravel(), probe._monomial_matrix(block, 5, p) @ quintic % p)


def test_full_scan_rejects_a_quintic_that_is_not_twist_invariant(monkeypatch):
    # a coefficient at a monomial of weight one breaks the orbit reduction:
    # the scan raises, and the run reports a failing claim
    det_forms = probe._det_forms
    exponents = probe._lattice(5)
    weight_one = int(np.flatnonzero(np.arange(5) @ exponents % 5 == 1)[0])

    def untwisted(rows, p):
        out = det_forms(rows, p)
        out[weight_one] = (out[weight_one] + 1) % p
        return out

    monkeypatch.setattr(probe, "_det_forms", untwisted)
    with pytest.raises(ArithmeticError):
        next(probe._determinant_slabs(31, probe._z_residues(31, 1)))
    result = run(make_config(suites=["incidence"], primes=[31]))
    failing = [c for c in result["claims"] if c["status"] == "fail"]
    assert [c["id"] for c in failing] == [
        "incidence:incidence-certification-completes@p31-a1",
        "incidence:incidence-certification-completes@p31-a2"]
    assert "ArithmeticError" in failing[0]["witness"]


def test_chart_blocks_cover_projective_space():
    p = 31
    total = sum(block.shape[1] for block in probe._chart_blocks(p))
    assert total == (p ** 5 - 1) // (p - 1)


def test_stacked_times_matches_per_pair_form():
    # the stacked duality pairs of certify_secant_variety, pair by pair
    rng = random.Random(SEED)
    for p in (31, 241):
        z = probe._z_residues(p, 1)
        pairs = [(probe._random_point(rng, p), probe._random_point(rng, p)) for _ in range(50)]
        pairs.append(((p - 1,) * 5, (p - 1,) * 5))
        xs, ys = np.array(pairs, dtype=np.int64).transpose(1, 2, 0)
        structure = np.array(probe._times(probe._structure_rows(ys, z, p), xs, p))
        dual = np.array(probe._times(probe._dual_rows(xs, z, p), ys, p))
        assert structure.shape == dual.shape == (5, len(pairs))
        for k, (x, y) in enumerate(pairs):
            assert tuple(structure[:, k]) == probe._times(probe._structure_rows(y, z, p), x, p)
            assert tuple(dual[:, k]) == probe._times(probe._dual_rows(x, z, p), y, p)


def test_bilinear_evaluations_match_symbolic_route(scan31, moore31):
    mm = moore31
    z = probe._z_residues(31, 2)
    rng = random.Random(SEED)
    for _ in range(20):
        x = probe._random_point(rng, 31)
        y = probe._random_point(rng, 31)
        shared = incidence_residual([Fp(c, 31) for c in x], [Fp(c, 31) for c in y], mm)
        assert (probe._times(probe._structure_rows(y, z, 31), x, 31)
                == tuple(v.v for v in shared))
        assert (probe._times(probe._dual_rows(x, z, 31), y, 31)
                == tuple(v.v for v in shared))


# ---------------------------------------------------------------------------
# secant certification


def test_secant_certification_passes(scan31, scan61):
    for scan in (scan31, scan61):
        report = probe.certify_secant_variety(scan)
        assert report["passed"] and report["soft_passed"]
        assert report["seed"] == SEED
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "jacobian rank three at every curve point",
            "dual determinant vanishes on chord samples",
            "structure and dual evaluations agree on random pairs",
            "dual determinant nonzero at a generic point",
            "vanishing density tracks the hypersurface heuristic",
        ]


def test_secant_certification_sample_counts(scan31):
    report = probe.certify_secant_variety(scan31)
    assert "1000/1000" in report["checks"][1]["detail"]
    assert "500/500" in report["checks"][2]["detail"]


def test_secant_certification_deterministic(scan31):
    first = probe.certify_secant_variety(scan31, seed=7)
    second = probe.certify_secant_variety(scan31, seed=7)
    assert first == second
    assert first != probe.certify_secant_variety(scan31, seed=8)


class _CountingRandom(random.Random):
    """A generator that counts its block reads, getrandbits of over 32 bits."""

    def __init__(self, seed):
        self.blocks = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.blocks += k > 32
        return super().getrandbits(k)


def _assert_block_replays_sequential_draws(rng, p, n):
    sequential = random.Random()
    sequential.setstate(rng.getstate())
    block = probe._random_points(rng, p, n)
    expected = [probe._random_point(sequential, p) for _ in range(n)]
    assert block.dtype == np.int64 and block.shape == (5, n)
    assert block.T.tolist() == [list(x) for x in expected]
    assert rng.getstate() == sequential.getstate()
    assert rng.random() == sequential.random()


@pytest.mark.parametrize("p", probe.SUPPORTED_PRIMES + (2, 3, 5, 7))
def test_block_draws_replay_sequential_draws(p):
    for n in (0, 1, 17):
        _assert_block_replays_sequential_draws(random.Random(SEED), p, n)
    # a thousand points at the first seed whose first block falls short:
    # one read per block, and one to advance past the outputs used
    for seed in range(40):
        rng = _CountingRandom(seed)
        _assert_block_replays_sequential_draws(rng, p, 1000)
        if rng.blocks > 2:
            break
    assert rng.blocks > 2


@pytest.mark.parametrize("p", probe.SUPPORTED_PRIMES)
def test_chord_samples_match_sequential_draws(p):
    points = probe.scan_curve(p, probe.admissible_moduli(p)[0]).points
    for n in (1, 200, 1000):
        rng, sequential = random.Random(SEED), random.Random(SEED)
        samples = probe._chord_samples(rng, points, p, n)
        expected = [chord_sample(sequential, points, p) for _ in range(n)]
        assert samples.dtype == np.int64 and samples.shape == (5, n)
        assert samples.T.tolist() == [list(x) for x in expected]
        assert rng.getstate() == sequential.getstate()


def test_chord_samples_off_the_curve(scan31):
    samples = probe._chord_samples(random.Random(SEED), scan31.points, 31, 200)
    for sample in samples.T.tolist():
        assert not scan31.contains(sample)


# ---------------------------------------------------------------------------
# incidence certification


def _every_seventh_pair_dependent(random_point):
    """A point draw that makes the second point of every seventh pair a
    multiple of the first; the rng consumption stays as it was."""
    calls = itertools.count(1)
    last = []

    def draw(rng, p):
        x = random_point(rng, p)
        n = next(calls)
        if n % 14 == 0:
            return tuple(3 * c % p for c in last[-1])
        last.append(x)
        return x

    return draw


def _sequential_pairs(rng, p, count):
    """Independent pairs one draw at a time, ranked by the one-matrix solve."""
    pairs = []
    while len(pairs) < count:
        u = probe._random_point(rng, p)
        v = probe._random_point(rng, p)
        if len(probe._rref_mod_p((u, v), p)[1]) == 2:
            pairs.append((u, v))
    return pairs


@pytest.mark.parametrize("p", [31, 61])
def test_pair_rounds_match_sequential_loop(monkeypatch, p):
    random_point = probe._random_point
    monkeypatch.setattr(probe, "_random_point", _every_seventh_pair_dependent(random_point))
    rounds = []
    rref_stack = probe._rref_stack

    def spy(rows, q):
        rounds.append(np.shape(rows)[-1])
        return rref_stack(rows, q)

    monkeypatch.setattr(probe, "_rref_stack", spy)
    rng = random.Random(SEED)
    pairs = probe._independent_pairs(rng, p, probe.INCIDENCE_LINES)
    monkeypatch.setattr(probe, "_random_point", _every_seventh_pair_dependent(random_point))
    sequential_rng = random.Random(SEED)
    expected = _sequential_pairs(sequential_rng, p, probe.INCIDENCE_LINES)
    assert pairs.tolist() == [[list(u), list(v)] for u, v in expected]
    assert rng.getstate() == sequential_rng.getstate()
    # pairs 7, 14, .., 63 are dependent: 60 lines take 69 draws in three rounds
    assert rounds == [60, 8, 1]


def test_incidence_certification_passes(scan31):
    report = probe.certify_incidence(scan31)
    assert report["passed"] and report["soft_passed"]
    assert report["full_scan"] is True


def test_incidence_full_scan_census_frozen(scan31):
    report = probe.certify_incidence(scan31)
    by_name = {c["name"]: c for c in report["checks"]}
    density = by_name["full scan vanishing density tracks the hypersurface heuristic"]
    assert "25000 singular directions among 954305" in density["detail"]
    assert density["soft"] is True
    census = by_name["rank three locus has curve scale"]
    assert "25 rank-three directions" in census["detail"]
    assert "rank 3: 25" in census["detail"]
    assert census["soft"] is True


def test_full_scan_density_needs_all_of_projective_space(scan31, monkeypatch):
    # representative heads weighted 1 instead of 5 cover a fifth of the
    # orbits: the counts still sit inside the factor-two envelope, so only
    # the total against (p**5 - 1)/(p - 1) fails the density claim
    slabs = probe._determinant_slabs

    def unit_weights(p, z):
        for base, dets, rows in slabs(p, z):
            yield base, dets, np.ones_like(rows)

    monkeypatch.setattr(probe, "_determinant_slabs", unit_weights)
    report = probe.certify_incidence(scan31)
    density = {c["name"]: c for c in report["checks"]}[
        "full scan vanishing density tracks the hypersurface heuristic"]
    assert "5056 singular directions among 193193" in density["detail"]
    assert not density["passed"]
    assert not report["soft_passed"]


def test_incidence_kernels_at_a_rank_three_point(scan31):
    # at run seed 17 one of the 62 sampled incidence points has rank three,
    # so the stacked kernels give 63 vectors for 62 points
    report = probe.certify_incidence(scan31, seed=suite_seed(17, "incidence"))
    by_name = {c["name"]: c["detail"] for c in report["checks"]}
    assert by_name["sampled kernel ranks stay in the expected band"].startswith(
        "rank 3: 1, rank 4: 61;")
    assert (by_name["singular structure matrices have nonzero kernels"]
            == "62/62 incidence points have a kernel")
    assert by_name["kernel vectors satisfy the dual relation"].startswith("63/63 ")
    assert by_name["kernel vectors lie on the chordal quintic"].startswith("63/63 ")


def test_incidence_pencils_exercised(scan31):
    report = probe.certify_incidence(scan31)
    by_name = {c["name"]: c for c in report["checks"]}
    pencil = by_name["curve points span pencils of singular directions"]
    assert pencil["passed"]
    assert "5/5 curve points have a two-dimensional kernel" in pencil["detail"]
    assert "20/20 pencil members" in pencil["detail"]


def test_incidence_skips_full_scan_for_larger_prime(scan61):
    report = probe.certify_incidence(scan61)
    assert report["passed"]
    assert report["full_scan"] is False
    names = [c["name"] for c in report["checks"]]
    assert "rank three locus has curve scale" not in names


# ---------------------------------------------------------------------------
# Cremona inversion


def _form(coeffs, degree, p):
    """A coefficient vector over monomials(degree, 5)[::-1] as a polynomial."""
    return MultiPoly(VARS_X, {mono: Fp(int(c), p) for mono, c
                              in zip(monomials(degree, 5)[::-1], coeffs) if c}, Fp(1, p))


def _vector(poly, degree):
    """The coefficient vector of a polynomial over monomials(degree, 5)[::-1]."""
    return [poly.coeff(m).v for m in monomials(degree, 5)[::-1]]


def test_witness_shapes(witness31):
    assert witness31.solution_dimension == 1
    assert witness31.cubics.shape == (5, len(monomials(3, 5)))
    assert all(cubic.any() for cubic in witness31.cubics)
    assert witness31.factor.shape == (len(monomials(5, 5)),)
    assert np.count_nonzero(witness31.factor) == 26


def test_witness_report_passes(witness31):
    report = witness31.report
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "interpolation system admits a nonzero solution",
        "common factor is a nonzero quintic",
        "composition identity holds coefficient-wise",
        "common factor matches the chordal quintic up to scale",
        "round trip reproduces sample points",
        "structure determinant vanishes on chord images",
    ]


def test_roundtrip_details(witness31):
    detail = witness31.report["checks"][4]["detail"]
    assert "500/500 round trips exact" in detail
    assert "skipped" in detail


def test_surviving_index_maps_frozen(witness31):
    detail = witness31.report["checks"][5]["detail"]
    assert str(DIHEDRAL_MAPS) in detail
    assert witness31.report["checks"][5]["passed"]


def test_factor_matches_dual_determinant_pointwise(witness31, dual_det31):
    dual_det = dual_det31
    factor = _form(witness31.factor, 5, 31)
    ratio = None
    rng = random.Random(SEED)
    for _ in range(20):
        x = probe._random_point(rng, 31)
        symbolic = dual_det.eval_at([Fp(c, 31) for c in x]).v
        numeric = factor.eval_at([Fp(c, 31) for c in x]).v
        if symbolic == 0:
            assert numeric == 0
            continue
        r = numeric * pow(symbolic, 29, 31) % 31
        if ratio is None:
            ratio = r
        assert r == ratio
    assert ratio == 16


def test_forward_and_inverse_maps_compose(witness31):
    factor = _form(witness31.factor, 5, 31)
    rng = random.Random(SEED)
    checked = 0
    while checked < 25:
        x = probe._random_point(rng, 31)
        image = witness31.apply_forward(x)
        if not any(image):
            continue
        g = factor.eval_at([Fp(c, 31) for c in x]).v
        if g == 0:
            continue
        back = witness31.apply_inverse(image)
        assert back == tuple(g * c % 31 for c in x)
        checked += 1


def test_forward_map_contracts_chords_to_singular_directions(witness31, scan31):
    z = probe._z_residues(31, 2)
    for chord in probe._chord_samples(random.Random(SEED), scan31.points, 31, 50).T:
        image = witness31.apply_forward(chord)
        assert any(image)
        assert probe._det_staged(probe._structure_rows(image, z, 31), 31) == 0


def test_witness_deterministic(scan31, witness31):
    again = probe.interpolate_cremona_inverse(scan31)
    assert again.report == witness31.report
    assert np.array_equal(again.cubics, witness31.cubics)
    assert np.array_equal(again.factor, witness31.factor)


def test_witness_frozen_at_modulus_one():
    witness = probe.interpolate_cremona_inverse(probe.scan_curve(31, 1))
    by_name = {c["name"]: c for c in witness.report["checks"]}
    assert witness.solution_dimension == 1
    assert (by_name["common factor matches the chordal quintic up to scale"]["detail"]
            == "scale factor 16")
    assert (by_name["structure determinant vanishes on chord images"]["detail"]
            == "200/200 chord images on the determinant locus; "
            f"index maps preserving the quintic: {DIHEDRAL_MAPS}")


def test_witness_on_second_prime(scan61):
    witness = probe.interpolate_cremona_inverse(scan61)
    assert witness.report["passed"]
    assert witness.solution_dimension == 1
    assert np.count_nonzero(witness.factor) == 26


def test_chordal_quintic_equals_symbolic_dual_determinant(dual_det31):
    z = probe._z_residues(31, 2)
    chordal = probe._det_forms(probe._dual_rows(probe._lattice(1), z, 31), 31)
    assert chordal.tolist() == _vector(dual_det31, 5)


def test_quadric_products_equal_symbolic_powers():
    p, a = 31, 2
    products = probe._quadric_products(p, a)
    quadrics = build_moore_matrices(Fp(a, p)).quadrics
    for column, alpha in enumerate(monomials(3, 5)[::-1]):
        power = MultiPoly.constant(VARS_X, Fp(1, p), Fp(1, p))
        for q, e in zip(quadrics, alpha):
            for _ in range(e):
                power = power * q
        assert products[:, column].tolist() == _vector(power, 6)


DEFAULT_PAIRS = [(p, a) for p in probe.SUPPORTED_PRIMES for a in probe.admissible_moduli(p)]


def _interpolated_products(p, a):
    """The products q**alpha read off their values on the sextic lattice."""
    values = probe._monomial_matrix(probe._quadric_values(probe._lattice(6), p, a), 3, p)
    return probe._coefficients(values, 6, p)


@pytest.mark.parametrize("p,a", DEFAULT_PAIRS)
def test_multiplied_products_equal_lattice_interpolation(p, a):
    assert np.array_equal(probe._quadric_products(p, a), _interpolated_products(p, a))


def test_multiply_matches_symbolic_products():
    # an output coefficient sums at most 15 products of residues; checked
    # at p=241, the largest supported prime, with the worst-case residue p-1
    p = 241
    rng = random.Random(SEED)
    for d1, d2 in ((1, 1), (2, 2), (4, 2), (5, 1)):
        n1, n2 = len(monomials(d1, 5)), len(monomials(d2, 5))
        left = np.array([[p - 1] * n1] + [[rng.randrange(p) for _ in range(n1)]
                                          for _ in range(3)], dtype=np.int64).T
        right = np.array([[p - 1] * n2] + [[rng.randrange(p) for _ in range(n2)]
                                           for _ in range(3)], dtype=np.int64).T
        out = probe._multiply(left, right, probe._product_table(d1, d2), p)
        for k in range(4):
            product = _form(left[:, k], d1, p) * _form(right[:, k], d2, p)
            assert out[:, k].tolist() == _vector(product, d1 + d2)


def _dense_system(products, p):
    """The interpolation system as one matrix: row block j holds the sextic
    coefficients of sum_k c_jk q**alpha_k - x_j * g."""
    nsextic, ncubic = products.shape
    sextic_index = {m: i for i, m in enumerate(monomials(6, 5)[::-1])}
    quintics = monomials(5, 5)[::-1]
    system = np.zeros((5 * nsextic, 5 * ncubic + len(quintics)), dtype=np.int64)
    for j in range(5):
        system[j * nsextic:(j + 1) * nsextic, j * ncubic:(j + 1) * ncubic] = products
        for column, beta in enumerate(quintics):
            shifted = list(beta)
            shifted[j] += 1
            system[j * nsextic + sextic_index[tuple(shifted)], 5 * ncubic + column] = p - 1
    return system


@pytest.mark.parametrize("p,a", [(31, a) for a in probe.admissible_moduli(31, 31)]
                         + [pair for pair in DEFAULT_PAIRS if pair[0] != 31])
def test_block_kernel_equals_dense_nullspace(p, a):
    products = probe._quadric_products(p, a)
    kernel = probe._cremona_kernel(products, p)
    assert kernel.shape == (1, 5 * 35 + 126)
    assert kernel.tolist() == probe._nullspace_mod_p(_dense_system(products, p), p).tolist()


def _kernel_solves(monkeypatch, products, p):
    """``_cremona_kernel`` of the products, and the shape of every
    system it row-reduces, in order."""
    solved = []
    rref = probe._rref_mod_p

    def spy(rows, q):
        solved.append(np.shape(rows))
        return rref(rows, q)

    with monkeypatch.context() as patch:
        patch.setattr(probe, "_rref_mod_p", spy)
        return probe._cremona_kernel(products, p), solved


def test_block_kernel_solves_one_block_at_a_time(monkeypatch):
    kernel, solved = _kernel_solves(monkeypatch, probe._quadric_products(31, 2), 31)
    # the left kernel, block 0 from the column side (34 pivots, so its
    # kernel has dimension 1), blocks 1-4 times it, the reduction of the
    # factor, and the cubics: no solve is larger than one block
    assert solved == [(35, 210), (84, 35)] + [(175, 1)] * 4 + [(1, 126), (210, 40)]
    assert kernel.shape == (1, 5 * 35 + 126)


@pytest.mark.parametrize("p", [31, 241])
def test_block_kernel_cuts_a_staircase_one_block_at_a_time(monkeypatch, p):
    # random quintics g_0 .. g_5, with x_j * g_k among the products for
    # j <= min(k, 4), beside random sextics: block j cuts g_j from the
    # kernel, which keeps a two-dimensional span of g_4 and g_5
    rng = np.random.default_rng(SEED)
    quintics = rng.integers(0, p, size=(126, 6))
    multiples = probe._coordinate_multiples(quintics)
    columns = [multiples[:, j, k] for k in range(6) for j in range(min(k, 4) + 1)]
    products = np.column_stack(columns + [rng.integers(0, p, size=210) for _ in range(15)])
    kernel, solved = _kernel_solves(monkeypatch, products, p)
    assert solved == [(35, 210), (84, 35), (175, 6), (175, 5), (175, 4), (175, 3), (2, 126),
                      (210, 45)]
    assert kernel.shape == (2, 5 * 35 + 126)
    assert kernel.tolist() == probe._nullspace_mod_p(_dense_system(products, p), p).tolist()
    span = np.column_stack([quintics[:, 4:], kernel[:, 5 * 35:].T])
    assert len(probe._rref_mod_p(span, p)[1]) == 2


@pytest.mark.parametrize("p", [31, 241])
def test_block_kernel_of_full_rank_random_products_is_empty(monkeypatch, p):
    products = np.random.default_rng(SEED).integers(0, p, size=(210, 35))
    kernel, solved = _kernel_solves(monkeypatch, products, p)
    # block 0's kernel is already trivial, so blocks 1-4 are never solved
    assert solved == [(35, 210), (84, 35), (0, 126), (210, 35)]
    assert kernel.shape == (0, 5 * 35 + 126)
    assert kernel.tolist() == probe._nullspace_mod_p(_dense_system(products, p), p).tolist()


def test_rank_guard_raises_on_dependent_products():
    products = probe._quadric_products(31, 2)
    products[:, 7] = products[:, 3]
    with pytest.raises(RuntimeError, match="rank 34 over F_31"):
        probe._cremona_kernel(products, 31)


def test_coefficients_invert_random_forms():
    rng = np.random.default_rng(SEED)
    for p in probe.SUPPORTED_PRIMES:
        for d in (5, 6):
            square = probe._monomial_matrix(probe._lattice(d), d, p)
            forms = rng.integers(0, p, size=(square.shape[1], 3))
            assert np.array_equal(probe._coefficients(square @ forms % p, d, p), forms)
            single = forms[:, 0]
            assert np.array_equal(probe._coefficients(square @ single % p, d, p), single)
    for d in (5, 6):
        # the lattice needs p > d: over F_5 its monomial matrix is singular
        values = np.zeros(len(monomials(d, 5)), dtype=np.int64)
        with pytest.raises(RuntimeError, match="not determined"):
            probe._coefficients(values, d, 5)


def _sequential_round_trip(witness, rng):
    """The round trip one draw at a time, with the symbolic route evaluating."""
    p = witness.p
    quadrics = build_moore_matrices(Fp(witness.a, p)).quadrics
    factor = _form(witness.factor, 5, p)
    cubics = [_form(row, 3, p) for row in witness.cubics]
    passes = skips = draws = valid = 0
    while valid < probe.ROUNDTRIP_SAMPLES and draws < 8 * probe.ROUNDTRIP_SAMPLES:
        draws += 1
        x = [Fp(c, p) for c in probe._random_point(rng, p)]
        image = [q.eval_at(x) for q in quadrics]
        if not any(v.v for v in image):
            continue
        g = factor.eval_at(x)
        if g.v == 0:
            skips += 1
            continue
        valid += 1
        if all(c.eval_at(image) == g * v for c, v in zip(cubics, x)):
            passes += 1
    return passes, skips, valid


def _every_fiftieth_on_curve(random_point, points):
    """A point draw that puts every fiftieth draw on the curve, where the
    forward map is undefined; the rng consumption stays as it was."""
    calls = itertools.count(1)

    def draw(rng, p):
        x = random_point(rng, p)
        return points[x[0] % len(points)] if next(calls) % 50 == 0 else x

    return draw


def _every_fiftieth_column_on_curve(random_points, points):
    """Block draws that put every fiftieth point on the curve as
    _every_fiftieth_on_curve does, one column at a time; the rng
    consumption stays as it was."""
    calls = itertools.count(1)

    def draw(rng, p, n):
        xs = random_points(rng, p, n)
        for column in range(n):
            if next(calls) % 50 == 0:
                xs[:, column] = points[xs[0, column] % len(points)]
        return xs

    return draw


@pytest.mark.parametrize("p,a,on_curve", [(31, 2, False), (61, 1, False), (31, 2, True)])
def test_batched_round_trip_matches_sequential_loop(monkeypatch, p, a, on_curve):
    scan = probe.scan_curve(p, a)
    after_round_trip = []
    chord_samples = probe._chord_samples

    def spy(rng, points, q, n):
        if not after_round_trip:
            after_round_trip.append(rng.getstate())
        return chord_samples(rng, points, q, n)

    monkeypatch.setattr(probe, "_chord_samples", spy)
    if on_curve:
        monkeypatch.setattr(probe, "_random_points",
                            _every_fiftieth_column_on_curve(probe._random_points, scan.points))
    witness = probe.interpolate_cremona_inverse(scan)
    if on_curve:
        monkeypatch.setattr(probe, "_random_point",
                            _every_fiftieth_on_curve(probe._random_point, scan.points))
    rng = random.Random(SEED)
    passes, skips, valid = _sequential_round_trip(witness, rng)
    assert (passes, valid) == (probe.ROUNDTRIP_SAMPLES, probe.ROUNDTRIP_SAMPLES)
    assert skips > 0
    assert witness.report["checks"][4]["detail"].startswith(
        f"{passes}/{valid} round trips exact; {skips} draws skipped")
    assert after_round_trip == [rng.getstate()]


def _corrupt_chordal_quintic(monkeypatch):
    det_forms = probe._det_forms

    def doubled_lead(rows, p):
        out = det_forms(rows, p)
        lead = np.flatnonzero(out)[0]
        out[lead] = 2 * out[lead] % p
        return out

    monkeypatch.setattr(probe, "_det_forms", doubled_lead)


def _corrupt_kernel_vector(monkeypatch):
    kernel = probe._cremona_kernel

    def bumped_first_entry(products, p):
        basis = kernel(products, p)
        basis[0, 0] = (basis[0, 0] + 1) % p
        return basis

    monkeypatch.setattr(probe, "_cremona_kernel", bumped_first_entry)


@pytest.mark.parametrize("corrupt,failing", [
    (_corrupt_chordal_quintic, "common factor matches the chordal quintic up to scale"),
    (_corrupt_kernel_vector, "composition identity holds coefficient-wise"),
])
def test_corrupted_step_fails_its_check(monkeypatch, scan31, corrupt, failing):
    corrupt(monkeypatch)
    by_name = {c["name"]: c for c in probe.interpolate_cremona_inverse(scan31).report["checks"]}
    assert not by_name[failing]["passed"]


# ---------------------------------------------------------------------------
# budgets


def test_scan_budgets():
    import time

    start = time.monotonic()
    probe.scan_curve(31, 4)
    assert time.monotonic() - start < 10.0
    start = time.monotonic()
    probe.scan_curve(61, 3)
    assert time.monotonic() - start < 60.0


def _peak_growth_in_child(body: str) -> tuple:
    """Run ``body`` in a fresh interpreter after ``from pentangle import
    probe, report``; return its printed lines and the growth, in KB, of
    its peak resident set over the value after import.  The child reads
    its peak from VmHWM, which exec resets: ru_maxrss keeps the
    high-water mark of the spawning pytest process across exec on Linux."""
    script = (
        "from pentangle import probe, report\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status\n"
        "                    if line.startswith('VmHWM:'))\n"
        "before = peak_kb()\n"
        + body +
        "print(before)\n"
        "print(peak_kb())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    *lines, before_kb, peak_kb = result.stdout.splitlines()
    assert int(peak_kb) < 150 * 1024
    return lines, int(peak_kb) - int(before_kb)


def test_incidence_full_scan_memory_stays_modest():
    """One process scans p=31, runs the full incidence scan, then scans
    p=61; chart slabs, reduced in place, bound its peak resident set,
    which grew by 2 072-2 128 KB over its value after import (2 212-2 276
    KB when each slab's reduction allocated a second slab)."""
    (density, census), growth = _peak_growth_in_child(
        "checks = probe.certify_incidence(probe.scan_curve(31, 2))['checks']\n"
        "probe.scan_curve(61, 1)\n"
        "for check in checks[-2:]:\n"
        "    print(check['detail'])\n")
    assert "25000 singular directions among 954305" in density
    assert "25 rank-three directions" in census
    assert growth < 3 * 1024


def test_curve_suites_memory_growth():
    """The four curve suites at p=31 and 61 grew the peak resident set by
    2 452-2 628 KB over its value after import.  The Cremona round trip
    sets the peak: its degree-5 monomial values at 500 points are
    multiplied in place, one coordinate at a time; gathering their
    (5, 126, 500) factor cube first grew the peak by 4 504-4 888 KB."""
    (summary,), growth = _peak_growth_in_child(
        "config = report.make_config(primes=(31, 61), a_values='auto', seed=42,\n"
        "                            suites=('scan', 'secants', 'incidence', 'cremona'))\n"
        "print(report.run(config)['summary']['fail'])\n")
    assert summary == "0"
    assert growth < 3.5 * 1024


# ---------------------------------------------------------------------------
# soft envelopes, decided in integers


def _float_density_reference(zeros, samples, p):
    expected = samples / p
    slack = 5.0 * (samples * (1.0 / p) * (1.0 - 1.0 / p)) ** 0.5 + 1.0
    return abs(zeros - expected) <= slack


def _float_full_scan_reference(zero_count, total, p):
    expected = total / p
    return expected / 2 <= zero_count <= 2 * expected


def _within(envelope, count):
    low, high = envelope
    return low <= count <= high


def test_density_envelope_matches_float_formula():
    for p in probe.SUPPORTED_PRIMES:
        for samples in (1, 7, 100, 500, 999, 1000, 4321, 20000):
            envelope = probe._density_envelope(samples, p)
            reach = samples // p + 10 * isqrt(samples // p + 1) + 20
            for zeros in range(0, min(samples, reach) + 1):
                assert (_within(envelope, zeros)
                        == _float_density_reference(zeros, samples, p)), (zeros, samples, p)
            tenths = probe._rounded_ratio(10 * samples, p)
            assert f"{tenths // 10}.{tenths % 10}" == f"{samples / p:.1f}"


def test_density_envelope_is_exact_on_its_edge():
    # where samples*(p-1) is a square the envelope edge is rational, and a
    # count can sit exactly on it; the float formula misjudges some of these
    on_edge = 0
    for p in probe.SUPPORTED_PRIMES:
        for k in range(1, 200):
            samples = (p - 1) * k * k
            reach = p + 5 * (p - 1) * k        # p + 5*sqrt(samples*(p-1))
            for sign in (1, -1):
                if (samples + sign * reach) % p or samples + sign * reach < 0:
                    continue
                zeros = (samples + sign * reach) // p
                envelope = probe._density_envelope(samples, p)
                assert _within(envelope, zeros)
                assert not _within(envelope, zeros + sign)
                on_edge += 1
    assert on_edge > 0


def test_full_scan_envelope_matches_float_formula():
    for p in probe.SUPPORTED_PRIMES:
        for total in ((p ** 5 - 1) // (p - 1), p ** 4, 2 * p * 1000, 954305, 123457):
            edges = (total // (2 * p), -(-total // (2 * p)), 2 * total // p)
            for edge in edges:
                for zero_count in range(max(edge - 3, 0), edge + 4):
                    assert (_within(probe._factor_two_envelope(total, p), zero_count)
                            == _float_full_scan_reference(zero_count, total, p))
            assert str(probe._rounded_ratio(total, p)) == f"{total / p:.0f}"
