"""Prime-field certification tests.

Expected values frozen here (point counts, excluded residues, the full-scan
rank census, the surviving index maps) were produced by an independent
prototype that used plain integer arithmetic and a separate Gaussian
elimination, before this module was written.
"""

from __future__ import annotations

import random

import pytest

from pentangle import probe
from pentangle.moore import (
    QuadricSystem,
    build_moore_matrices,
    incidence_residual,
    quintic_equations,
    reference_curve_points,
)
from pentangle.multipoly import scalar_matrix_nullspace, scalar_matrix_rank
from pentangle.scalars import Fp

SEED = 20260824

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
    qs = QuadricSystem(Fp(2, 31))
    for pt in scan31.points[:10]:
        coords = [Fp(c, 31) for c in pt]
        for q in qs.quadrics:
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
        rotated = probe._normalize_point(pt[1:] + pt[:1], p)
        scaled = probe._normalize_point(
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


def test_nullspace_vectors_annihilate():
    # 241 is the largest supported prime, where the int64 bound of the
    # numpy row reduction is tightest; the exact elimination over Fp in
    # multipoly is the independent oracle for rank and kernel basis
    rng = random.Random(SEED)
    for p in (31, 241):
        one = Fp(1, p)
        for _ in range(20):
            rank = rng.randrange(1, 5)
            basis_rows = [[rng.randrange(p) for _ in range(5)] for _ in range(rank)]
            rows = [[sum(rng.randrange(p) * b[c] for b in basis_rows) % p
                     for c in range(5)] for _ in range(5)]
            kernel = probe._nullspace_mod_p(rows, p)
            fp_rank = probe._rank_mod_p(rows, p)
            exact_rows = [[Fp(v, p) for v in row] for row in rows]
            assert fp_rank == scalar_matrix_rank(exact_rows, one)
            assert kernel == tuple(tuple(c.v for c in vec)
                                   for vec in scalar_matrix_nullspace(exact_rows, one))
            assert len(kernel) == 5 - fp_rank
            for vec in kernel:
                for row in rows:
                    assert sum(r * v for r, v in zip(row, vec)) % p == 0


def test_chart_blocks_cover_projective_space():
    p = 31
    total = sum(block.shape[1] for block in probe._chart_blocks(p))
    assert total == (p ** 5 - 1) // (p - 1)


def test_bilinear_evaluations_match_symbolic_route(scan31):
    mm = build_moore_matrices(Fp(2, 31))
    z = probe._z_residues(31, 2)
    rng = random.Random(SEED)
    for _ in range(20):
        x = probe._random_point(rng, 31)
        y = probe._random_point(rng, 31)
        shared = incidence_residual([Fp(c, 31) for c in x], [Fp(c, 31) for c in y], mm)
        assert probe._apply_structure(y, x, z, 31) == tuple(v.v for v in shared)
        assert probe._apply_dual(x, y, z, 31) == tuple(v.v for v in shared)


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


def test_chord_samples_off_the_curve(scan31):
    rng = random.Random(SEED)
    for _ in range(200):
        sample = probe._chord_sample(rng, scan31.points, 31)
        assert not scan31.contains(sample)


# ---------------------------------------------------------------------------
# incidence certification


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


def test_incidence_full_scan_opt_out(scan31):
    report = probe.certify_incidence(scan31, full_scan=False)
    assert report["full_scan"] is False
    assert len(report["checks"]) == 7


# ---------------------------------------------------------------------------
# Cremona inversion


def test_witness_shapes(witness31):
    assert witness31.solution_dimension == 1
    assert len(witness31.cubics) == 5
    for cubic in witness31.cubics:
        assert cubic
        assert all(sum(e) == 3 for e in cubic)
    assert all(sum(e) == 5 for e in witness31.factor)
    assert len(witness31.factor) == 26


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


def test_factor_matches_dual_determinant_pointwise(witness31):
    mm = build_moore_matrices(Fp(2, 31))
    _, dual_det = quintic_equations(mm)
    ratio = None
    rng = random.Random(SEED)
    for _ in range(20):
        x = probe._random_point(rng, 31)
        symbolic = dual_det.eval_at([Fp(c, 31) for c in x]).v
        numeric = probe._poly_eval(witness31.factor, x, 31)
        if symbolic == 0:
            assert numeric == 0
            continue
        r = numeric * pow(symbolic, 29, 31) % 31
        if ratio is None:
            ratio = r
        assert r == ratio
    assert ratio == 16


def test_forward_and_inverse_maps_compose(witness31):
    rng = random.Random(SEED)
    checked = 0
    while checked < 25:
        x = probe._random_point(rng, 31)
        image = witness31.apply_forward(x)
        if not any(image):
            continue
        g = probe._poly_eval(witness31.factor, x, 31)
        if g == 0:
            continue
        back = witness31.apply_inverse(image)
        assert back == tuple(g * c % 31 for c in x)
        checked += 1


def test_forward_map_contracts_chords_to_singular_directions(witness31, scan31):
    z = probe._z_residues(31, 2)
    rng = random.Random(SEED)
    for _ in range(50):
        chord = probe._chord_sample(rng, scan31.points, 31)
        image = witness31.apply_forward(chord)
        assert any(image)
        assert probe._det_staged(probe._structure_rows(image, z, 31), 31) == 0


def test_witness_deterministic(scan31, witness31):
    again = probe.interpolate_cremona_inverse(scan31)
    assert again.report == witness31.report
    assert again.cubics == witness31.cubics
    assert again.factor == witness31.factor


def test_witness_on_second_prime(scan61):
    witness = probe.interpolate_cremona_inverse(scan61)
    assert witness.report["passed"]
    assert witness.solution_dimension == 1
    assert len(witness.factor) == 26


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
