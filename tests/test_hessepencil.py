"""Pencil identities, the Hessian group law against the two-chord oracle,
torsion arithmetic, 6-secants."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from math import prod
from pathlib import Path

import numpy as np
import pytest

from pentangle.hessepencil import (
    RECORDED_TRIANGLE_LAMBDAS,
    SINGULAR_LAMBDAS,
    WITNESS_PRIMES,
    PlaneCubic,
    find_torsion_witness,
    group_generators,
    group_structure,
    hesse_polynomial,
    infinity_member_polynomial,
    triangle_product,
    verify_fermat_identities,
    verify_intersection_arithmetic,
    verify_six_secant_criterion,
    verify_translation_action,
    verify_triangle_members,
    _character_representatives,
    _curve_maps,
    _cyclic_span,
    _fp_add,
    _fp_cubic,
    _fp_enumerate_hesse,
    _fp_neg,
    _fp_origin,
    _fp_scalar,
    _fp_singular_lambda_scan,
    _hessian_law,
    _is_origin,
    _keys,
    _lambda_histogram,
    _least_multiples,
    _member_points,
    _multiplication_maps,
    _orbit_classes,
    _orders,
    _point_orders,
    _sorted_member,
    _two_torsion_counts,
)
from pentangle import hessepencil
from pentangle.multipoly import MultiPoly
from pentangle.scalars import (DEFAULT_PRIMES, EPS3, Cyclo, Fp, _normalize_mod_p,
                               _prime_factors, hasse_admits)

from oracles import (add_by_two_chords, complement_steps, cross, gradient,
                     tangent_companions, third_points)

SEED = 20260824
ROOT = Path(__file__).resolve().parent.parent


def character_representative(a: int, b: int) -> MultiPoly:
    """Computed degree-3 eigenpolynomial for the nontrivial character (a,b)."""
    key = (a % 3, b % 3)
    if key == (0, 0):
        raise ValueError("the trivial character has a 2-dimensional block")
    return _character_representatives()[key]


@pytest.fixture(scope="module")
def curve31():
    return PlaneCubic.hesse_member(1, Fp(1, 31))


@pytest.fixture(scope="module")
def witness_search():
    return find_torsion_witness()


@pytest.fixture(scope="module")
def witness(witness_search):
    w = witness_search["witness"]
    assert w is not None
    return PlaneCubic.hesse_member(w["lam"], Fp(1, w["p"]))


def _is_smooth(lam: int, p: int) -> bool:
    """Whether the member at lam is smooth over F_p: lam^3 != -27."""
    return (lam ** 3 + 27) % p != 0


def _torsion(curve: PlaneCubic, n: int) -> np.ndarray:
    """The rows P of the member's points with n * P at the origin."""
    lam, p = curve.fp_params()
    pts = curve.point_array()
    return pts[_is_origin(_fp_scalar(lam, p, n, pts), p)]


def _oracle_multiple(lam: int, p: int, k: int, rows: np.ndarray) -> np.ndarray:
    """k * P for every row P, k >= 0, by double-and-add through the
    two-chord oracle."""
    acc = np.tile(_fp_origin(p), (len(rows), 1))
    while k:
        if k & 1:
            acc = add_by_two_chords(lam, p, acc, rows)
        rows = add_by_two_chords(lam, p, rows, rows)
        k >>= 1
    return acc


# -- symbolic pencil facts ---------------------------------------------


def test_fermat_identities_all_pass():
    report = verify_fermat_identities()
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])


def test_fermat_identities_note_the_transcription_defect():
    report = verify_fermat_identities()
    noted = [c for c in report["checks"] if "stray fourth variable" in c["detail"]]
    assert len(noted) == 1
    assert "(1, 2)" in noted[0]["name"]


def test_first_identity_oracle():
    # x0^3 + (eta*x1)^3 + (eta^2*x2)^3 with eta^3 a primitive cube root
    x0, x1, x2 = MultiPoly.gens(("x0", "x1", "x2"), Cyclo(1))
    expected = x0 ** 3 + x1 ** 3 * EPS3 + x2 ** 3 * EPS3 ** 2
    assert character_representative(1, 0) == expected


def test_character_representative_is_not_shared():
    x0, x1, x2 = MultiPoly.gens(("x0", "x1", "x2"), Cyclo(1))
    first = character_representative(1, 0)
    first.terms.clear()
    assert character_representative(1, 0) == (x0 ** 3 + x1 ** 3 * EPS3
                                              + x2 ** 3 * EPS3 ** 2)


def test_character_representative_rejects_trivial():
    with pytest.raises(ValueError):
        character_representative(0, 0)
    with pytest.raises(ValueError):
        character_representative(3, 3)


def test_triangle_members_report():
    report = verify_triangle_members()
    assert report["passed"]
    assert report["mismatched_slots"] == ["(1, 1)", "(1, 2)"]
    disc = report["discovered_pairing"]
    assert disc["(0, 1)"] == "infinity"
    assert disc["(1, 0)"] == str(Cyclo(-3))
    assert disc["(1, 1)"] == str(Cyclo(-3) * EPS3)
    assert disc["(1, 2)"] == str(Cyclo(-3) * EPS3 ** 2)
    # the recorded listing pairs those two slots the other way around
    assert str(RECORDED_TRIANGLE_LAMBDAS[(1, 1)]) == disc["(1, 2)"]
    assert str(RECORDED_TRIANGLE_LAMBDAS[(1, 2)]) == disc["(1, 1)"]


def test_triangle_products_are_pencil_members():
    one = Cyclo(1)
    assert triangle_product((0, 1)) == infinity_member_polynomial(one)
    assert triangle_product((1, 0)) == hesse_polynomial(Cyclo(-3), one)


def _singular_points(curve):
    """Every point of the charts of P^2(F_p) where the three partials of
    the curve vanish: a full scan in plain ints, from its coefficients."""
    p = curve.one.p
    terms = [(mono, coeff.v) for mono, coeff in curve.f.term_items()]

    def partial(k, pt):
        return sum(c * mono[k] * prod(x ** (e - (i == k))
                                      for i, (x, e) in enumerate(zip(pt, mono)))
                   for mono, c in terms if mono[k]) % p

    charts = ([(1, y, z) for y in range(p) for z in range(p)]
              + [(0, 1, z) for z in range(p)] + [(0, 0, 1)])
    return [pt for pt in charts if not any(partial(k, pt) for k in range(3))]


@pytest.mark.parametrize("p", hessepencil.SINGULAR_SCAN_PRIMES)
def test_singular_point_search_stops_at_the_first(p):
    # the infinity member x0*x1*x2 is singular exactly at the coordinate
    # vertices, and the lambda = 0 member is smooth
    infinity = PlaneCubic.infinity_member(Fp(1, p))
    assert _singular_points(infinity) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hessepencil._fp_singular_point(infinity) == (1, 0, 0)
    fermat = PlaneCubic.hesse_member(0, Fp(1, p))
    assert _singular_points(fermat) == []
    assert hessepencil._fp_singular_point(fermat) is None


def test_singular_lambda_scan_matches_cube_roots(curve31):
    # 29 = 2 mod 3, where -27 has the single cube root -3
    for p in (29, 31, 61):
        expected = [lam for lam in range(p) if (lam ** 3 + 27) % p == 0]
        found = _fp_singular_lambda_scan(p)
        assert found.tolist() == expected
        # the same grid through np.unique gives the same sorted values
        inv = np.array([pow(v, p - 2, p) for v in range(1, p)], dtype=np.int64)
        grid = (-3 * inv[:, None] * inv[None, :]) % p
        y = np.arange(1, p, dtype=np.int64)[:, None]
        z = y.T
        cond = (((3 * y * y + grid * z) % p == 0)
                & ((3 * z * z + grid * y) % p == 0))
        assert np.array_equal(found, np.unique(grid[cond]))


# -- curves and points -------------------------------------------------


def test_point_must_satisfy_cubic():
    # group_generators checks its rows on the member before it returns
    # them: a generator row moved off the member after the point orders
    # were built raises
    curve = PlaneCubic.hesse_member(1, Fp(1, 31))
    gens = group_generators(curve)
    assert len(gens) == 2
    lam, p = curve.fp_params()
    assert not _fp_cubic(lam, p, np.array(gens)).any()
    pts = curve.point_array().copy()
    first = np.nonzero((pts == gens[0]).all(axis=1))[0][0]
    pts[first] = (1, 1, 1)          # 3 + lam != 0: not on the member
    curve._points = pts
    with pytest.raises(ArithmeticError, match="not on the member"):
        group_generators(curve)


def test_enumeration_is_sorted_and_on_curve(curve31):
    lam, p = curve31.fp_params()
    pts = curve31.point_array()
    rows = [tuple(row) for row in pts.tolist()]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    assert not _fp_cubic(lam, p, pts).any()


def test_hasse_bound(curve31):
    for lam in (0, 1, 2, 5):
        for p in (31, 61):
            if _is_smooth(lam, p):
                member = PlaneCubic.hesse_member(lam, Fp(1, p))
                assert hasse_admits(p, len(member.point_array()))
    assert not hasse_admits(31, 50)


# -- group law ---------------------------------------------------------


def test_identity_law(curve31):
    lam, p = curve31.fp_params()
    pts = curve31.point_array()
    origin = np.tile(_fp_origin(p), (len(pts), 1))
    assert np.array_equal(_fp_add(lam, p, pts, origin), pts)
    assert np.array_equal(_fp_add(lam, p, origin, pts), pts)


def test_group_axioms_500_triples(curve31):
    lam, p = curve31.fp_params()
    pts = curve31.point_array()
    rng = random.Random(SEED)
    a, b, c = (pts[[rng.randrange(len(pts)) for _ in range(500)]] for _ in range(3))
    ab = _fp_add(lam, p, a, b)
    assert np.array_equal(ab, _fp_add(lam, p, b, a))
    assert np.array_equal(_fp_add(lam, p, ab, c),
                          _fp_add(lam, p, a, _fp_add(lam, p, b, c)))
    assert _is_origin(_fp_add(lam, p, pts, _fp_neg(pts, p)), p).all()


def test_negation_closed_form_matches_chord_route():
    # the coordinate swap x1 <-> x2 is -P, the third point of the line
    # through P and the origin, on every smooth member at 31
    p = 31
    for lam in range(p):
        if _is_smooth(lam, p):
            pts = _fp_enumerate_hesse(lam, p)
            assert np.array_equal(_fp_neg(pts, p),
                                  third_points(lam, p, pts, _fp_origin(p)))


def test_scalar_multiple_refuses_a_singular_member():
    # lam = 28 = -3 at 31: the member is singular at (1, 1, 1), where
    # both addition laws vanish on the doubling
    lam, p = 28, 31
    assert not _is_smooth(lam, p)
    node = np.ones((1, 3), dtype=np.int64)
    with pytest.raises(ArithmeticError, match="both addition laws vanish"):
        _fp_scalar(lam, p, 2, node)


def test_scalar_multiple_distributes(curve31):
    lam, p = curve31.fp_params()
    pts = curve31.point_array()
    assert np.array_equal(_fp_scalar(lam, p, 5, pts),
                          _fp_add(lam, p, _fp_scalar(lam, p, 3, pts),
                                  _fp_scalar(lam, p, 2, pts)))
    assert np.array_equal(_fp_scalar(lam, p, -2, pts),
                          _fp_neg(_fp_scalar(lam, p, 2, pts), p))


# -- the batched fast route --------------------------------------------


def _mixed_pairs(pts: list, p: int, rng: random.Random, count: int) -> tuple:
    """Rows (a, b) mixing chords, doublings, inverse pairs and the origin,
    so the per-row doubling mask meets every case in one batch."""
    left, right = [], []
    for i in range(count):
        a = rng.choice(pts)
        b = (rng.choice(pts), a, _normalize_mod_p((a[0], a[2], a[1]), p),
             (0, 1, p - 1))[i % 4]
        left.append(a)
        right.append(b)
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


@pytest.mark.parametrize("p, lam", [(31, 1), (1801, 17)])
def test_batched_law_matches_size_one_calls(p, lam):
    rng = random.Random(SEED)
    pts = _fp_enumerate_hesse(lam, p).tolist()
    left, right = _mixed_pairs(pts, p, rng, 80)
    total = _fp_add(lam, p, left, right)
    for i in range(len(left)):
        assert total[i].tolist() == _fp_add(lam, p, left[[i]], right[[i]])[0].tolist()
    for k in (-3, 0, 1, 2, 3, 5, 7, 12, 36, 360, 600, 900):
        batch = _fp_scalar(lam, p, k, left)
        for i in range(len(left)):
            assert batch[i].tolist() == _fp_scalar(lam, p, k, left[[i]])[0].tolist()


def test_batched_law_int64_bound_at_largest_witness_prime():
    # products of four residues and the cubic's values reach about
    # p**4 = 6.1*10**13 at p = 2791
    p = WITNESS_PRIMES[-1]
    lam = p - 2
    assert _is_smooth(lam, p)
    curve = PlaneCubic.hesse_member(lam, Fp(1, p))
    rng = random.Random(SEED)
    left, right = _mixed_pairs(curve.point_array().tolist(), p, rng, 24)
    assert np.array_equal(_fp_add(lam, p, left, right),
                          add_by_two_chords(lam, p, left, right))
    for k in (2, 5, 77):
        assert np.array_equal(_fp_scalar(lam, p, k, left[:8]),
                              _oracle_multiple(lam, p, k, left[:8]))
    # the points whose smallest coordinate is largest, paired every way:
    # both laws and the cubic in Python ints stay under the docstring's
    # bound p**4 + 3*p**3, and the int64 rows agree with them mod p
    arr = curve.point_array()
    big = arr[np.argsort(arr.min(axis=1))[-12:]]
    a, b = _all_pairs(big)
    bound = p ** 4 + 3 * p ** 3
    assert bound < 2 ** 63 and 55_000 ** 4 + 3 * 55_000 ** 3 < 2 ** 63
    for rotated in (False, True):
        law = _hessian_law(a, b, p, rotated).tolist()
        for (x1, y1, z1), (x2, y2, z2), row in zip(a.tolist(), b.tolist(), law):
            if rotated:
                x1, y1, z1, x2, y2, z2 = y1, z1, x1, z2, x2, y2
            exact = (x1 * x1 * y2 * z2 - x2 * x2 * y1 * z1,
                     z1 * z1 * x2 * y2 - z2 * z2 * x1 * y1,
                     y1 * y1 * x2 * z2 - y2 * y2 * x1 * z1)
            assert max(map(abs, exact)) < bound
            assert row == [c % p for c in exact]
    corner = np.full((1, 3), p - 1)
    assert 3 * (p - 1) ** 3 + (p - 1) ** 4 < bound   # lam, x, y, z all p - 1
    assert _fp_cubic(p - 1, p, corner)[0] == ((p - 1) ** 3 * (p + 2)) % p


def test_batch_with_one_off_curve_point_raises(curve31):
    lam, p = curve31.fp_params()
    pts = curve31.point_array()
    bad = pts.copy()
    bad[7] = (1, 1, 1)          # 3 + lam != 0: not on the member
    partners = np.roll(pts, 3, axis=0)
    _fp_add(lam, p, pts, partners)
    with pytest.raises(ArithmeticError, match="first point not on curve"):
        _fp_add(lam, p, bad, partners)
    with pytest.raises(ArithmeticError, match="second point not on curve"):
        _fp_add(lam, p, partners, bad)
    with pytest.raises(ArithmeticError, match="first point not on curve"):
        _fp_add(lam, p, bad, bad)           # a doubling
    with pytest.raises(ArithmeticError, match="first point not on curve"):
        _fp_scalar(lam, p, 2, bad)


def _member_with_two_torsion(p: int) -> tuple:
    """(lam, points) of the first smooth member at p with a nonzero
    rational 2-torsion point, (1, t, t)."""
    for lam in range(p):
        if (lam ** 3 + 27) % p:
            pts = _fp_enumerate_hesse(lam, p)
            if (pts[:, 1] == pts[:, 2]).any():
                return lam, pts
    raise AssertionError("no member with rational 2-torsion at %d" % p)


@pytest.mark.parametrize("p", (29, 31, 61, 1801, 2791))
def test_flex_negation_add_matches_two_chords(p):
    lam, pts = _member_with_two_torsion(p)
    rng = random.Random(SEED)
    left, right = _mixed_pairs(pts.tolist(), p, rng, 120)
    # nonzero 2-torsion rows doubled, added to random points and to the
    # origin
    two = pts[pts[:, 1] == pts[:, 2]]
    n = len(two)
    others = pts[[rng.randrange(len(pts)) for _ in range(n)]]
    left = np.concatenate([left, two, two, two])
    right = np.concatenate([right, two, others, np.tile(_fp_origin(p), (n, 1))])
    assert np.array_equal(_fp_add(lam, p, left, right),
                          add_by_two_chords(lam, p, left, right))
    # a batch of doublings only, the 2-torsion and the origin among them
    doubled = np.concatenate([left, _fp_origin(p)[None, :]])
    assert np.array_equal(_fp_add(lam, p, doubled, doubled),
                          add_by_two_chords(lam, p, doubled, doubled))
    assert _is_origin(_fp_add(lam, p, two, two), p).all()


def test_add_rejects_an_off_curve_sum(curve31, monkeypatch):
    lam, p = curve31.fp_params()
    pts = curve31.point_array()
    law = hessepencil._hessian_law

    def one_row_off_curve(a, b, p, rotated=False):
        # the whole batch, not the few rows the rotated law mends
        total = law(a, b, p, rotated)
        if len(total) == len(pts):
            total[5] = (1, 1, 1)        # 3 + lam != 0: not on the member
        return total

    monkeypatch.setattr(hessepencil, "_hessian_law", one_row_off_curve)
    with pytest.raises(ArithmeticError, match="sum not on curve"):
        _fp_add(lam, p, pts, np.roll(pts, 3, axis=0))
    with pytest.raises(ArithmeticError, match="sum not on curve"):
        _fp_add(lam, p, pts, pts)


def _all_pairs(pts: np.ndarray) -> tuple:
    """Every ordered pair of rows, as two stacks."""
    n = len(pts)
    return np.repeat(pts, n, axis=0), np.tile(pts, (n, 1))


def test_law_matches_generic_route_on_every_pair_at_31():
    # every ordered pair on every smooth member at 31: the two laws are
    # never both zero, agree where both are not, and the sum is the
    # two-chord oracle's, the generic chord-tangent route
    p = 31
    for lam in range(p):
        if not _is_smooth(lam, p):
            continue
        a, b = _all_pairs(_fp_enumerate_hesse(lam, p))
        standard = _hessian_law(a, b, p)
        rotated = _hessian_law(a, b, p, rotated=True)
        assert (standard.any(axis=1) | rotated.any(axis=1)).all()
        assert not cross(standard, rotated, p).any()
        assert np.array_equal(_fp_add(lam, p, a, b), add_by_two_chords(lam, p, a, b))


def test_law_matches_generic_route_on_sampled_pairs_at_61():
    p = 61
    rng = random.Random(SEED)
    for lam in (0, 5, 17, 44):
        assert _is_smooth(lam, p)
        left, right = _mixed_pairs(_fp_enumerate_hesse(lam, p).tolist(), p, rng, 40)
        standard = _hessian_law(left, right, p)
        rotated = _hessian_law(left, right, p, rotated=True)
        assert (standard.any(axis=1) | rotated.any(axis=1)).all()
        assert np.array_equal(_fp_add(lam, p, left, right),
                              add_by_two_chords(lam, p, left, right))


@pytest.mark.parametrize("p", (29, 31, 61))
def test_law_raises_on_a_singular_member(p):
    # at lam = -3 the member is singular at (1, 1, 1), and for p = 1 mod 3
    # it splits into three lines, singular at (1, w, w^2) and (1, w^2, w)
    # too: both addition laws vanish exactly on the pairs of singular
    # points, and each such pair raises, as a doubling too
    lam = p - 3
    pts = np.array(_chart_scan(lam, p), dtype=np.int64)
    nodes = pts[~gradient(lam, p, pts).any(axis=1)]
    assert len(nodes) == (3 if p % 3 == 1 else 1)
    a, b = _all_pairs(pts)
    both = ~(_hessian_law(a, b, p).any(axis=1)
             | _hessian_law(a, b, p, rotated=True).any(axis=1))
    node_pairs = _all_pairs(nodes)
    assert sorted(map(tuple, np.hstack([a[both], b[both]]).tolist())) == sorted(
        map(tuple, np.hstack(node_pairs).tolist()))
    for x, y in zip(*node_pairs):
        with pytest.raises(ArithmeticError, match="both addition laws vanish"):
            _fp_add(lam, p, x[None, :], y[None, :])
    for node in nodes:
        node = node[None, :]
        with pytest.raises(ArithmeticError, match="both addition laws vanish"):
            _fp_add(lam, p, node, node)


@pytest.mark.parametrize("p", (31, 1801, 2791))
def test_tangent_companions_span_the_tangent_lines(p):
    # the two-chord oracle's tangent lines: at every point the companion
    # is nonzero, on the tangent line, and not the point
    lam, pts = _member_with_two_torsion(p)
    companion = tangent_companions(lam, p, pts)
    assert companion.any(axis=1).all()
    assert ((companion * gradient(lam, p, pts)).sum(axis=1) % p == 0).all()
    assert cross(companion, pts, p).any(axis=1).all()
    # (1, 1, 1) is the singular point of the member at lam = -3
    with pytest.raises(ArithmeticError, match="singular"):
        tangent_companions(p - 3, p, np.ones((1, 3), dtype=np.int64))


def test_every_doubling_matches_generic_route(curve31):
    lam, p = curve31.fp_params()
    pts = curve31.point_array()
    assert np.array_equal(_fp_add(lam, p, pts, pts), add_by_two_chords(lam, p, pts, pts))


def _chart_scan(lam: int, p: int) -> list:
    """Test oracle: every normalised triple on the member, by brute force
    over the charts x0 = 1 and (0, 1, z) (no point has x0 = x1 = 0)."""
    ar = np.arange(p, dtype=np.int64)
    y, z = ar[:, None], ar[None, :]
    vals = (1 + y ** 3 + z ** 3 + lam * y * z) % p
    pts = [(1, int(a), int(b)) for a, b in zip(*np.nonzero(vals == 0))]
    pts += [(0, 1, int(c)) for c in ar if (1 + c ** 3) % p == 0]
    return sorted(pts)


@pytest.mark.parametrize("p, lams", [(29, (0, 1, 2, 26)), (61, (0, 1, 5, 44)),
                                     (1801, (17, 100))])
def test_enumeration_matches_chart_scan(p, lams):
    # 29 = 2 mod 3 has one cube root of -1; the others have three.  The
    # lambdas include singular members (26 at p = 29, lam^3 = -27).
    members = _member_points(p, lams)
    for lam in lams:
        expected = _chart_scan(lam, p)
        assert [tuple(r) for r in _fp_enumerate_hesse(lam, p).tolist()] == expected
        assert sorted(map(tuple, members[lam].tolist())) == expected


@pytest.mark.parametrize("chunk", (hessepencil._CHUNK, 64, 7))
@pytest.mark.parametrize("p", (7, 13, 29, 31, 61))
def test_lambda_histogram_matches_chart_scan(p, chunk, monkeypatch):
    # every lam, with 29 = 2 mod 3 (one sheet) among the primes; a chunk
    # of 64 rows takes each grid in one slab, and a chunk of 7 rows gives
    # several slabs (at 7 and 13 a slab is 2 and 4 classes wide), a ragged
    # last one, and off-diagonal rectangles whose entries count twice
    monkeypatch.setattr(hessepencil, "_CHUNK", chunk)
    expected = [sum(1 for x, y, z in _chart_scan(lam, p) if x and y and z)
                for lam in range(p)]
    assert hessepencil._lambda_histogram(p).tolist() == expected
    members = _member_points(p, range(p))
    assert all(sorted(map(tuple, members[lam].tolist())) == _chart_scan(lam, p)
               for lam in range(p))


def _full_grid_histogram(p: int) -> np.ndarray:
    """Test oracle: hist[lam] over every (y, z) of (F_p^*)^2, 256 rows of
    the grid at a time, with no symmetry used."""
    ar = np.arange(1, p, dtype=np.int64)
    inv = np.array([pow(v, p - 2, p) for v in range(1, p)], dtype=np.int64)
    hist = np.zeros(p, dtype=np.int64)
    for start in range(0, p - 1, 256):
        y = ar[start:start + 256, None]
        lam = (-(1 + y ** 3 + ar[None, :] ** 3) % p
               * inv[start:start + 256, None] % p * inv[None, :] % p)
        hist += np.bincount(lam.ravel(), minlength=p)
    return hist


@pytest.mark.parametrize("p", (1741, 1801))
def test_orbit_histogram_matches_full_grid(p):
    assert np.array_equal(_lambda_histogram(p), _full_grid_histogram(p))


@pytest.mark.parametrize("p", (7, 13, 29, 31, 1741, 2791))
def test_orbit_classes_split_the_units(p):
    w, r = _orbit_classes(p)
    d = len(w)
    assert d == (3 if p % 3 == 1 else 1)
    # the d distinct cube roots of unity, 1 first
    assert w[0] == 1 and len(set(w)) == d
    assert all(pow(ws, 3, p) == 1 for ws in w)
    assert len(r) == (p - 1) // d and r[0] == 1
    # y and y' share a class modulo the cube roots of unity exactly when
    # y^d = y'^d, so the d-th powers of r are distinct
    assert len(set((r ** d % p).tolist())) == len(r)


def test_six_secant_criterion_peak_memory_growth():
    """The witness search and the criterion raise the peak resident set
    by under 8 MB over its value after import.  The child reads its peak
    from VmHWM, which exec resets: ru_maxrss keeps the high-water mark of
    the spawning pytest process across exec on Linux."""
    script = (
        "from pentangle import hessepencil\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status\n"
        "                    if line.startswith('VmHWM:'))\n"
        "before = peak_kb()\n"
        "assert hessepencil.verify_six_secant_criterion()['passed']\n"
        "print(peak_kb() - before)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 8 * 1024


def test_witness_search_traced_peak():
    """A second witness search in one process, its inverse tables built,
    allocates under 1.2 MB at its tracemalloc peak: each candidate
    member's points are doubled on their own."""
    find_torsion_witness()
    tracemalloc.start()
    try:
        find_torsion_witness()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2 ** 20


# -- torsion and structure ---------------------------------------------


def test_torsion_point_counts(curve31):
    p = curve31.fp_params()[1]
    assert _torsion(curve31, 1).tolist() == [_fp_origin(p).tolist()]
    assert len(_torsion(curve31, 3)) == 9
    for n in (1, 2, 3, 4, 5, 6):
        count = len(_torsion(curve31, n))
        assert n * n % count == 0


def test_group_structure_frozen(curve31):
    st = group_structure(curve31)
    assert st["order"] == 36
    assert st["invariants"] == (3, 12)
    assert st["exponent"] == 12


def test_group_structure_is_not_shared():
    curve = PlaneCubic.hesse_member(1, Fp(1, 31))
    first = group_structure(curve)
    first["order"] = 0
    first["invariants"] = (1, 1)
    assert group_structure(curve) == {"order": 36, "exponent": 12,
                                      "invariants": (3, 12)}


def test_point_orders_are_read_only(curve31):
    orders = _point_orders(curve31)
    with pytest.raises(ValueError):
        orders[0] = 5
    assert _point_orders(curve31) is orders


def test_point_orders_are_exact(curve31):
    lam, p = curve31.fp_params()
    pts = curve31.point_array()
    orders = _point_orders(curve31)
    assert sorted(set(orders.tolist())) == [1, 2, 3, 4, 6, 12]
    for order in set(orders.tolist()):
        rows = pts[orders == order]
        assert _is_origin(_oracle_multiple(lam, p, order, rows), p).all()
        for q in (2, 3):
            if order % q == 0:
                assert not _is_origin(_oracle_multiple(lam, p, order // q, rows), p).any()


def _orders_by_prime(lam: int, p: int, pts: np.ndarray, group_order: int) -> np.ndarray:
    """Test oracle: per prime q, (group_order / q^e) * P by its own
    scalar multiple, then multiplied by q until group_order * P."""
    orders = np.ones(len(pts), dtype=np.int64)
    for q in _prime_factors(group_order):
        cofactor = group_order
        while cofactor % q == 0:
            cofactor //= q
        acc = _fp_scalar(lam, p, cofactor, pts)
        while cofactor * q <= group_order:
            orders[~_is_origin(acc, p)] *= q
            acc = _fp_scalar(lam, p, q, acc)
            cofactor *= q
    return orders


def test_product_tree_orders_match_per_prime_loop(witness):
    # every smooth member at 31 (orders 27 and 36: maps for one and two
    # primes), also against multiples 5n and 35n of its order n, which
    # any row's order divides too (maps for primes q not dividing n,
    # under which P -> q * P is a bijection), then the witness curve of
    # order 2^3 * 3^2 * 5^2
    p = 31
    cases = [(lam, p, pts, k * len(pts))
             for lam in range(p) if (lam ** 3 + 27) % p
             for pts in [_fp_enumerate_hesse(lam, p)] for k in (1, 5, 35)]
    lam, p = witness.fp_params()
    cases.append((lam, p, witness.point_array(), len(witness.point_array())))
    for lam, p, pts, n in cases:
        maps = _multiplication_maps(lam, p, pts, _prime_factors(n))
        assert np.array_equal(_orders(maps, pts, p, n), _orders_by_prime(lam, p, pts, n))


def test_multiplication_maps_need_every_image(curve31):
    # without the origin, the images of the points of order 2 and 3 are
    # not rows: the map builder raises instead of returning orders
    lam, p = curve31.fp_params()
    pts = curve31.point_array()
    rest = pts[~_is_origin(pts, p)]
    assert len(rest) == len(pts) - 1
    with pytest.raises(ArithmeticError, match="not among the points"):
        _multiplication_maps(lam, p, rest, [2, 3])
    # with 2 in place of the point count, which most rows' orders do not
    # divide, the orders raise instead of returning zeros
    with pytest.raises(ArithmeticError, match="is not the origin"):
        _orders(_multiplication_maps(lam, p, pts, [2]), pts, p, 2)
    maps = _multiplication_maps(lam, p, pts, [2, 3, 5])
    for q, image in maps.items():
        assert np.array_equal(pts[image], _fp_scalar(lam, p, q, pts))


def test_least_multiples_match_complement_steps(witness):
    # the least k dividing n1 with k * P in the order-n2 span, from the
    # multiplication maps, against adding P one step at a time; and the
    # generators built on it, for every smooth member at 31 and the
    # witness curve
    p = 31
    curves = [PlaneCubic.hesse_member(lam, Fp(1, p))
              for lam in range(p) if (lam ** 3 + 27) % p]
    tested = 0
    for curve in curves + [witness]:
        lam, p = curve.fp_params()
        pts = curve.point_array()
        n1, n2 = group_structure(curve)["invariants"]
        gen2 = pts[np.nonzero(_point_orders(curve) == n2)[0][:1]]
        if n1 == 1:
            assert group_generators(curve) == [gen2[0].tolist()]
            continue
        tested += 1
        cyclic = np.sort(_keys(_cyclic_span(lam, p, gen2, n2), p))
        maps = _multiplication_maps(lam, p, pts, _prime_factors(n1))
        k = _least_multiples(maps, n1, _sorted_member(_keys(pts, p), cyclic))
        steps = complement_steps(curve)
        assert np.array_equal(k, steps)
        first = np.nonzero(steps == n1)[0][0]
        assert group_generators(curve) == [pts[first].tolist(), gen2[0].tolist()]
    assert tested >= 2


def test_multiplication_maps_run_once_per_curve(monkeypatch, witness):
    # point orders, group structure and both generators share one build
    # of the maps, kept read-only on the curve; a fresh curve builds its own
    real = hessepencil._multiplication_maps
    primes = []
    monkeypatch.setattr(hessepencil, "_multiplication_maps",
                        lambda lam, p, pts, qs: primes.append(list(qs)) or real(lam, p, pts, qs))
    lam, p = witness.fp_params()
    curve = PlaneCubic.hesse_member(lam, Fp(1, p))
    gens = group_generators(curve)
    assert group_structure(curve)["invariants"] == (30, 60)
    assert len(gens) == 2 and len(_point_orders(curve)) == 1800
    assert group_generators(curve) == gens
    assert primes == [[2, 3, 5]]
    maps = _curve_maps(curve)
    with pytest.raises(TypeError):
        maps[7] = maps[2]
    with pytest.raises(ValueError):
        maps[2][0] = 0
    assert group_structure(PlaneCubic.hesse_member(1, Fp(1, 31)))["order"] == 36
    assert primes == [[2, 3, 5], [2, 3]]


def test_doubled_span_matches_sequential_span(curve31, witness):
    for curve in (curve31, witness):
        lam, p = curve.fp_params()
        n2 = group_structure(curve)["exponent"]
        gen = curve.point_array()[np.nonzero(_point_orders(curve) == n2)[0][:1]]
        sequential = [_fp_origin(p)[None, :]]
        for _ in range(n2 - 1):
            sequential.append(_fp_add(lam, p, sequential[-1], gen))
        sequential = np.concatenate(sequential)
        for n in sorted({1, 2, 3, 5, 8, n2 - 1, n2}):
            assert np.array_equal(_cyclic_span(lam, p, gen, n), sequential[:n])


def test_group_generators_span(curve31):
    # a * g0 + b * g1 for a < n1 and b < n2, by the two-chord oracle,
    # covers every point once
    lam, p = curve31.fp_params()
    g0, g1 = (np.array([g]) for g in group_generators(curve31))
    n1, n2 = group_structure(curve31)["invariants"]
    a = np.concatenate([_oracle_multiple(lam, p, k, g0) for k in range(n1)])
    b = np.concatenate([_oracle_multiple(lam, p, k, g1) for k in range(n2)])
    span = add_by_two_chords(lam, p, np.repeat(a, n2, axis=0), np.tile(b, (n1, 1)))
    assert sorted(map(tuple, span.tolist())) == sorted(map(tuple, curve31.point_array().tolist()))


def test_group_generators_stop_after_n1_steps(curve31, monkeypatch):
    # a membership test that never matches must fail the call, not hang it
    monkeypatch.setattr(hessepencil, "_sorted_member",
                        lambda keys, sorted_keys: np.zeros(len(keys), dtype=bool))
    with pytest.raises(AssertionError, match="3 steps left points outside"):
        group_generators(curve31)


def test_sorted_member_matches_isin():
    rng = np.random.default_rng(SEED)
    for size in (1, 2, 17):
        sorted_keys = np.unique(rng.integers(5, 60, size=size))
        # keys below, inside and above the range of sorted_keys
        keys = rng.integers(0, 70, size=200)
        assert np.array_equal(_sorted_member(keys, sorted_keys),
                              np.isin(keys, sorted_keys))


def test_base_points_have_a_zero_coordinate(curve31):
    # the 9 base points of the pencil, on the coordinate planes, are the
    # 3-torsion of the member
    pts = curve31.point_array()
    assert np.array_equal(_torsion(curve31, 3), pts[(pts == 0).any(axis=1)])


# -- diagonal set identities -------------------------------------------


def test_intersection_arithmetic_report():
    report = verify_intersection_arithmetic()
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    assert report["group"]["invariants"] == (3, 12)


def _diagonal_as_four_q(lam, p, pts):
    two = _fp_add(lam, p, pts, pts)
    three = _fp_add(lam, p, two, pts)
    return two, three, _fp_add(lam, p, three, pts)


def _five_q_as_four_q(lam, p, k, pts):
    return _fp_scalar(lam, p, 4 if k == 5 else k, pts)


@pytest.mark.parametrize("name, broken", [
    ("_fp_multiples_235", _diagonal_as_four_q),
    ("_fp_scalar", _five_q_as_four_q),
])
def test_diagonal_identity_compares_two_routes(name, broken, monkeypatch):
    """Breaking either route to 5q must fail the diagonal identities."""
    monkeypatch.setattr(hessepencil, name, broken)
    checks = {c["name"]: c["passed"]
              for c in verify_intersection_arithmetic()["checks"]}
    assert not checks["diagonal of 3r+2q = 0 is the 5-torsion"]
    assert not checks["diagonal of 3r+2q = -tau matches 5q = -tau for all 8 taus"]


def test_five_torsion_count_is_checked_against_the_group(monkeypatch):
    """The count of points with 5q = 0 is compared with gcd(5, n1) * gcd(5, n2)
    from the invariant factors, so a wrong 5q fails the check: here 4q,
    which vanishes on the 4 points of E[4] of the group (3, 12)."""
    monkeypatch.setattr(hessepencil, "_fp_scalar", _five_q_as_four_q)
    report = verify_intersection_arithmetic()
    checks = {c["name"]: c["passed"] for c in report["checks"]}
    assert report["group"]["invariants"] == (3, 12)
    assert not checks["5-torsion count matches the extracted subgroup"]


def test_translation_action_report():
    report = verify_translation_action()
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])


# -- torsion witness and the 6-secant criterion ------------------------


def test_default_primes_cannot_host_the_witness(monkeypatch):
    monkeypatch.setattr(hessepencil, "WITNESS_PRIMES", ())
    report = find_torsion_witness()
    assert report["witness"] is None
    assert len(report["trace"]) == 6
    for entry in report["trace"]:
        assert "point-count window" in entry["skipped"]


def test_witness_search_result_is_not_shared(monkeypatch):
    monkeypatch.setattr(hessepencil, "WITNESS_PRIMES", ())
    first = find_torsion_witness()
    first["witness"] = {"p": 0}
    first["trace"].clear()
    again = find_torsion_witness()
    assert again["witness"] is None
    assert [entry["p"] for entry in again["trace"]] == list(DEFAULT_PRIMES)


def test_witness_search_result_frozen(witness_search):
    report = witness_search
    assert report["witness"] == {"p": 1801, "lam": 17, "order": 1800}
    skipped = [e["p"] for e in report["trace"] if "skipped" in e]
    assert skipped == [31, 61, 151, 181, 211, 241, 1741]
    # the cap of 40 candidates stopped the search at 1741, not a failed
    # exhaustive count, and the trace says so
    capped = next(e for e in report["trace"] if e["p"] == 1741)
    assert len(capped["candidates"]) == 40
    assert capped["candidate_total"] == 90
    assert "cut short" in capped["skipped"]
    assert "40 of 90" in capped["skipped"]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


# SHA-256 of the sorted-key JSON of outputs the claims hash of
# test_acceptance does not cover: the full witness search result with
# every candidate's counts; the six-secant report with its generators,
# invariants, checks and search trace; the point orders of the witness
# curve, in the order of its sorted points
WITNESS_SEARCH_SHA256 = "558ed4493b06985bd697421887ed6c57ed4b59999170c887726f4b16cf8e0450"
SIX_SECANT_SHA256 = "db44e8039f04f423fd8f46fb08880067e836990a9d9facc388afdeb78d733656"
WITNESS_ORDERS_SHA256 = "dae54af6c28b29cdd8e15260e0f4fb00f48e96328b0dce182f6dbb710a81b74a"


def test_witness_outputs_are_frozen(witness_search, witness):
    digest = _digest(witness_search)
    assert digest == WITNESS_SEARCH_SHA256, "witness search hash is now " + digest
    digest = _digest(verify_six_secant_criterion())
    assert digest == SIX_SECANT_SHA256, "six-secant hash is now " + digest
    digest = _digest(_point_orders(witness).tolist())
    assert digest == WITNESS_ORDERS_SHA256, "witness orders hash is now " + digest


def test_six_secant_criterion_reuses_the_search_member(monkeypatch):
    # the criterion takes the witness's points and (2P, 4P) from the
    # search instead of enumerating and multiplying the member again
    search = find_torsion_witness()
    pts = search.member[0]
    assert not pts.flags.writeable
    w = search["witness"]
    assert np.array_equal(pts, _fp_enumerate_hesse(w["lam"], w["p"]))
    for k, multiple in zip((2, 4), search.member[1:]):
        assert np.array_equal(multiple, _fp_scalar(w["lam"], w["p"], k, pts))
    for name in ("_fp_enumerate_hesse", "_member_points", "_try_candidates",
                 "_fp_multiples_235"):
        monkeypatch.setattr(hessepencil, name, None)
    monkeypatch.setattr(hessepencil, "find_torsion_witness", lambda: search)
    assert verify_six_secant_criterion()["passed"]


@pytest.mark.parametrize("p", (31, 61, 1741))
def test_two_torsion_counts_match_one_lam_at_a_time(p):
    lams = list(range(0, p, max(1, p // 40)))
    expected = [1 + sum(1 for x in range(p) if (x ** 3 + lam * x + 2) % p == 0)
                for lam in lams]
    assert _two_torsion_counts(p, lams).tolist() == expected
    if p < 100:
        # the rational 2-torsion of every smooth member, from its points
        for lam, count in zip(lams, expected):
            if _is_smooth(lam, p):
                assert len(_torsion(PlaneCubic.hesse_member(lam, Fp(1, p)), 2)) == count


def test_witness_primes_satisfy_necessary_congruences():
    for p in WITNESS_PRIMES:
        assert (p - 1) % 30 == 0
        assert p + 1 + 2 * int(p ** 0.5) >= 900


def test_witness_curve_structure(witness):
    st = group_structure(witness)
    assert st["order"] == 1800
    assert st["invariants"] == (30, 60)
    assert len(_torsion(witness, 2)) == 4
    assert len(_torsion(witness, 3)) == 9
    assert len(_torsion(witness, 5)) == 25


def test_witness_two_torsion_shape(witness):
    p = witness.fp_params()[1]
    two = _torsion(witness, 2)
    two = two[~_is_origin(two, p)]
    assert len(two) == 3
    # nonzero 2-torsion is fixed by the coordinate swap: x1 = x2
    assert np.array_equal(_fp_neg(two, p), two)
    assert (two[:, 1] == two[:, 2]).all()


def test_six_secant_criterion_report():
    report = verify_six_secant_criterion()
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    assert report["witness"]["p"] == 1801
    assert report["witness"]["invariants"] == [30, 60]
    names = [c["name"] for c in report["checks"]]
    assert any("25 x 8" in n for n in names)
    assert any("exactly 25 solutions" in n for n in names)


def test_six_secant_reports_failure_without_witness(monkeypatch):
    monkeypatch.setattr(hessepencil, "WITNESS_PRIMES", ())
    report = verify_six_secant_criterion()
    assert not report["passed"]
    assert report["witness"] is None
