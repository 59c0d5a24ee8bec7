"""Pencil identities, chord-tangent law, torsion arithmetic, 6-secants."""

from __future__ import annotations

import random

import pytest

from pentangle.hessepencil import (
    RECORDED_TRIANGLE_LAMBDAS,
    SINGULAR_LAMBDAS,
    WITNESS_PRIMES,
    CubicCurvePoint,
    PlaneCubic,
    add_points,
    add_points_generic,
    base_points,
    character_representative,
    find_torsion_witness,
    group_generators,
    group_structure,
    hasse_admits,
    hesse_polynomial,
    infinity_member_polynomial,
    negate_point,
    negate_point_via_chord,
    scalar_multiple,
    torsion_points,
    triangle_product,
    verify_fermat_identities,
    verify_intersection_arithmetic,
    verify_six_secant_criterion,
    verify_translation_action,
    verify_triangle_members,
    _fp_singular_lambda_scan,
)
from pentangle.multipoly import MultiPoly
from pentangle.scalars import EPS3, Cyclo, Fp, find_root_of_unity

SEED = 20260824


@pytest.fixture(scope="module")
def curve31():
    return PlaneCubic.hesse_member(1, Fp(1, 31))


@pytest.fixture(scope="module")
def witness():
    report = find_torsion_witness()
    assert report["witness"] is not None
    w = report["witness"]
    return PlaneCubic.hesse_member(w["lam"], Fp(1, w["p"]))


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


def test_singular_lambda_scan_matches_cube_roots(curve31):
    p = 31
    w = find_root_of_unity(p, 3).v
    expected = sorted({(-3) % p, (-3 * w) % p, (-3 * w * w) % p})
    assert sorted(int(v) for v in _fp_singular_lambda_scan(p)) == expected
    # closed-form smoothness agrees with the scan for every lambda
    for lam in range(p):
        member = PlaneCubic.hesse_member(lam, Fp(1, p))
        assert member.is_smooth() == (lam not in expected)


def test_smoothness_closed_form_exact_field():
    one = Cyclo(1)
    assert PlaneCubic.hesse_member(0, one).is_smooth()
    assert not PlaneCubic.hesse_member(Cyclo(-3), one).is_smooth()
    assert not PlaneCubic.hesse_member(Cyclo(-3) * EPS3, one).is_smooth()
    assert not PlaneCubic.infinity_member(one).is_smooth()


# -- curve and point types ---------------------------------------------


def test_origin_must_lie_on_curve():
    one = Cyclo(1)
    with pytest.raises(ValueError):
        PlaneCubic(hesse_polynomial(0, one), (1, 1, 1))


def test_point_must_satisfy_cubic(curve31):
    with pytest.raises(ValueError):
        CubicCurvePoint(curve31, (1, 1, 1))
    pt = CubicCurvePoint(curve31, (0, 2, -2))
    assert pt.coords == curve31.origin


def test_enumeration_is_sorted_and_on_curve(curve31):
    pts = curve31.int_points()
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)
    for pt in pts:
        CubicCurvePoint(curve31, pt)


def test_hasse_bound(curve31):
    for lam in (0, 1, 2, 5):
        for p in (31, 61):
            member = PlaneCubic.hesse_member(lam, Fp(1, p))
            if member.is_smooth():
                assert hasse_admits(p, len(member.int_points()))
    assert not hasse_admits(31, 50)


# -- group law ---------------------------------------------------------


def test_identity_law(curve31):
    rng = random.Random(SEED)
    origin = curve31.point(curve31.origin)
    pts = curve31.points()
    for _ in range(100):
        p = rng.choice(pts)
        assert add_points(p, origin) == p
        assert add_points(origin, p) == p


def test_group_axioms_500_triples(curve31):
    rng = random.Random(SEED)
    pts = curve31.points()
    origin = curve31.point(curve31.origin)
    for _ in range(500):
        a, b, c = (rng.choice(pts) for _ in range(3))
        assert add_points(a, b) == add_points(b, a)
        assert add_points(add_points(a, b), c) == add_points(a, add_points(b, c))
    for p in pts:
        assert add_points(p, negate_point(p)) == origin


def test_negation_closed_form_matches_chord_route(curve31):
    for p in curve31.points():
        assert negate_point(p) == negate_point_via_chord(p)


def test_fast_route_matches_generic_route(curve31):
    rng = random.Random(SEED)
    pts = curve31.points()
    for _ in range(60):
        a, b = rng.choice(pts), rng.choice(pts)
        assert add_points(a, b) == add_points_generic(a, b)


def test_addition_rejects_cross_curve_points(curve31):
    other = PlaneCubic.hesse_member(2, Fp(1, 31))
    with pytest.raises(ValueError):
        add_points(curve31.points()[0], other.points()[0])


def test_addition_rejects_singular_curve():
    p = 31
    w = find_root_of_unity(p, 3).v
    lam = (-3 * w) % p
    member = PlaneCubic.hesse_member(lam, Fp(1, p))
    pt = member.point(member.origin)
    with pytest.raises(ValueError):
        add_points(pt, pt)


def test_exact_field_base_points_are_3_torsion():
    one = Cyclo(1)
    fermat = PlaneCubic.hesse_member(0, one)
    origin = fermat.point(fermat.origin)
    w, w2 = EPS3, EPS3 ** 2
    pts = [(0, 1, -1), (0, 1, -w), (0, 1, -w2),
           (1, 0, -1), (1, 0, -w), (1, 0, -w2),
           (1, -1, 0), (1, -w, 0), (1, -w2, 0)]
    for coords in pts:
        pt = fermat.point(coords)
        assert scalar_multiple(3, pt) == origin
        assert scalar_multiple(2, pt) == negate_point(pt)


def test_exact_field_inflection_tangent_triple_contact():
    # the tangent at the origin meets the curve three times there, so
    # the full-division route must return the origin itself
    one = Cyclo(1)
    fermat = PlaneCubic.hesse_member(0, one)
    origin = fermat.point(fermat.origin)
    assert negate_point_via_chord(origin) == origin
    assert add_points_generic(origin, origin) == origin


def test_scalar_multiple_distributes(curve31):
    rng = random.Random(SEED)
    pts = curve31.points()
    for _ in range(30):
        p = rng.choice(pts)
        assert scalar_multiple(5, p) == add_points(
            scalar_multiple(3, p), scalar_multiple(2, p))
        assert scalar_multiple(-2, p) == negate_point(scalar_multiple(2, p))


# -- torsion and structure ---------------------------------------------


def test_torsion_point_counts(curve31):
    origin = curve31.point(curve31.origin)
    assert torsion_points(curve31, 1) == [origin]
    t3 = torsion_points(curve31, 3)
    assert len(t3) == 9
    assert set(t3) == set(base_points(curve31))
    for n in (1, 2, 3, 4, 5, 6):
        count = len(torsion_points(curve31, n))
        assert n * n % count == 0


def test_group_structure_frozen(curve31):
    st = group_structure(curve31)
    assert st["order"] == 36
    assert st["invariants"] == (3, 12)
    assert st["exponent"] == 12


def test_group_generators_span(curve31):
    gens = group_generators(curve31)
    n1, n2 = group_structure(curve31)["invariants"]
    assert len(gens) == 2
    span = set()
    for a in range(n1):
        for b in range(n2):
            span.add(add_points(scalar_multiple(a, gens[0]),
                                scalar_multiple(b, gens[1])))
    assert len(span) == 36


def test_base_points_have_a_zero_coordinate(curve31):
    for pt in base_points(curve31):
        assert 0 in pt.int_coords()


def test_torsion_rejects_bad_input(curve31):
    with pytest.raises(ValueError):
        torsion_points(curve31, 0)
    singular = PlaneCubic.hesse_member((-3) % 31, Fp(1, 31))
    with pytest.raises(ValueError):
        torsion_points(singular, 2)


# -- diagonal set identities -------------------------------------------


def test_intersection_arithmetic_report():
    report = verify_intersection_arithmetic()
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    assert report["group"]["invariants"] == (3, 12)


def test_translation_action_report():
    report = verify_translation_action()
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])


# -- torsion witness and the 6-secant criterion ------------------------


def test_default_primes_cannot_host_the_witness():
    report = find_torsion_witness(primes=(31, 61, 151, 181, 211, 241))
    assert report["witness"] is None
    assert len(report["trace"]) == 6
    for entry in report["trace"]:
        assert "point-count window" in entry["skipped"]


def test_witness_search_result_frozen():
    report = find_torsion_witness()
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


def test_witness_primes_satisfy_necessary_congruences():
    for p in WITNESS_PRIMES:
        assert (p - 1) % 30 == 0
        assert p + 1 + 2 * int(p ** 0.5) >= 900


def test_witness_curve_structure(witness):
    st = group_structure(witness)
    assert st["order"] == 1800
    assert st["invariants"] == (30, 60)
    assert len(torsion_points(witness, 2)) == 4
    assert len(torsion_points(witness, 3)) == 9
    assert len(torsion_points(witness, 5)) == 25


def test_witness_two_torsion_shape(witness):
    origin = witness.point(witness.origin)
    for pt in torsion_points(witness, 2):
        if pt == origin:
            continue
        # nonzero 2-torsion is fixed by the coordinate swap
        assert negate_point(pt) == pt
        x0, x1, x2 = pt.coords
        assert x1 == x2


def test_six_secant_criterion_report():
    report = verify_six_secant_criterion()
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    assert report["witness"]["p"] == 1801
    assert report["witness"]["invariants"] == [30, 60]
    names = [c["name"] for c in report["checks"]]
    assert any("25 x 8" in n for n in names)
    assert any("exactly 25 solutions" in n for n in names)


def test_six_secant_reports_failure_without_witness():
    report = verify_six_secant_criterion(primes=(31, 61))
    assert not report["passed"]
    assert report["witness"] is None
