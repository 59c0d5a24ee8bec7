"""Intersection-ledger tests.

Every frozen integer below was recomputed by hand from the entered tables
before being written down here, so the table file and the verification
routines are checked against an independent transcription.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pentangle import nslattice as ns

VECTOR = st.tuples(*[st.integers(min_value=-9, max_value=9)] * 3)


# ---------------------------------------------------------------------------
# table loading


def test_default_tables_sections():
    tables = ns.default_tables()
    assert set(tables) == {"chordal", "blowup", "scroll"}
    assert tables["chordal"] == ns.chordal_form()


def test_forms_are_not_shared():
    first = ns.chordal_form()
    first.table.clear()
    assert ns.chordal_form().product(0, 0, 0) == 5


def test_chordal_table_entries_frozen():
    form = ns.chordal_form()
    assert form.basis == ("hyperplane", "section", "ruling")
    h, s, r = 0, 1, 2
    assert form.product(h, h, h) == 5
    assert form.product(h, h, s) == 4
    assert form.product(h, h, r) == 3
    assert form.product(h, s, s) == 1
    assert form.product(h, s, r) == 1
    for key in ((h, r, r), (s, s, s), (s, s, r), (s, r, r), (r, r, r)):
        assert form.product(*key) == 0


def test_blowup_table_entries_frozen():
    form = ns.blowup_form()
    assert form.basis == ("hyperplane", "exceptional", "fiber")
    h, x, f = 0, 1, 2
    assert form.product(h, h, h) == 5
    assert form.product(h, h, x) == 0
    assert form.product(h, x, x) == -10
    assert form.product(x, x, x) == -25
    assert form.product(f, f, h) == 0
    assert form.product(f, f, x) == 0
    assert form.product(f, f, f) == 0


def test_unknown_slots_are_fenced():
    form = ns.blowup_form()
    assert form.unknown_slots() == (
        ("hyperplane", "hyperplane", "fiber"),
        ("hyperplane", "exceptional", "fiber"),
        ("exceptional", "exceptional", "fiber"),
    )
    with pytest.raises(ValueError, match="not recorded"):
        form.product(0, 0, 2)
    with pytest.raises(ValueError, match="not recorded"):
        form.product(2, 1, 0)


def test_scroll_table_entries_frozen():
    form = ns.scroll_form()
    assert form.basis == ("section", "ruling")
    assert form.product(0, 0) == 1
    assert form.product(0, 1) == 1
    assert form.product(1, 0) == 1
    assert form.product(1, 1) == 0


def test_table_symmetry_under_index_order():
    form = ns.chordal_form()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert form.product(i, j, k) == form.product(k, i, j)


# ---------------------------------------------------------------------------
# parser validation


GOOD = """
[triple toy]
basis: a b
a.a.a = 1
a.a.b = 2
a.b.b = 3
b.b.b = 4
"""


def test_parse_small_table():
    form = ns.parse_tables(GOOD)["toy"]
    assert form.product(0, 1, 1) == 3


def test_parse_rejects_missing_product():
    with pytest.raises(ValueError, match="missing products"):
        ns.parse_tables(GOOD.replace("b.b.b = 4\n", ""))


def test_parse_rejects_duplicate_product():
    with pytest.raises(ValueError, match="duplicate product"):
        ns.parse_tables(GOOD + "b.a.a = 7\n")


def test_parse_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown basis name"):
        ns.parse_tables(GOOD.replace("b.b.b", "b.b.c"))


def test_parse_rejects_bad_value():
    with pytest.raises(ValueError, match="bad product value"):
        ns.parse_tables(GOOD.replace("= 4", "= four"))


def test_parse_rejects_missing_basis():
    with pytest.raises(ValueError, match="no basis line"):
        ns.parse_tables("[triple toy]\n")


def test_parse_rejects_surface_with_unknown_slot():
    text = "[surface toy]\nbasis: a b\na.a = 1\na.b = ?\nb.b = 0\n"
    with pytest.raises(ValueError, match="may not contain"):
        ns.parse_tables(text)


def test_parse_rejects_stray_content():
    with pytest.raises(ValueError, match="before any section"):
        ns.parse_tables("a.a.a = 1\n")


# ---------------------------------------------------------------------------
# divisor arithmetic


def test_product_examples():
    c = ns.chordal_classes()
    h = c["hyperplane"]
    assert ns.intersection(h, h, h) == 5
    assert ns.intersection(c["ruled_surface"], h, h) == 15
    zero = ns.DivisorClass(ns.chordal_form(), (0, 0, 0))
    assert ns.intersection(zero, h, h) == 0
    assert ns.intersection(c["adjoint_surface"], h, h) == 15


def test_form_mismatch_rejected():
    h = ns.chordal_classes()["hyperplane"]
    x = ns.blowup_classes()["exceptional"]
    with pytest.raises(ValueError, match="different forms"):
        ns.intersection(h, h, x)
    with pytest.raises(TypeError):
        ns.intersection(h, h)
    s = ns.scroll_classes()["section"]
    with pytest.raises(TypeError):
        ns.intersection(s, s, s)


def test_zero_coefficients_bypass_fenced_slots():
    c = ns.blowup_classes()
    halved = c["chordal_hyperplane"]
    assert ns.intersection(halved, halved, halved) == 5
    with pytest.raises(ValueError, match="not recorded"):
        ns.intersection(c["fiber"], c["hyperplane"], c["hyperplane"])


def test_vector_arithmetic():
    form = ns.chordal_form()
    a = ns.DivisorClass(form, (1, 2, 3), "a")
    b = ns.DivisorClass(form, (4, -1, 0))
    assert (a + b).coeffs == (5, 1, 3)
    assert (a - b).coeffs == (-3, 3, 3)
    assert (-a).coeffs == (-1, -2, -3)
    assert (3 * a).coeffs == (3, 6, 9)
    assert not a.is_zero() and (a - a).is_zero()
    with pytest.raises(ValueError, match="coefficients"):
        ns.DivisorClass(form, (1, 2))


#: leading coefficients drawn per form; the blow-up fiber coefficient
#: stays zero, since its mixed fiber products are fenced
DRAWN = {"chordal": 3, "blowup": 2, "scroll": 2}


def _classes(name, vectors):
    form = ns.default_tables()[name]
    pad = (0,) * (len(form.basis) - DRAWN[name])
    return form, [ns.DivisorClass(form, v[:DRAWN[name]] + pad) for v in vectors]


@pytest.mark.parametrize("name", sorted(DRAWN))
@given(VECTOR, VECTOR, VECTOR, VECTOR, st.integers(min_value=-5, max_value=5))
def test_intersection_is_multilinear(name, u, v, w, extra, scalar):
    form, (du, dv, dw, dx) = _classes(name, (u, v, w, extra))
    rest = (dv, dw)[:form.arity - 1]
    left = ns.intersection(du + scalar * dx, *rest)
    assert left == ns.intersection(du, *rest) + scalar * ns.intersection(dx, *rest)
    head, tail = rest[:1], rest[1:]
    middle = ns.intersection(*head, du + scalar * dx, *tail)
    assert middle == (ns.intersection(*head, du, *tail)
                      + scalar * ns.intersection(*head, dx, *tail))


@pytest.mark.parametrize("name", sorted(DRAWN))
@given(VECTOR, VECTOR, VECTOR)
def test_intersection_is_symmetric(name, u, v, w):
    form, classes = _classes(name, (u, v, w))
    classes = classes[:form.arity]
    value = ns.intersection(*classes)
    assert ns.intersection(*classes[1:], classes[0]) == value
    assert ns.intersection(*reversed(classes)) == value


# ---------------------------------------------------------------------------
# verification routines


def test_halved_hyperplane_report():
    report = ns.verify_halved_hyperplane_class()
    assert report["passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    cube = by_name["doubled hyperplane minus exceptional wall cubes to five"]
    assert "= 5" in cube["detail"]
    correction = by_name["fiber correction coefficient vanishes"]
    assert "9 * 0" in correction["detail"]


def test_double_point_formula_report():
    report = ns.verify_double_point_formula()
    assert report["passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    degree = by_name["double point formula forces degree fifteen"]
    assert "d(d - 10) = 75" in degree["detail"]
    assert "positive root [15]" in degree["detail"]
    ten = by_name["diagonal image meets the hyperplane in ten points"]
    assert ten["detail"].endswith("= 10")


def test_degree15_report():
    report = ns.verify_degree15_surfaces()
    assert report["passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert "= 15" in by_name["ruled surface class has degree fifteen"]["detail"]
    assert "(3, -3, 4)" in by_name["adjoint class is minus canonical plus ruled surface"]["detail"]
    split = by_name["five hyperplanes split into canonical, adjoint and pencil parts"]
    assert "(0, 0, 0)" in split["detail"]
    assert "4*10 - 25 = 15" in by_name["blown-up polarization degree balances"]["detail"]


def test_reports_run_quickly():
    import time

    start = time.monotonic()
    ns.verify_halved_hyperplane_class()
    ns.verify_double_point_formula()
    ns.verify_degree15_surfaces()
    assert time.monotonic() - start < 1.0
