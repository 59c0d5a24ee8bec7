"""Structure, dual and syzygy matrices of the cyclic quadric family."""

from __future__ import annotations

import random

import pytest

from pentangle.moore import (
    AVARS_X,
    AVARS_Y,
    VARS_X,
    VARS_Y,
    _fifth_root_scalar,
    _lift_to_cleared,
    build_moore_matrices,
    excluded_moduli,
    excluded_modulus_residues,
    is_admissible_modulus,
    quintic_equations,
    reference_curve_points,
    specialize_modulus,
    symbolic_modulus,
    verify_matrix_identities,
    verify_span_claims,
)
from pentangle import multipoly
from pentangle.multipoly import (
    EXPONENT_BOUND,
    MultiPoly,
    det_bareiss,
    det_cofactor,
    rank_at_point,
    scalar_matrix_nullspace,
    scalar_matrix_rank,
)
from pentangle.heisenberg import HeisenbergElement
from pentangle.scalars import (EPS5, EPS15, Cyclo, Fp, ONE, RatFunc, cyclo_root_of_unity,
                              find_root_of_unity)

from oracles import incidence_residual, scalar_matrix_det, substitute

SEED = 20260824


@pytest.fixture(scope="module")
def fp_bundle():
    return build_moore_matrices(Fp(2, 31))


@pytest.fixture(scope="module")
def symbolic_bundle():
    return build_moore_matrices(symbolic_modulus())


@pytest.fixture(scope="module")
def fp_dets(fp_bundle):
    return quintic_equations(fp_bundle)


@pytest.fixture(scope="module")
def symbolic_dets(symbolic_bundle):
    return quintic_equations(symbolic_bundle)


@pytest.fixture(scope="module")
def symbolic_identity_report():
    return verify_matrix_identities()


# -- moduli ------------------------------------------------------------


def test_excluded_moduli_shape():
    vals = excluded_moduli()
    assert len(vals) == 12
    assert vals[0] == Cyclo(0)
    assert vals[1] is None
    finite = [v for v in vals if v is not None]
    assert len(set(finite)) == 11


def test_excluded_residues_mod_31_frozen():
    assert sorted(excluded_modulus_residues(31)) == [0, 3, 5, 6, 9, 10, 12,
                                                     17, 18, 20, 24]


def test_excluded_residues_independent_of_root_choice():
    p = 31
    w0 = find_root_of_unity(p, 5).v
    reference = excluded_modulus_residues(p)
    for k in range(1, 5):
        w = pow(w0, k, p)
        alt = {0}
        for j in range(5):
            wj = pow(w, j, p)
            alt.add(wj * (pow(w, 2, p) + pow(w, 3, p)) % p)
            alt.add(wj * (w + pow(w, 4, p)) % p)
        assert frozenset(alt) == reference


def test_admissibility_dispatch():
    assert is_admissible_modulus(Fp(2, 31))
    assert not is_admissible_modulus(Fp(12, 31))
    assert is_admissible_modulus(Cyclo(1))
    assert is_admissible_modulus(1)
    assert not is_admissible_modulus(0)
    assert not is_admissible_modulus(None)
    assert not is_admissible_modulus(EPS5 ** 2 + EPS5 ** 3)
    assert not is_admissible_modulus(EPS5 * (EPS5 + EPS5 ** 4))
    assert is_admissible_modulus(symbolic_modulus())
    assert not is_admissible_modulus(RatFunc.const(ONE * 0, ONE))


def test_zero_modulus_rejected():
    with pytest.raises(ValueError):
        build_moore_matrices(Cyclo(0))
    with pytest.raises(ValueError):
        build_moore_matrices(Fp(0, 31))
    with pytest.raises(ValueError):
        reference_curve_points(0)


# -- quadrics ----------------------------------------------------------


def _twist(poly: MultiPoly, power: int = 1) -> MultiPoly:
    """The diagonal character x_i -> eps5^(-i power) x_i."""
    inv = poly.one / _fifth_root_scalar(poly.one)
    return poly.cyclic_substitution(0, lambda w, d: inv ** (power * w % 5))


def test_quadrics_cyclic_shift(fp_bundle):
    qs = fp_bundle.quadrics
    for i in range(5):
        assert qs[i].cyclic_substitution(1) == qs[(i - 1) % 5]


def test_quadrics_character_eigenvalue(fp_bundle):
    qs = fp_bundle.quadrics
    eps = find_root_of_unity(31, 5)
    for i in range(5):
        assert _twist(qs[i]) == qs[i] * eps ** (-2 * i)


def _random_forms(rng: random.Random, vars_: tuple, one, draw) -> list:
    """Random polynomials in vars_ of degree up to four, mostly not
    homogeneous, with up to six terms each, coefficients from draw(rng)."""
    n = len(vars_)
    forms = []
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = [0] * n
            for _ in range(rng.randint(0, 4)):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = draw(rng)
        forms.append(MultiPoly(vars_, terms, one))
    return forms


def test_heisenberg_actions_on_exponents_match_substitution():
    # x_i -> u v^(k i) x_(i-s), v a primitive n-th root of unity and u a
    # nontrivial central one, is cyclic_substitution(s) with the factor
    # u^d v^(k w): checked at every step against substituting the images
    # of the variables, at levels 3, 5 and 15 over Q(eps15), F_31 and
    # Q(eps15)(a), and over Q(eps15) against HeisenbergElement.act.  One
    # form has a term of degree EXPONENT_BOUND - 1 whose two exponents
    # the rotation carries across the top variable field.
    rng = random.Random(SEED + 5)
    a = symbolic_modulus()
    fields = [
        (ONE, cyclo_root_of_unity,
         lambda r: EPS15 ** r.randrange(15) * r.randint(-3, 3) + r.randint(-2, 2)),
        (Fp(1, 31), lambda n: find_root_of_unity(31, n), lambda r: Fp(r.randrange(31), 31)),
        (RatFunc.const(ONE, ONE), lambda n: RatFunc.const(cyclo_root_of_unity(n), ONE),
         lambda r: a ** r.randint(-2, 2) * r.randint(-3, 3) + EPS15 ** r.randrange(15)),
    ]
    top = EXPONENT_BOUND - 1
    for n in (3, 5, 15):
        vars_ = tuple("x%d" % i for i in range(n))
        edge = (top - 27,) + (0,) * (n - 2) + (27,)
        for one, root, draw in fields:
            v = root(n)
            xs = MultiPoly.gens(vars_, one)
            forms = _random_forms(rng, vars_, one, draw)
            forms.append(MultiPoly(vars_, {edge: one * 3, (0,) * n: draw(rng)}, one))
            for form in forms:
                for s in range(n):
                    k, c = rng.randrange(n), rng.randrange(1, n)
                    u = v ** c
                    images = {vars_[i]: xs[(i - s) % n] * (u * v ** (k * i % n))
                              for i in range(n)}
                    image = form.cyclic_substitution(
                        s, lambda w, d: u ** d * v ** (k * w % n))
                    assert image == substitute(form, images)
                    if isinstance(one, Cyclo):
                        assert image == HeisenbergElement(n, s, -k, u).act(form)
            rotated = form.cyclic_substitution(1)
            assert rotated.total_degree() == top
            assert rotated.coeff(edge[1:] + edge[:1]) == one * 3


def test_quadric_explicit_form():
    x = MultiPoly.gens(VARS_X, ONE)
    half = ONE / Cyclo(2)
    expected = x[0] * x[0] + x[2] * x[3] * Cyclo(2) - x[1] * x[4] * half
    assert build_moore_matrices(Cyclo(2)).quadrics[0] == expected


# -- matrix construction ----------------------------------------------


def test_structure_matrix_entries_frozen(fp_bundle):
    mm = fp_bundle
    y = MultiPoly.gens(VARS_Y, Fp(1, 31))
    z_table = (2, 2, 15, 15, 2)  # (2, a, -1/a, -1/a, a) at a = 2 mod 31
    for i in range(5):
        for j in range(5):
            assert mm.m[i, j] == y[(i + j) % 5] * Fp(z_table[(i - j) % 5], 31)


def test_symmetry_and_antisymmetry(fp_bundle, symbolic_bundle):
    for mm in (fp_bundle, symbolic_bundle):
        assert mm.m.is_symmetric()
        assert not mm.m.is_antisymmetric()
        assert mm.syzygy.is_antisymmetric()
        assert not mm.syzygy.is_symmetric()


def test_syzygy_matrix_rows_frozen(fp_bundle):
    mm = fp_bundle
    one = Fp(1, 31)
    a = Fp(2, 31)
    x0, x1, x2, x3, x4 = MultiPoly.gens(VARS_X, one)
    zero = MultiPoly.zero(VARS_X, one)
    expected = [
        [zero, a * x4, -x3, x2, -(a * x1)],
        [-(a * x4), zero, a * x2, -x1, x0],
        [x3, -(a * x2), zero, a * x0, -x4],
        [-x2, x1, -(a * x0), zero, a * x3],
        [a * x1, -x0, x4, -(a * x3), zero],
    ]
    for i in range(5):
        for j in range(5):
            assert mm.syzygy[i, j] == expected[i][j]


def test_syzygy_closed_form(symbolic_bundle):
    mm = symbolic_bundle
    a = mm.a
    one = mm.one
    weights = {0: one * 0, 1: a, 2: -one, 3: one, 4: -a}
    x = MultiPoly.gens(VARS_X, one)
    for i in range(5):
        for j in range(5):
            assert mm.syzygy[i, j] == x[(-i - j) % 5] * weights[(j - i) % 5]


def test_dual_matrix_closed_form(fp_bundle):
    mm = fp_bundle
    a = Fp(2, 31)
    z = (a * 0 + 2, a, -1 / a, -1 / a, a)
    x = MultiPoly.gens(VARS_X, Fp(1, 31))
    for i in range(5):
        for j in range(5):
            assert mm.m_prime[i, j] == x[(j - i) % 5] * z[(2 * i - j) % 5]


def test_dual_matrix_is_gradient_matrix(symbolic_bundle):
    mm = symbolic_bundle
    for i in range(5):
        for j in range(5):
            grad = mm.quadrics[(3 * j) % 5].partial_derivative(VARS_X[i])
            assert mm.m_prime[i, j] == grad


def test_doubled_quadrics_pointwise_oracle(fp_bundle):
    mm = fp_bundle
    one = Fp(1, 31)
    zero = Fp(0, 31)
    rng = random.Random(SEED)
    for _ in range(40):
        pt = [Fp(rng.randrange(31), 31) for _ in range(5)]
        if all(v == zero for v in pt):
            continue
        for i in range(5):
            unit = [one if k == i else zero for k in range(5)]
            gram = mm.m.eval_at(unit)
            form = zero
            for j in range(5):
                for k in range(5):
                    form = form + gram[j][k] * pt[j] * pt[k]
            assert form == mm.quadrics[(3 * i) % 5].eval_at(pt) * 2


# -- determinants ------------------------------------------------------


def test_determinants_homogeneous_quintic(fp_dets, symbolic_dets):
    for det_m, det_mp in (fp_dets, symbolic_dets):
        assert det_m.homogeneous_degree() == 5
        assert det_mp.homogeneous_degree() == 5
        assert len(det_m.terms) == 26
        assert len(det_mp.terms) == 26


def test_determinant_routes_agree_numeric(fp_bundle, fp_dets):
    mm = fp_bundle
    det_m, det_mp = fp_dets
    assert det_bareiss(mm.m) == det_m == det_cofactor(mm.m)
    assert det_bareiss(mm.m_prime) == det_mp == det_cofactor(mm.m_prime)


def test_determinant_routes_agree_cyclo():
    mm = build_moore_matrices(Cyclo(1))
    det_m, _ = quintic_equations(mm)
    assert det_bareiss(mm.m) == det_m


def test_determinant_pointwise_oracle(fp_bundle, fp_dets):
    mm = fp_bundle
    det_m, det_mp = fp_dets
    one = Fp(1, 31)
    rng = random.Random(SEED)
    for _ in range(20):
        pt = [Fp(rng.randrange(31), 31) for _ in range(5)]
        assert det_m.eval_at(pt) == scalar_matrix_det(mm.m.eval_at(pt), one)
        assert det_mp.eval_at(pt) == scalar_matrix_det(mm.m_prime.eval_at(pt), one)


def test_substitution_action_fixes_determinants(fp_dets):
    for det in fp_dets:
        assert det.cyclic_substitution(1) == det
        assert _twist(det) == det
        assert det.cyclic_substitution(2) == det
        assert _twist(det, power=3) == det


def test_symbolic_determinant_specializes(symbolic_dets):
    det_m, det_mp = symbolic_dets
    numeric = build_moore_matrices(Cyclo(2))
    num_m, num_mp = quintic_equations(numeric)
    assert specialize_modulus(det_m, Cyclo(2)) == num_m
    assert specialize_modulus(det_mp, Cyclo(2)) == num_mp


def test_lift_to_cleared_guards(symbolic_bundle, symbolic_dets):
    mm = symbolic_bundle
    det_m, _ = symbolic_dets
    lifted = _lift_to_cleared(det_m, ("a",) + VARS_Y, 5)
    # slot 0 carries the a-degree; the x-degree stays five
    assert {sum(mono[1:]) for mono, _ in lifted.term_items()} == {5}
    with pytest.raises(ValueError):
        _lift_to_cleared(mm.m_prime[0, 2], AVARS_X, 0)  # 1/a pole remains
    with pytest.raises(TypeError):
        _lift_to_cleared(MultiPoly.gens(VARS_X, ONE)[0], ("a",) + VARS_X, 0)


def _unit_power(width: int, i: int, e: int) -> tuple:
    return tuple(e if k == i else 0 for k in range(width))


def test_exponent_bound_in_the_widest_rings(symbolic_dets):
    # the ten-variable ring of the pairing components: a term of degree
    # EXPONENT_BOUND - 1 in any one variable keeps every other field zero,
    # and a constructor input or product of degree EXPONENT_BOUND raises
    top = EXPONENT_BOUND - 1
    joint = VARS_X + VARS_Y
    gens = MultiPoly.gens(joint, ONE)
    for i in (0, 4, 5, 9):
        power = _unit_power(10, i, top)
        high = MultiPoly(joint, {power: 3}, ONE)
        assert high.term_items() == [(power, Cyclo(3))]
        assert gens[i] ** 64 * gens[i] ** 63 * 3 == high
        with pytest.raises(ValueError):
            MultiPoly(joint, {_unit_power(10, i, top + 1): 1}, ONE)
        with pytest.raises(ValueError):
            gens[i] ** 64 * gens[i] ** 64
        for j in (0, 3, 9):
            with pytest.raises(ValueError):
                MultiPoly(joint, {tuple(a + b for a, b in zip(
                    power, _unit_power(10, j, 1))): 1}, ONE)
            with pytest.raises(ValueError):
                high * gens[j]
            if j != i:
                with pytest.raises(ValueError, match="not exactly divisible"):
                    high.exact_div(gens[j])
    # the cleared ring at the a-degree the lifted determinant reaches,
    # raised by a power of a to the last degree below the bound
    det_m, _ = symbolic_dets
    lifted = _lift_to_cleared(det_m, ("a",) + VARS_Y, 5)
    a = MultiPoly.variable("a", lifted.vars, lifted.one)
    lift = top - lifted.total_degree()
    assert lift > 0
    raised = lifted * a ** lift
    assert raised.total_degree() == top
    assert sorted(raised.term_items()) == sorted(
        ((m[0] + lift,) + m[1:], c) for m, c in lifted.term_items())
    for g in MultiPoly.gens(lifted.vars, lifted.one):
        with pytest.raises(ValueError):
            raised * g
    with pytest.raises(ValueError):
        MultiPoly(lifted.vars, {_unit_power(6, 0, EXPONENT_BOUND): 1}, lifted.one)


# -- reference points and incidence -----------------------------------


def test_reference_points_satisfy_quadrics(fp_bundle, symbolic_bundle):
    for mm in (fp_bundle, symbolic_bundle):
        zero = mm.one * 0
        p0, p1 = reference_curve_points(mm.a)
        for q in mm.quadrics:
            assert q.eval_at(p0) == zero
            assert q.eval_at(p1) == zero
        assert p1 == tuple(p0[(i + 1) % 5] for i in range(5))


def test_dual_matrix_rank_three_on_curve(fp_bundle, symbolic_bundle):
    for mm in (fp_bundle, symbolic_bundle):
        p0, p1 = reference_curve_points(mm.a)
        assert rank_at_point(mm.m_prime, p0) == 3
        assert rank_at_point(mm.m_prime, p1) == 3


def test_incidence_residual_agreement_and_nonvanishing(fp_bundle):
    mm = fp_bundle
    rng = random.Random(SEED)
    nonzero = 0
    for _ in range(50):
        x = [rng.randrange(31) for _ in range(5)]
        y = [rng.randrange(31) for _ in range(5)]
        if not any(x) or not any(y):
            continue
        res = incidence_residual(x, y, mm)
        if any(v != Fp(0, 31) for v in res):
            nonzero += 1
    assert nonzero >= 45


def test_incidence_residual_zero_on_incident_pair(fp_bundle):
    mm = fp_bundle
    one = Fp(1, 31)
    zero = Fp(0, 31)
    p0, _ = reference_curve_points(mm.a)
    kernel = scalar_matrix_nullspace(mm.m_prime.eval_at(p0), one)
    assert len(kernel) == 2  # the pencil of singular quadrics at a curve point
    for y in kernel:
        assert incidence_residual(p0, y, mm) == [zero] * 5


def test_rank_four_vertex_lies_on_dual_quintic(fp_bundle, fp_dets):
    mm = fp_bundle
    one = Fp(1, 31)
    _, det_mp = fp_dets
    p0, _ = reference_curve_points(mm.a)
    b1, b2 = scalar_matrix_nullspace(mm.m_prime.eval_at(p0), one)
    rng = random.Random(SEED)
    seen_rank_four = 0
    for _ in range(10):
        t = Fp(rng.randrange(31), 31)
        y = [u + t * v for u, v in zip(b1, b2)]
        if all(v == Fp(0, 31) for v in y):
            continue
        rows = mm.m.eval_at(y)
        if scalar_matrix_rank(rows, one) != 4:
            continue
        seen_rank_four += 1
        for vertex in scalar_matrix_nullspace(rows, one):
            assert det_mp.eval_at(vertex) == Fp(0, 31)
    assert seen_rank_four >= 8


# -- reports -----------------------------------------------------------


def test_identity_report_symbolic(symbolic_identity_report):
    rep = symbolic_identity_report
    assert rep["passed"]
    names = [c["name"] for c in rep["checks"]]
    assert "dual matrix equals the gradient matrix in 3j column order" in names
    assert "cleared-cofactor and rational-elimination determinants agree" in names
    record = [c for c in rep["checks"]
              if c["name"] == "determinant behaviour at a degenerate modulus (record)"]
    assert len(record) == 1
    assert record[0]["detail"] == ("structure determinant vanishes identically: "
                                   "False; dual: False")


def test_identity_report_prime_field():
    rep = verify_matrix_identities(Fp(2, 61))
    assert rep["passed"]
    assert rep["modulus"] == "2"


def test_span_report_symbolic(symbolic_bundle):
    mm = symbolic_bundle
    rep = verify_span_claims(mm)
    assert rep["passed"]
    assert rep["pairings"] == [(3, 0)]
    assert rep["span_vectors"]["(0, 0)"] == ["0"] * 5
    assert rep["span_vectors"]["(0, 1)"] == ["0", "0", "a", "0", "0"]
    kernel = [c for c in rep["checks"]
              if c["name"] == "every syzygy row has a nonzero coefficient kernel"]
    assert kernel[0]["detail"] == "kernel dimensions [2, 2, 2, 2, 2]"


def test_span_report_prime_field(fp_bundle):
    mm = fp_bundle
    rep = verify_span_claims(mm)
    assert rep["passed"]
    assert rep["pairings"] == [(3, 0)]
    assert rep["span_vectors"]["(0, 1)"] == ["0", "0", "2", "0", "0"]


def test_span_claim_checks_every_vector(monkeypatch, fp_bundle, symbolic_bundle):
    # a solver that hands each target the answer of the target before it
    # still resolves all 25 entries; checking each vector against its
    # entry is what fails the claim
    name = "all 25 pairing entries lie in the quadric span"
    for mm in (fp_bundle, symbolic_bundle):
        claim, = [c for c in verify_span_claims(mm)["checks"] if c["name"] == name]
        assert claim["passed"] and claim["detail"] == "25 of 25 resolved"
    real = multipoly.solve_linear_system
    monkeypatch.setattr(multipoly, "solve_linear_system",
                        lambda *args: (lambda out: out[:1] + out[:-1])(real(*args)))
    for mm in (fp_bundle, symbolic_bundle):
        rep = verify_span_claims(mm)
        claim, = [c for c in rep["checks"] if c["name"] == name]
        assert not rep["passed"] and not claim["passed"]
        assert claim["detail"].startswith("failing entries [")


def test_pairing_product_structure(fp_bundle):
    mm = fp_bundle
    product = mm.syzygy @ mm.m_prime.transpose()
    assert product[0, 0].is_zero()
    assert product[1, 1] == mm.quadrics[4]
    assert product[0, 1] == mm.quadrics[2] * Fp(2, 31)


def _eval_coefficientwise(poly: MultiPoly, value) -> MultiPoly:
    """specialize_modulus's oracle: `RatFunc.eval` on every coefficient."""
    return MultiPoly(poly.vars, {m: c.eval(value) for m, c in poly.term_items()},
                     poly.one.one_coeff * 1)


def test_specialize_modulus_matches_coefficientwise_eval(symbolic_dets):
    generic = Cyclo([3, -1, 0, 2, 0, 0, 5, -2]) / 7
    for value in (EPS5 ** 2 + EPS5 ** 3, generic, Cyclo(-3)):
        for det in symbolic_dets:
            got = specialize_modulus(det, value)
            want = _eval_coefficientwise(det, value)
            assert dict(got.term_items()) == dict(want.term_items())
    # denominators other than powers of a go through RatFunc.eval
    a = RatFunc.gen(ONE)
    x0, x1 = MultiPoly.gens(VARS_X, a * 0 + 1)[:2]
    poly = (x0 * (1 / (a + 1)) + x1 * (a ** 2 / (a * a - 2)) + x0 * x1 * (3 / a ** 2)
            + x1 * x1 * (a ** 3 - 2 * a) + x0 * x0 * (EPS5 / (a * (a + 2))))
    assert {c.den_power for _, c in poly.term_items()} == {None, 0, 2}
    for value in (generic, EPS5 ** 2 + EPS5 ** 3, Cyclo(5)):
        got = specialize_modulus(poly, value)
        assert dict(got.term_items()) == dict(_eval_coefficientwise(poly, value).term_items())


def test_specialize_modulus_raises_at_the_pole(symbolic_dets):
    assert any(c.den_power for det in symbolic_dets for _, c in det.term_items())
    for det in symbolic_dets:
        with pytest.raises(ZeroDivisionError):
            specialize_modulus(det, Cyclo(0))
    a = RatFunc.gen(ONE)
    x0 = MultiPoly.gens(VARS_X, a * 0 + 1)[0]
    polynomial = x0 * (a * a + 2) + x0 * x0 * a
    got = specialize_modulus(polynomial, Cyclo(0))
    assert dict(got.term_items()) == dict(_eval_coefficientwise(polynomial, Cyclo(0)).term_items())


def test_matrix_identities_reuse_a_given_bundle(monkeypatch, fp_bundle):
    plain = verify_matrix_identities(Fp(2, 31))

    def refuse(a):
        raise AssertionError("the given bundle was rebuilt")

    with monkeypatch.context() as m:
        m.setattr("pentangle.moore.build_moore_matrices", refuse)
        assert verify_matrix_identities(Fp(2, 31), fp_bundle) == plain
        with pytest.raises(ValueError):
            verify_matrix_identities(Fp(3, 31), fp_bundle)


def test_lift_to_cleared_matches_multiplying_by_a_power(symbolic_bundle, symbolic_dets):
    """The degree shift against c * a^extra read off coefficient by
    coefficient, on the bundle's entries and both determinants."""
    def by_multiplication(poly, avars, extra):
        a = RatFunc.gen(ONE)
        terms = {}
        for mono, c in poly.term_items():
            r = c * a ** extra
            assert r.den.degree() == 0
            for d, cc in enumerate(r.num.c):
                if cc:
                    terms[(d,) + mono] = cc
        return MultiPoly(avars, terms, ONE)

    det_m, det_mp = symbolic_dets
    cases = [(det_m, AVARS_Y, 5), (det_mp, AVARS_X, 5), (det_m, AVARS_Y, 7)]
    cases += [(symbolic_bundle.m[i, j], AVARS_Y, 1) for i in range(5) for j in range(5)]
    cases += [(symbolic_bundle.m_prime[i, j], AVARS_X, 1) for i in range(5) for j in range(5)]
    for poly, avars, extra in cases:
        assert _lift_to_cleared(poly, avars, extra) == by_multiplication(poly, avars, extra)
    a = RatFunc.gen(ONE)
    x0 = MultiPoly.gens(VARS_X, a * 0 + 1)[0]
    with pytest.raises(ValueError):
        _lift_to_cleared(x0 * (a / (a + 1)), AVARS_X, 3)
