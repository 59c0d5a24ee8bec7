"""Polynomial layer checks: arithmetic, order, determinants, span solving."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pentangle.multipoly import (
    MultiPoly,
    PolyMatrix,
    det_bareiss,
    det_cofactor,
    determinant,
    grevlex_key,
    in_linear_span,
    monomials,
    rank_at_point,
    scalar_matrix_nullspace,
    scalar_matrix_rank,
    solve_linear_system,
)
from pentangle.scalars import Cyclo, EPS3, EPS15, Fp, ONE, RatFunc

import oracles
from oracles import scalar_matrix_det, substitute

SEED = 20260824
XVARS = ("x0", "x1", "x2")


def _random_poly(rng: random.Random, vars=XVARS, max_terms=5, max_deg=3) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[mono] = Fraction(rng.randint(-6, 6))
    return MultiPoly(vars, terms)


def _random_point(rng: random.Random, n=3):
    return [Fraction(rng.randint(-5, 5)) for _ in range(n)]


# -- ordering and rendering -------------------------------------------


def test_grevlex_order_of_degree_two_monomials():
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(monos, key=grevlex_key) == monos


def test_monomials_match_the_recursive_listing():
    for nvars in range(1, 11):
        for degree in range(9):
            assert monomials(degree, nvars) == oracles.monomials(degree, nvars)


def test_render_canonical():
    x0, x1, x2 = MultiPoly.gens(XVARS)
    f = x1 * x1 + x0 * x0 - x2 * x2 * 3 + 1
    assert f.render() == "x0^2 + x1^2 - 3*x2^2 + 1"
    assert MultiPoly.zero(XVARS).render() == "0"


def test_render_cyclotomic_coefficients():
    one = Cyclo(1)
    x0, x1, x2 = MultiPoly.gens(XVARS, one)
    f = x0 * x1 * EPS3 + x2 * x2
    assert f.render() == "eps3*x0*x1 + x2^2"


# -- ring structure ----------------------------------------------------


def test_eval_is_ring_homomorphism_random():
    rng = random.Random(SEED)
    for _ in range(1000):
        f, g = _random_poly(rng), _random_poly(rng)
        p = _random_point(rng)
        assert (f * g).eval_at(p) == f.eval_at(p) * g.eval_at(p)
        assert (f + g).eval_at(p) == f.eval_at(p) + g.eval_at(p)


def test_product_of_homogeneous_is_homogeneous():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        f = _random_homogeneous(rng, d1)
        g = _random_homogeneous(rng, d2)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).homogeneous_degree() == d1 + d2


def test_homogeneous_and_total_degree():
    x0, x1, x2 = MultiPoly.gens(XVARS)
    assert (x0 * x1 - x2 ** 2).homogeneous_degree() == 2
    for f, degree in ((x0 + x0 * x1, 2), (x2 ** 3 + 1, 3), (x0 * x1 * x2 - x0, 3)):
        assert f.homogeneous_degree() is None
        assert f.total_degree() == degree
    assert MultiPoly.zero(XVARS).homogeneous_degree() is None
    assert MultiPoly.zero(XVARS).total_degree() == -1


def _random_homogeneous(rng: random.Random, deg: int) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        cuts = sorted(rng.randint(0, deg) for _ in range(2))
        mono = (cuts[0], cuts[1] - cuts[0], deg - cuts[1])
        terms[mono] = Fraction(rng.randint(-4, 4))
    return MultiPoly(XVARS, terms)


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_constant_arithmetic_matches_fractions(a, b):
    ca = MultiPoly.constant(XVARS, Fraction(a))
    cb = MultiPoly.constant(XVARS, Fraction(b))
    assert ca * cb == MultiPoly.constant(XVARS, Fraction(a * b))
    assert ca + cb == MultiPoly.constant(XVARS, Fraction(a + b))


def test_exact_div_roundtrip_random():
    rng = random.Random(SEED + 2)
    done = 0
    while done < 120:
        f, g = _random_poly(rng), _random_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).exact_div(g) == f
        done += 1


def test_exact_div_rejects_non_divisor():
    x0, x1, _ = MultiPoly.gens(XVARS)
    with pytest.raises(ValueError):
        (x0 * x0 + x1).exact_div(x0 + 1)


def test_substitute_is_ring_homomorphism():
    rng = random.Random(SEED + 3)
    x0, x1, x2 = MultiPoly.gens(XVARS)
    images = {"x0": x1 + x2, "x1": x0 - x2 * 2, "x2": x0 + x1 + 1}
    for _ in range(100):
        f, g = _random_poly(rng), _random_poly(rng)
        assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)
        assert substitute(f + g, images) == substitute(f, images) + substitute(g, images)


def test_split_by_regroups_terms():
    # each group is free of the split variables, and its terms times the
    # group's monomial give the polynomial back
    rng = random.Random(SEED + 10)
    for _ in range(100):
        f = _random_poly(rng)
        acc = MultiPoly.zero(XVARS)
        for (e0, e2), part in f.split_by(("x0", "x2")).items():
            assert all(m[0] == m[2] == 0 for m, _ in part.term_items())
            assert part.total_degree() == max(m[1] for m, _ in part.term_items())
            acc = acc + part * MultiPoly(XVARS, {(e0, 0, e2): 1})
        assert acc == f


def test_partial_derivative_basics():
    x0, x1, x2 = MultiPoly.gens(XVARS)
    assert (x0 * x0).partial_derivative("x0") == x0 * 2
    assert (x1 * x2).partial_derivative("x0").is_zero()
    with pytest.raises(ValueError):
        x0.partial_derivative("w")


def test_partial_derivative_leibniz_random():
    rng = random.Random(SEED + 4)
    for _ in range(200):
        f, g = _random_poly(rng), _random_poly(rng)
        lhs = (f * g).partial_derivative("x1")
        rhs = f.partial_derivative("x1") * g + f * g.partial_derivative("x1")
        assert lhs == rhs


def test_partial_derivative_char_guard():
    one = Fp(1, 5)
    x0 = MultiPoly.variable("x0", XVARS, one)
    with pytest.raises(ValueError):
        (x0 ** 5 + x0).partial_derivative("x0")


# -- packed kernel against the tuple-keyed oracles --------------------

_A = RatFunc.gen(ONE)
#: (one, scalar from a small int n and an index k) per coefficient field
PACKED_FIELDS = {
    "Q": (Fraction(1), lambda n, k: Fraction(n, 1 + k % 3)),
    "F_61": (Fp(1, 61), lambda n, k: Fp(7 * n + k, 61)),
    "Q(eps15)": (ONE, lambda n, k: EPS15 ** k * n),
    "Q(eps15)(a)": (RatFunc.const(ONE, ONE),
                    lambda n, k: EPS15 ** k * (_A, _A ** 2, 1 / _A)[k % 3] * n),
}
_TERMS = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                         st.tuples(st.integers(-3, 3), st.integers(0, 14)), max_size=5)


def _packed_poly(field: str, terms: dict) -> MultiPoly:
    one, scalar = PACKED_FIELDS[field]
    return MultiPoly(XVARS, {m: scalar(n, k) for m, (n, k) in terms.items()}, one)


@given(st.sampled_from(sorted(PACKED_FIELDS)), _TERMS, _TERMS)
@settings(max_examples=60, deadline=None)
def test_packed_product_and_quotient_match_tuple_oracle(field, f_terms, g_terms):
    f, g = _packed_poly(field, f_terms), _packed_poly(field, g_terms)
    product = f * g
    assert product == oracles.multiply(f, g)
    if not g.is_zero():
        assert product.exact_div(g) == oracles.exact_divide(product, g) == f


@given(st.sampled_from(sorted(PACKED_FIELDS)), _TERMS, _TERMS, st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_subtraction_matches_adding_the_negation(field, f_terms, g_terms, c):
    f, g = _packed_poly(field, f_terms), _packed_poly(field, g_terms)
    one = PACKED_FIELDS[field][0]
    assert f - g == f + (-g)
    assert (f - f).is_zero()
    assert f - c == f + MultiPoly.constant(XVARS, -one * c, one)
    assert c - f == (-f) + c


@given(st.sampled_from(sorted(PACKED_FIELDS)), _TERMS, _TERMS,
       st.tuples(*[st.integers(0, 6)] * 3))
@settings(max_examples=40, deadline=None)
def test_packed_division_rejects_what_the_oracle_rejects(field, f_terms, g_terms, mono):
    # with g of two terms or more, a multiple of g plus one monomial is
    # never a multiple of g
    f, g = _packed_poly(field, f_terms), _packed_poly(field, g_terms)
    assume(len(g.terms) >= 2)
    one = PACKED_FIELDS[field][0]
    h = f * g + MultiPoly(XVARS, {mono: one}, one)
    with pytest.raises(ValueError):
        h.exact_div(g)
    with pytest.raises(ValueError):
        oracles.exact_divide(h, g)


def _joined(parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


@given(st.sampled_from(sorted(PACKED_FIELDS)), _TERMS, st.sampled_from(XVARS))
@settings(max_examples=60, deadline=None)
def test_packed_order_and_derivative_match_tuple_oracle(field, terms, var):
    f = _packed_poly(field, terms)
    assert f.partial_derivative(var) == oracles.partial_derivative(f, var)
    assume(not f.is_zero())
    assert f.leading_term() == oracles.leading_term(f)
    monos = oracles.grevlex_monomials(f)
    assert [m for m, _ in f.sorted_terms()] == monos
    assert f.render() == _joined([MultiPoly(XVARS, {m: f.coeff(m)}, f.one).render()
                                  for m in monos])


# -- scalar linear algebra --------------------------------------------


def test_scalar_det_and_rank_small_cases():
    one = Fraction(1)
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert scalar_matrix_det(eye, one) == 1
    assert scalar_matrix_rank(eye, one) == 4
    sing = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert scalar_matrix_det(sing, one) == 0
    assert scalar_matrix_rank(sing, one) == 1
    ns = scalar_matrix_nullspace(sing, one)
    assert len(ns) == 1
    v = ns[0]
    assert sing[0][0] * v[0] + sing[0][1] * v[1] == 0


def test_nullspace_rank_nullity_random():
    rng = random.Random(SEED + 5)
    one = Fraction(1)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        r = scalar_matrix_rank(a, one)
        ns = scalar_matrix_nullspace(a, one)
        assert r + len(ns) == m
        for v in ns:
            for row in a:
                assert sum(x * y for x, y in zip(row, v)) == 0


def test_solve_linear_system_consistency():
    one = Fraction(1)
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    x = solve_linear_system(a, [[Fraction(3), Fraction(1)]], one, 2)
    assert x == [[Fraction(2), Fraction(1)]]
    column = [[Fraction(1)], [Fraction(1)]]
    assert solve_linear_system(column, [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(2)]],
                               one, 1) == [None, [Fraction(2)]]
    with pytest.raises(ValueError):
        solve_linear_system(column, [[Fraction(1)]], one, 1)


# -- polynomial matrices ----------------------------------------------


def test_determinant_trivial_cases():
    one = Fraction(1)
    vars5 = tuple("x%d" % i for i in range(5))
    eye = PolyMatrix([[MultiPoly.constant(vars5, Fraction(int(i == j)))
                       for j in range(5)] for i in range(5)])
    assert det_cofactor(eye) == MultiPoly.constant(vars5, Fraction(1))
    gens = MultiPoly.gens(vars5)
    diag = PolyMatrix([[gens[i] if i == j else MultiPoly.zero(vars5)
                        for j in range(5)] for i in range(5)])
    prod = gens[0]
    for g in gens[1:]:
        prod = prod * g
    assert det_cofactor(diag) == prod
    assert det_bareiss(diag) == prod


def _random_linear_matrix(rng: random.Random, n: int) -> PolyMatrix:
    vars5 = tuple("x%d" % i for i in range(5))
    rowsets = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for k in range(5):
                c = rng.randint(-2, 2)
                if c:
                    mono = tuple(1 if i == k else 0 for i in range(5))
                    terms[mono] = Fraction(c)
            row.append(MultiPoly(vars5, terms))
        rowsets.append(row)
    return PolyMatrix(rowsets)


def test_bareiss_agrees_with_cofactor_random():
    rng = random.Random(SEED + 6)
    for _ in range(25):
        m = _random_linear_matrix(rng, rng.randint(2, 4))
        assert det_bareiss(m) == det_cofactor(m)


def test_determinant_evaluates_to_pointwise_determinant():
    rng = random.Random(SEED + 7)
    m = _random_linear_matrix(rng, 4)
    d = determinant(m)
    for _ in range(100):
        pt = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        assert d.eval_at(pt) == scalar_matrix_det(m.eval_at(pt), Fraction(1))


def test_determinant_of_linear_forms_is_homogeneous():
    rng = random.Random(SEED + 8)
    for n in (3, 5):
        m = _random_linear_matrix(rng, n)
        d = determinant(m)
        assert d.is_zero() or d.homogeneous_degree() == n


def test_rank_at_point_invariances():
    rng = random.Random(SEED + 9)
    m = _random_linear_matrix(rng, 4)
    pt = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
    if all(c == 0 for c in pt):
        pt[0] = Fraction(1)
    r = rank_at_point(m, pt)
    # point rescaling
    assert rank_at_point(m, [c * 7 for c in pt]) == r
    # row and column permutation
    perm = PolyMatrix([m.entries[i] for i in (2, 0, 3, 1)])
    assert rank_at_point(perm, pt) == r
    permc = PolyMatrix([[row[j] for j in (1, 3, 0, 2)] for row in m.entries])
    assert rank_at_point(permc, pt) == r
    with pytest.raises(ValueError):
        rank_at_point(m, [Fraction(0)] * 5)


def test_determinant_with_ratfunc_scalars_uses_bareiss():
    one = RatFunc.const(1)
    a = RatFunc.gen()
    vars2 = ("y0", "y1")
    y0 = MultiPoly.variable("y0", vars2, one)
    y1 = MultiPoly.variable("y1", vars2, one)
    m = PolyMatrix([[y0 * a, y1], [y1, y0 * (1 / a)]])
    d = determinant(m)
    assert d == y0 * y0 - y1 * y1


# -- linear span membership -------------------------------------------


def test_in_linear_span_trivial_cases():
    x0, x1, x2 = MultiPoly.gens(XVARS)
    basis = [x0 * x0, x1 * x1, x0 * x2]
    combo = basis[0] * Fraction(2) - basis[2] * Fraction(5, 3)
    targets = [basis[0], MultiPoly.zero(XVARS), x0 * x1, combo]
    assert in_linear_span(targets, basis) == [
        [1, 0, 0], [0, 0, 0], None, [Fraction(2), 0, Fraction(-5, 3)]]
    assert in_linear_span([], basis) == []
    # with no monomial at all the solve has no rows, and a target still
    # gets a vector as long as the basis
    zero = MultiPoly.zero(XVARS)
    assert in_linear_span([zero], [zero, zero, zero]) == [[0, 0, 0]]
    assert in_linear_span([x0, zero], [zero, zero]) == [None, [0, 0]]


def test_in_linear_span_degree_mismatch():
    x0, x1, _ = MultiPoly.gens(XVARS)
    with pytest.raises(ValueError):
        in_linear_span([x0], [x0 * x1])
    with pytest.raises(ValueError):
        in_linear_span([x0 + x0 * x1], [x0 * x1])


def test_in_linear_span_over_rational_functions():
    one = RatFunc.const(1)
    a = RatFunc.gen()
    inv = one / a
    x0, x1 = MultiPoly.gens(("x0", "x1"), one)
    # basis coefficients with a^k denominators, as the moore quadrics have
    basis = [x0 * x0 * a - x1 * x1 * inv, x0 * x1 * inv ** 2]
    coeffs = [inv ** 3, a ** 2 - inv]
    q = basis[0] * coeffs[0] + basis[1] * coeffs[1]
    assert in_linear_span([q], basis) == [coeffs]
    # x1^2 is not a combination of the mixed and the x0^2-weighted quadric
    assert in_linear_span([x1 * x1 * inv], [basis[1], x0 * x0 * a]) == [None]


def test_stacked_span_solve_matches_per_target_solves():
    # a basis whose last member depends on the first two, targets in its
    # span, zero targets, and targets using x2^2, which no basis member
    # has: the stacked solve gives each target what its own solve gives,
    # and the free variable stays zero
    rng = random.Random(SEED + 9)
    support = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)]
    a = RatFunc.gen(ONE)
    inv = RatFunc.const(ONE, ONE) / a
    # (one, random scalar, zero now and then) over Q, F_61 and Q(eps15)(a),
    # the last as c eps15^k a^(+-1), as the moore quadrics have
    fields = [
        (Fraction(1), lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
        (Fp(1, 61), lambda: Fp(rng.randrange(61), 61)),
        (RatFunc.const(ONE, ONE),
         lambda: EPS15 ** rng.randrange(15) * (a, inv)[rng.randrange(2)] * rng.randint(-2, 2)),
    ]
    for one, draw in fields:
        zero = one * 0
        x2 = MultiPoly.variable("x2", XVARS, one)
        for _ in range(3):
            basis = [MultiPoly(XVARS, {m: draw() for m in support}, one)
                     for _ in range(3)]
            basis.append(basis[0] * draw() - basis[1] * draw())
            combos = [[draw() for _ in basis[:3]] for _ in range(4)]
            targets = [sum((f * c for f, c in zip(basis, cs)), MultiPoly.zero(XVARS, one))
                       for cs in combos]
            targets += [MultiPoly.zero(XVARS, one), x2 * x2, targets[0] + x2 * x2,
                        MultiPoly(XVARS, {m: draw() for m in support}, one)]
            stacked = in_linear_span(targets, basis)
            assert stacked == [in_linear_span([t], basis)[0] for t in targets]
            for t, vec in zip(targets, stacked):
                if vec is not None:
                    assert vec[3] == zero
                    assert sum((f * c for f, c in zip(basis, vec)),
                               MultiPoly.zero(XVARS, one)) == t
            assert stacked[4] == [zero] * 4
            assert stacked[5] is None and stacked[6] is None



def _substituted_by_terms(f: MultiPoly, step: int, factor) -> MultiPoly:
    """x_i -> x_(i-step) term by term over exponent tuples, each term times
    factor(w, d), w = sum_i i e_i mod n summed over every field."""
    n = len(f.vars)
    return MultiPoly(f.vars, {
        tuple(mono[(j + step) % n] for j in range(n)):
            c * factor(sum(i * e for i, e in enumerate(mono)) % n, sum(mono))
        for mono, c in f.term_items()}, f.one)


def test_cyclic_substitution_weights_match_the_term_rule():
    # the weight loop stops at the last nonzero exponent field; compared on
    # random polynomials at the symbolic modulus and over F_31, on the
    # 15-variable linear forms of the section tensors, and on both Moore
    # quintics at both moduli
    from pentangle.moore import build_moore_matrices, quintic_equations, symbolic_modulus
    from pentangle.sections import tensor

    rng = random.Random(SEED)
    a = symbolic_modulus()
    rings = [(a, a ** 0, lambda: a ** rng.randrange(-2, 3) * rng.randint(-4, 4)),
             (Fp(2, 31), Fp(1, 31), lambda: Fp(rng.randrange(31), 31))]
    cases = []
    for modulus, one, draw in rings:
        for nvars in (1, 3, 5, 15):
            names = tuple("y%d" % i for i in range(nvars))
            for _ in range(20):
                terms = {tuple(rng.choice((0, 0, 0, rng.randint(1, 4))) for _ in names): draw()
                         for _ in range(rng.randint(0, 6))}
                cases.append(MultiPoly(names, terms, one))
        cases += quintic_equations(build_moore_matrices(modulus))
    for _ in range(60):
        cases += tensor({(rng.randrange(15), rng.randrange(3)): EPS15 ** rng.randrange(15)
                         for _ in range(rng.randint(1, 5))})
    for f in cases:
        n = len(f.vars)
        step = rng.randrange(n)

        def factor(w, d):
            return f.one * (w + 1) ** (d + 1)

        assert f.cyclic_substitution(step, factor) == _substituted_by_terms(f, step, factor)
        assert f.cyclic_substitution(step) == _substituted_by_terms(f, step, lambda w, d: f.one)


def test_cyclic_substitution_factor_per_weight_and_degree():
    # the factor is asked once for each (weight, degree) of the terms, a
    # factor equal to one leaves the coefficients as they are, and a
    # zero factor is refused
    x0, x1, x2 = MultiPoly.gens(XVARS, ONE)
    f = x0 * x0 + x1 * x2 * 3 + x2 - 5 + x0 * x2 * x2 * 2
    asked = []

    def factor(w, d):
        asked.append((w, d))
        return EPS3 ** (w + d)

    image = f.cyclic_substitution(2, factor)
    assert sorted(asked) == [(0, 0), (0, 2), (1, 3), (2, 1)]
    # x0 -> x1 -> x2 -> x0; 3 x1 x2 has weight 0 and x2 weight 2
    assert image == (x1 * x1 + x2 * x0 * 3) * EPS3 ** 2 + x0 - 5 + x1 * x0 * x0 * 2 * EPS3
    assert f.cyclic_substitution(3, lambda w, d: ONE) == f
    with pytest.raises(ValueError, match="zero factor"):
        f.cyclic_substitution(1, lambda w, d: ONE * 0)
