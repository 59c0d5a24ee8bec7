"""Group law, commutators, character tables and triangle fixed points."""

from __future__ import annotations

import random
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentangle.heisenberg import (
    REFERENCE_CHARACTER_TABLE,
    TRIANGLE_LINES,
    HeisenbergElement,
    character_decomposition,
    commutator,
    commutator_scalar,
    iota3_on_polynomial,
    validate_character_table,
)
from pentangle.multipoly import MultiPoly, scalar_matrix_nullspace
from pentangle.scalars import EPS3, EPS5, EPS15, Cyclo, cyclo_root_of_unity

SEED = 20260824


def _random_element(rng: random.Random, level: int, twist: int = 1
                    ) -> HeisenbergElement:
    eps = cyclo_root_of_unity(level)
    return HeisenbergElement(level, rng.randrange(level), rng.randrange(level),
                             eps ** rng.randrange(level), twist)


def _point_matrix(g: HeisenbergElement) -> list[list[Cyclo]]:
    """Matrix A of the substitution g: row i reads
    (A p)_i = central * eps^(-e*t*i) * p_(i-s), so acting on a
    polynomial is precomposition with A."""
    n = g.level
    eps = cyclo_root_of_unity(n)
    a = [[Cyclo(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][(i - g.sigma_power) % n] = (
            g.central * eps ** ((-g.twist * g.tau_power * i) % n))
    return a


def _random_poly(rng: random.Random, level: int, nterms: int = 3) -> MultiPoly:
    vars_ = tuple("x%d" % i for i in range(level))
    terms = {}
    for _ in range(nterms):
        mono = [0] * level
        for _ in range(rng.randrange(1, 4)):
            mono[rng.randrange(level)] += 1
        coeff = EPS15 ** rng.randrange(15) * Cyclo(rng.randrange(-3, 4))
        if not coeff.is_zero():
            terms[tuple(mono)] = coeff
    return MultiPoly(vars_, terms, Cyclo(1))


# -- group structure ---------------------------------------------------


@pytest.mark.parametrize("level", [3, 5, 15])
def test_generators_have_exact_order(level):
    sigma = HeisenbergElement.sigma(level)
    tau = HeisenbergElement.tau(level)
    identity = HeisenbergElement.identity(level)
    assert sigma ** level == identity
    assert tau ** level == identity
    for k in range(1, level):
        assert sigma ** k != identity
        assert tau ** k != identity


def test_group_axioms_randomized():
    rng = random.Random(SEED)
    for _ in range(300):
        level = rng.choice([3, 5, 15])
        g = _random_element(rng, level)
        h = _random_element(rng, level)
        k = _random_element(rng, level)
        assert (g * h) * k == g * (h * k)
        identity = HeisenbergElement.identity(level)
        assert g * g.inverse() == identity
        assert g.inverse() * g == identity
        assert (g * h).inverse() == h.inverse() * g.inverse()


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 14),
       st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_power_law_matches_repeated_product(s, t, c, k):
    g = HeisenbergElement(15, s, t, EPS15 ** c)
    acc = HeisenbergElement.identity(15)
    for _ in range(k % 8):
        acc = acc * g
    assert g ** (k % 8) == acc


def test_composition_across_levels_rejected():
    with pytest.raises(ValueError):
        HeisenbergElement.sigma(3) * HeisenbergElement.sigma(5)
    with pytest.raises(ValueError):
        HeisenbergElement.sigma(5, twist=1) * HeisenbergElement.sigma(5, twist=2)


def test_central_scalar_must_be_root_of_unity():
    with pytest.raises(ValueError):
        HeisenbergElement(3, 0, 0, Cyclo(2))
    with pytest.raises(ValueError):
        HeisenbergElement(3, 0, 0, EPS5)  # order 5 is not a cube root
    HeisenbergElement(15, 0, 0, EPS5)      # but it is a 15th root


def _checked(g: HeisenbergElement) -> HeisenbergElement:
    return HeisenbergElement(g.level, g.sigma_power, g.tau_power, g.central, g.twist)


def test_products_and_inverses_match_the_checked_constructor():
    # products, inverses and powers skip the constructor's checks; their
    # parts must be those the checked constructor gives from the group law
    rng = random.Random(SEED)
    for _ in range(200):
        level = rng.choice((3, 5, 15))
        twist = rng.choice([e for e in range(1, level) if gcd(e, level) == 1])
        g, h = _random_element(rng, level, twist), _random_element(rng, level, twist)
        phase = cyclo_root_of_unity(level, twist * g.tau_power * h.sigma_power)
        product = g * h
        assert product == _checked(product) == HeisenbergElement(
            level, g.sigma_power + h.sigma_power, g.tau_power + h.tau_power,
            g.central * h.central * phase, twist)
        inverse = g.inverse()
        phase = cyclo_root_of_unity(level, twist * g.tau_power * g.sigma_power)
        assert inverse == _checked(inverse) == HeisenbergElement(
            level, -g.sigma_power, -g.tau_power, phase / g.central, twist)
        assert g * inverse == HeisenbergElement.identity(level, twist)
        k = rng.randrange(-4, 5)
        assert g ** k == _checked(g ** k)
    with pytest.raises(ValueError):
        HeisenbergElement(15, 1, 2, Cyclo(2) * EPS15)


def test_twist_must_be_invertible():
    with pytest.raises(ValueError):
        HeisenbergElement(15, 0, 0, 1, twist=3)
    with pytest.raises(ValueError):
        HeisenbergElement(3, 1, 1, 1, twist=0)


# -- action soundness --------------------------------------------------


@pytest.mark.parametrize("level,rounds", [(3, 120), (5, 60), (15, 25)])
def test_action_respects_group_law(level, rounds):
    rng = random.Random(SEED + level)
    for _ in range(rounds):
        g = _random_element(rng, level)
        h = _random_element(rng, level)
        f = _random_poly(rng, level)
        assert (g * h).act(f) == g.act(h.act(f))


def test_action_of_inverse_undoes_action():
    rng = random.Random(SEED)
    for _ in range(60):
        g = _random_element(rng, 5)
        f = _random_poly(rng, 5)
        assert g.inverse().act(g.act(f)) == f


def test_sigma_and_tau_act_as_documented():
    xs = MultiPoly.gens(("x0", "x1", "x2"), Cyclo(1))
    sigma = HeisenbergElement.sigma(3)
    tau = HeisenbergElement.tau(3)
    assert sigma.act(xs[0]) == xs[2]
    assert sigma.act(xs[1]) == xs[0]
    assert sigma.act(xs[2]) == xs[1]
    for i in range(3):
        assert tau.act(xs[i]) == xs[i] * EPS3 ** (-i % 3)


def test_action_variable_count_guard():
    f = MultiPoly.gens(("x0", "x1", "x2"), Cyclo(1))[0]
    with pytest.raises(ValueError):
        HeisenbergElement.sigma(5).act(f)


def test_point_matrix_matches_action_on_linear_forms():
    rng = random.Random(SEED)
    xs = MultiPoly.gens(tuple("x%d" % i for i in range(5)), Cyclo(1))
    for _ in range(40):
        g = _random_element(rng, 5, twist=rng.choice([1, 2]))
        coeffs = [Cyclo(rng.randrange(-2, 3)) * EPS5 ** rng.randrange(5)
                  for _ in range(5)]
        f = sum((x * c for x, c in zip(xs, coeffs)), MultiPoly.zero(xs[0].vars, Cyclo(1)))
        image = g.act(f)
        a = _point_matrix(g)
        for j in range(5):
            mono = tuple(1 if i == j else 0 for i in range(5))
            expected = sum((coeffs[i] * a[i][j] for i in range(5)), Cyclo(0))
            assert image.coeff(mono) == expected


# -- commutators -------------------------------------------------------


def test_commutator_scalar_level3_standard_twist():
    assert commutator_scalar(3, twist=1) == EPS3.inverse()


def test_commutator_scalar_level3_opposite_twist():
    assert commutator_scalar(3, twist=-1) == EPS3


def test_commutator_scalar_level15_fifth_powers():
    # [sigma^5, tau^5] at level 15 lands in the cube-root subgroup
    assert commutator_scalar(15, sigma_power=5, tau_power=5) == EPS3
    assert EPS15 ** ((-25) % 15) == EPS3


def test_commutator_scalar_level5_both_twists():
    assert commutator_scalar(5, twist=1) == EPS5.inverse()
    assert commutator_scalar(5, twist=2) == EPS5 ** 3


def test_commutator_scalar_general_formula():
    rng = random.Random(SEED)
    for _ in range(25):
        level = rng.choice([3, 5])
        twist = 1 if level == 3 else rng.choice([1, 2])
        s = rng.randrange(1, level)
        t = rng.randrange(1, level)
        eps = cyclo_root_of_unity(level)
        assert (commutator_scalar(level, twist=twist, sigma_power=s, tau_power=t)
                == eps ** ((-twist * s * t) % level))


def test_commutator_of_general_elements_is_central():
    rng = random.Random(SEED)
    for _ in range(50):
        g = _random_element(rng, 15)
        h = _random_element(rng, 15)
        c = commutator(g, h)
        assert c.sigma_power == 0 and c.tau_power == 0
        expected = EPS15 ** ((g.sigma_power * h.tau_power
                              - g.tau_power * h.sigma_power) % 15)
        assert c.central == expected.inverse()


# -- character decomposition -------------------------------------------


def test_degree3_block_dimensions():
    blocks = character_decomposition(3, 3)
    dims = {label: len(v) for label, v in blocks.items()}
    assert dims[(0, 0)] == 2
    assert sum(dims.values()) == 10
    for label, d in dims.items():
        if label != (0, 0):
            assert d == 1


def test_degree3_blocks_are_simultaneous_eigenvectors():
    sigma = HeisenbergElement.sigma(3)
    tau = HeisenbergElement.tau(3)
    blocks = character_decomposition(3, 3)
    for (a, b), basis in blocks.items():
        for v in basis:
            assert sigma.act(v) == v * EPS3 ** a
            assert tau.act(v) == v * EPS3 ** b


def test_degree5_level5_blocks():
    blocks = character_decomposition(5, 5)
    dims = {label: len(v) for label, v in blocks.items()}
    assert dims[(0, 0)] == 6
    assert sum(dims.values()) == comb(9, 4)
    sigma = HeisenbergElement.sigma(5)
    tau = HeisenbergElement.tau(5)
    for v in blocks[(0, 0)]:
        assert sigma.act(v) == v
        assert tau.act(v) == v


def test_decomposition_rejects_noncommuting_degrees():
    for degree in (1, 2, 4, 5, 7):
        with pytest.raises(ValueError):
            character_decomposition(degree, 3)
    with pytest.raises(ValueError):
        character_decomposition(3, 5)


def test_reference_table_has_eight_entries():
    assert len(REFERENCE_CHARACTER_TABLE) == 8
    assert set(REFERENCE_CHARACTER_TABLE) == {
        (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)}


def test_validate_character_table_flags_exactly_one_defect():
    report = validate_character_table()
    assert report["passed"]
    assert report["dims"][(0, 0)] == 2
    assert sum(report["dims"].values()) == 10
    assert [m["label"] for m in report["mismatches"]] == [(2, 2)]
    assert len(report["matches"]) == 7
    defect = report["mismatches"][0]
    assert defect["recorded"] != defect["computed"]
    # the recorded (2,2) slot repeats the (2,1) polynomial verbatim
    assert defect["recorded"] == REFERENCE_CHARACTER_TABLE[(2, 1)].render()


def test_validate_character_table_computed_entries():
    report = validate_character_table()
    x0, x1, x2 = MultiPoly.gens(("x0", "x1", "x2"), Cyclo(1))
    w = EPS3
    assert report["computed"][(1, 0)] == x0 ** 3 + x1 ** 3 * w + x2 ** 3 * w ** 2
    assert (report["computed"][(2, 2)]
            == x0 ** 2 * x1 + x1 ** 2 * x2 * w ** 2 + x2 ** 2 * x0 * w)


# -- triangles and fixed points ----------------------------------------


def projective_normalize(vec) -> tuple:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    lead = next(c for c in vec if c != Cyclo(0))
    return tuple(c / lead for c in vec)


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _triangle_vertices(key: tuple[int, int]) -> set:
    """Pairwise intersections of the three lines of a triangle."""
    l1, l2, l3 = TRIANGLE_LINES[key]
    return {projective_normalize(_cross(a, b))
            for a, b in ((l1, l2), (l1, l3), (l2, l3))}


def _fixed_points(i: int, j: int) -> set:
    """Fixed points in P^2 of sigma^i tau^j (level 3, standard twist):
    the exact eigenvectors of its point matrix for the three cube roots
    of unity."""
    g = (HeisenbergElement.sigma(3) ** i) * (HeisenbergElement.tau(3) ** j)
    a = _point_matrix(g)
    fixed = set()
    for k in range(3):
        shifted = [[a[r][c] - (EPS3 ** k if r == c else 0) for c in range(3)]
                   for r in range(3)]
        fixed.update(projective_normalize(v)
                     for v in scalar_matrix_nullspace(shifted, Cyclo(1)))
    return fixed


def test_coordinate_triangle_vertices():
    expected = {(Cyclo(1), Cyclo(0), Cyclo(0)),
                (Cyclo(0), Cyclo(1), Cyclo(0)),
                (Cyclo(0), Cyclo(0), Cyclo(1))}
    assert _triangle_vertices((0, 1)) == expected


def test_fixed_points_agree_with_triangle_vertices():
    # the eigenvectors of each order-3 subgroup are the vertices of the
    # line triangle that verify_triangle_members expands
    all_points = set()
    for key in TRIANGLE_LINES:
        pts = _fixed_points(*key)
        assert len(pts) == 3
        assert pts == _triangle_vertices(key)
        all_points.update(pts)
    # the 4 triangles have 12 pairwise distinct vertices
    assert len(all_points) == 12


def test_fixed_points_respect_identification():
    # (i, j) and (-i, -j) generate the same subgroup
    for i, j in TRIANGLE_LINES:
        assert _fixed_points(-i, -j) == _fixed_points(i, j)


def test_fixed_points_are_actually_fixed():
    for (i, j) in TRIANGLE_LINES:
        g = (HeisenbergElement.sigma(3) ** i) * (HeisenbergElement.tau(3) ** j)
        a = _point_matrix(g)
        for p in _fixed_points(i, j):
            image = tuple(sum((a[r][c] * p[c] for c in range(3)), Cyclo(0))
                          for r in range(3))
            assert projective_normalize(image) == p


def test_triangle_line_products_are_eigenforms():
    # each split cubic is scaled by a character under both generators
    sigma = HeisenbergElement.sigma(3)
    tau = HeisenbergElement.tau(3)
    vars3 = ("x0", "x1", "x2")
    one = Cyclo(1)
    for key, lines in TRIANGLE_LINES.items():
        product = MultiPoly.constant(vars3, one, one)
        for line in lines:
            form = MultiPoly(vars3, {
                (1, 0, 0): line[0], (0, 1, 0): line[1], (0, 0, 1): line[2]}, one)
            product = product * form
        for g in (sigma, tau):
            image = g.act(product)
            lead_mono, lead = product.sorted_terms()[0]
            ratio = image.coeff(lead_mono) / lead
            assert image == product * ratio
            assert ratio ** 3 == 1


# -- plane involution --------------------------------------------------


def test_iota3_is_an_involution():
    rng = random.Random(SEED)
    for _ in range(40):
        f = _random_poly(rng, 3)
        assert iota3_on_polynomial(iota3_on_polynomial(f)) == f


def test_iota3_swaps_last_two_variables():
    x0, x1, x2 = MultiPoly.gens(("x0", "x1", "x2"), Cyclo(1))
    assert iota3_on_polynomial(x1) == x2
    assert iota3_on_polynomial(x0 * x1 ** 2) == x0 * x2 ** 2
    with pytest.raises(ValueError):
        iota3_on_polynomial(MultiPoly.gens(("a", "b"), Cyclo(1))[0])


def test_iota3_conjugates_shift_to_its_inverse():
    # iota sigma iota = sigma^(-1) and iota tau iota = tau^(-1), checked
    # on the polynomial action
    rng = random.Random(SEED)
    sigma = HeisenbergElement.sigma(3)
    tau = HeisenbergElement.tau(3)
    for g in (sigma, tau):
        for _ in range(20):
            f = _random_poly(rng, 3)
            lhs = iota3_on_polynomial(g.act(iota3_on_polynomial(f)))
            rhs = g.inverse().act(f)
            assert lhs == rhs
