"""Section tensors as triples of y-forms, the Heisenberg actions on them,
and the symmetry ledger of the five sections."""

from __future__ import annotations

import random

import pytest

from oracles import tensor_action
from pentangle.heisenberg import HeisenbergElement
from pentangle.scalars import EPS3, EPS5, EPS15, Cyclo
from pentangle.sections import (
    act_on_x,
    act_on_y,
    delta_sigma,
    delta_tau,
    h5_sigma,
    h5_tau,
    h5_tau_uninverted,
    involution,
    render,
    sections,
    tensor,
    verify_section_symmetries,
)

SEED = 20260824


def _random_terms(rng: random.Random, nterms: int = 4) -> dict:
    terms = {}
    for _ in range(nterms):
        coeff = EPS15 ** rng.randrange(15) * Cyclo(rng.randrange(-2, 3))
        terms[(rng.randrange(15), rng.randrange(3))] = coeff
    return terms


def _random_tensor(rng: random.Random, nterms: int = 4):
    return tensor(_random_terms(rng, nterms))


def _support(t) -> set:
    """The (i, j) of the nonzero terms c y_i (x) x_j."""
    return {(mono.index(1), j) for j, f in enumerate(t) for mono, _ in f.term_items()}


def _random_element(rng: random.Random, level: int, eps: Cyclo) -> HeisenbergElement:
    """A random element with a random central scalar and twist."""
    twist = rng.choice([e for e in range(1, level) if e % 3 and e % 5])
    return HeisenbergElement(level, rng.randrange(level), rng.randrange(level),
                             eps ** rng.randrange(level), twist)


# -- the triple form ---------------------------------------------------


def test_tensor_is_three_linear_forms_in_y():
    t = tensor({(2, 1): 3, (4, 0): EPS5})
    assert len(t) == 3
    assert all(f.vars == tuple("y%d" % i for i in range(15)) for f in t)
    assert t[0].render() == "eps5*y4"
    assert t[1].render() == "3*y2"
    assert t[2].is_zero()


def test_tensor_indices_reduce_modulo_periods():
    assert tensor({(17, 4): 1}) == tensor({(2, 1): 1})
    assert tensor({(-1, -1): 1}) == tensor({(14, 2): 1})
    # keys equal after reduction add up, and a zero sum drops out
    assert tensor({(2, 1): 1, (17, 4): 1}) == tensor({(2, 1): 2})
    assert all(f.is_zero() for f in tensor({(2, 1): 1, (17, 4): -1}))
    assert all(f.is_zero() for f in tensor({(2, 1): 0}))


def test_tensor_render():
    t = tensor({(0, 0): 1, (3, 1): EPS5, (7, 2): -1})
    assert render(t) == "y0*x0 + eps5*y3*x1 - y7*x2"
    assert render(tensor({(7, 2): 1 + EPS5, (7, 0): 2})) == "2*y7*x0 + (1 + eps15^3)*y7*x2"
    assert render(tensor({})) == "0"


# -- actions -----------------------------------------------------------


def test_action_levels_are_enforced():
    t = tensor({(0, 0): 1})
    with pytest.raises(ValueError):
        act_on_y(HeisenbergElement.sigma(3), t)
    with pytest.raises(ValueError):
        act_on_x(HeisenbergElement.sigma(15), t)


def test_y_action_matches_the_term_rule():
    # nontrivial central scalars and twists, so central^d is exercised
    rng = random.Random(SEED)
    for _ in range(300):
        g = _random_element(rng, 15, EPS15)
        terms = _random_terms(rng, rng.randrange(1, 8))
        assert act_on_y(g, tensor(terms)) == tensor(tensor_action(g, terms, 0))


def test_x_action_matches_the_term_rule():
    rng = random.Random(SEED)
    for _ in range(300):
        g = _random_element(rng, 3, EPS3)
        terms = _random_terms(rng, rng.randrange(1, 8))
        assert act_on_x(g, tensor(terms)) == tensor(tensor_action(g, terms, 1))


def test_y_action_respects_group_law():
    rng = random.Random(SEED)
    for _ in range(80):
        g = HeisenbergElement(15, rng.randrange(15), rng.randrange(15),
                              EPS15 ** rng.randrange(15))
        h = HeisenbergElement(15, rng.randrange(15), rng.randrange(15),
                              EPS15 ** rng.randrange(15))
        t = _random_tensor(rng)
        assert act_on_y(g * h, t) == act_on_y(g, act_on_y(h, t))


def test_x_action_respects_group_law():
    rng = random.Random(SEED)
    for _ in range(80):
        g = HeisenbergElement(3, rng.randrange(3), rng.randrange(3),
                              EPS3 ** rng.randrange(3))
        h = HeisenbergElement(3, rng.randrange(3), rng.randrange(3),
                              EPS3 ** rng.randrange(3))
        t = _random_tensor(rng)
        assert act_on_x(g * h, t) == act_on_x(g, act_on_x(h, t))


def test_x_and_y_actions_commute():
    rng = random.Random(SEED)
    for _ in range(60):
        g = HeisenbergElement(15, rng.randrange(15), rng.randrange(15))
        h = HeisenbergElement(3, rng.randrange(3), rng.randrange(3))
        t = _random_tensor(rng)
        assert act_on_y(g, act_on_x(h, t)) == act_on_x(h, act_on_y(g, t))


def test_delta_generators_on_basis():
    t = tensor({(7, 2): 1})
    assert delta_sigma(t) == tensor({(2, 1): 1})
    assert delta_tau(t) == tensor({(7, 2): EPS3 ** ((-7 - 2) % 3)})


def test_delta_tau_matches_displayed_character():
    # composite definition vs the closed form eps3^(-i-j)
    for i in range(15):
        for j in range(3):
            assert delta_tau(tensor({(i, j): 1})) == tensor({(i, j): EPS3 ** ((-i - j) % 3)})


def test_level5_generators_on_basis():
    t = tensor({(7, 2): 1})
    assert h5_sigma(t) == tensor({(4, 2): 1})
    assert h5_tau(t) == tensor({(7, 2): EPS5 ** (7 % 5)})
    assert h5_tau_uninverted(t) == tensor({(7, 2): EPS5 ** ((-7) % 5)})


def test_involution_on_basis():
    assert involution(tensor({(4, 1): 1})) == tensor({(11, 2): 1})
    assert involution(tensor({(0, 0): EPS5})) == tensor({(0, 0): EPS5})
    rng = random.Random(SEED)
    for _ in range(50):
        terms = _random_terms(rng)
        expected = tensor({(-i, -j): c for (i, j), c in terms.items()})
        assert involution(tensor(terms)) == expected
        assert involution(involution(tensor(terms))) == tensor(terms)


# -- the five sections -------------------------------------------------


def test_sections_supports():
    s = sections()
    assert len(s) == 5
    assert _support(s[0]) == {(0, 0), (5, 1), (10, 2)}
    assert _support(s[1]) == {(3, 0), (8, 1), (13, 2)}
    assert _support(s[2]) == {(6, 0), (11, 1), (1, 2)}
    assert _support(s[3]) == {(9, 0), (14, 1), (4, 2)}
    assert _support(s[4]) == {(12, 0), (2, 1), (7, 2)}
    for t in s:
        assert all(c == Cyclo(1) for f in t for _, c in f.term_items())


def test_sections_are_linearly_independent():
    # disjoint supports make independence immediate; check disjointness
    seen = set()
    for t in sections():
        assert not (seen & _support(t))
        seen.update(_support(t))
    assert len(seen) == 15


def test_verify_section_symmetries_all_pass():
    report = verify_section_symmetries()
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    # 10 invariance + 5 shift + 5 character + 1 note + 5 involution + 1 commutator
    assert len(report["checks"]) == 27
    assert report["sections"][2] == "y1*x2 + y6*x0 + y11*x1"
    assert len(report["sections"]) == 5


def test_shift_cycles_sections_with_period_five():
    s = sections()
    t = s[2]
    for _ in range(5):
        t = h5_sigma(t)
    assert t == s[2]


def test_character_eigenvalues_multiply_consistently():
    s = sections()
    for k in range(5):
        assert h5_tau(h5_tau(s[k])) == tuple(f * EPS5 ** ((-4 * k) % 5) for f in s[k])
