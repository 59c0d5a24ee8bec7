"""The three routes to the quintics, and the two to the quadrics, agree
at every (p, a) pair a default run of the six supported primes uses.

Each route is certified on its own elsewhere.  Here they are tied to
each other, so a fault in one route shows even where its own claims
survive it:

  * probe: int64 coefficient vectors, the determinants of the linear
    forms ``_structure_rows`` and ``_dual_rows`` expanded by
    ``_det_forms``, and the quadrics as ``_quadric_values``;
  * moore over F_p: ``quintic_equations(build_moore_matrices(Fp(a, p)))``,
    cofactor expansion over ``Fp`` scalars, and the bundle's quadrics;
  * moore over Q(eps15)(a): the symbolic quintics, specialised at a mod p
    through the embedding of Q(eps15) that sends eps15 to a root of
    order 15 in F_p.

A quintic is compared as its coefficient vector over ``monomials(5, 5)``,
up to a nonzero scalar; the quadrics by their values on the lattice that
determines them.  The reference curve points lie in the exhaustive scan.
"""

from __future__ import annotations

import pytest

from pentangle import probe
from pentangle.moore import (
    build_moore_matrices,
    quintic_equations,
    reference_curve_points,
    symbolic_modulus,
)
from pentangle.multipoly import monomials
from pentangle.scalars import Fp, embed_cyclo_in_prime_field, find_root_of_unity

PAIRS = [(p, a) for p in probe.SUPPORTED_PRIMES for a in probe.admissible_moduli(p)]


@pytest.fixture(scope="module")
def symbolic_quintics():
    return quintic_equations(build_moore_matrices(symbolic_modulus()))


def _specialize(poly, a: int, p: int):
    """(exponent tuple, value in F_p) of each term of a polynomial over
    Q(eps15)(a), at the modulus a mod p."""
    root = find_root_of_unity(p, 15)
    x = Fp(a, p)

    def value(uni):
        acc = Fp(0, p)
        for c in reversed(uni.c):
            acc = acc * x + embed_cyclo_in_prime_field(c, p, root)
        return acc

    return [(mono, value(c.num) / value(c.den)) for mono, c in poly.term_items()]


def _vector(pairs, p: int) -> list[int]:
    """The coefficient vector over ``monomials(5, 5)[::-1]`` of (exponent
    tuple, Fp) pairs, scaled so its first nonzero entry is 1."""
    coeffs = dict(pairs)
    vec = [coeffs[m].v if m in coeffs else 0 for m in monomials(5, 5)[::-1]]
    lead = next(c for c in vec if c)
    inv = pow(lead, p - 2, p)
    return [c * inv % p for c in vec]


def test_pairs_cover_every_supported_prime():
    assert len(PAIRS) == 12
    assert {p for p, _ in PAIRS} == set(probe.SUPPORTED_PRIMES)


@pytest.mark.parametrize("p, a", PAIRS)
def test_quintics_agree_across_routes(p, a, symbolic_quintics):
    z = probe._z_residues(p, a)
    probe_route = [probe._det_forms(rows(probe._lattice(1), z, p), p)
                   for rows in (probe._structure_rows, probe._dual_rows)]
    moore_route = quintic_equations(build_moore_matrices(Fp(a, p)))
    for coeffs, det, symbolic in zip(probe_route, moore_route, symbolic_quintics):
        expected = _vector(zip(monomials(5, 5)[::-1], (Fp(int(c), p) for c in coeffs)), p)
        assert sum(1 for c in expected if c) == 26
        assert _vector(det.term_items(), p) == expected
        assert _vector(_specialize(symbolic, a, p), p) == expected


@pytest.mark.parametrize("p, a", PAIRS)
def test_quadrics_agree_across_routes(p, a):
    lattice = probe._lattice(2)
    values = [row.tolist() for row in probe._quadric_values(lattice, p, a)]
    points = [[Fp(int(c), p) for c in point] for point in lattice.T]
    quadrics = build_moore_matrices(Fp(a, p)).quadrics
    assert [[q.eval_at(x).v for x in points] for q in quadrics] == values


@pytest.mark.parametrize("p, a", PAIRS)
def test_reference_points_lie_in_the_scan(p, a):
    scan = probe.scan_curve(p, a)
    for point in reference_curve_points(Fp(a, p)):
        assert scan.contains([c.v for c in point])
