"""pentangle: exact-arithmetic verification of Heisenberg-symmetric
quintic geometry.

Subpackage map:

  scalars      exact coefficient fields: Q(eps15), F_p, rational functions
  multipoly    sparse multivariate polynomials and polynomial matrices
  heisenberg   Schroedinger-type group actions and character decompositions
  sections     formal tensor space y_i (x) x_j and its five invariant sections
  hessepencil  plane cubics, chord-tangent arithmetic, torsion bookkeeping
  moore        the symmetric 5x5 quadric machinery and its syzygies
  probe        finite-field scans, secant/incidence sampling, Cremona inverse
  nslattice    intersection-number ledgers on named divisor bases
  checks       the named pass/fail check record every verifier returns
  report       claim records, suite orchestration, JSON/markdown rendering
  cli          the `verify` command line tool
"""

from __future__ import annotations

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    Cyclo,
    Fp,
    RatFunc,
    UniPoly,
    DEFAULT_PRIMES,
    EPS3,
    EPS5,
    EPS15,
    cyclo_root_of_unity,
    embed_cyclo_in_prime_field,
    find_root_of_unity,
)
