"""Cyclic Schroedinger-type group actions at levels 3, 5 and 15.

An element is a triple (central scalar, sigma power s, tau power t) with
a twist exponent e coprime to the level n.  On coordinate polynomials in
n variables the action is the linear substitution

    x_i  |->  central * eps_n^(-e*t*i) * x_(i-s)     (indices mod n),

so sigma is the cyclic shift x_i -> x_(i-1) and tau the diagonal
character x_i -> eps_n^(-e*i) x_i.  The group law tracks the central
scalar exactly, which is what makes the commutator identities checkable
as stated rather than only projectively.

Twist conventions used elsewhere in the package:

    level 3, twist +1   action on plane coordinates
    level 3, twist -1   dual action (commutator comes out inverted)
    level 15, twist +1  action on the 15-dimensional coordinate space
    level 5, twist +1   action on x_0..x_4
    level 5, twist +2   the replaced-eigenvalue action on 5 sections
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .checks import Checks, error_text
from .multipoly import MultiPoly, grevlex_key, monomials
from .scalars import Cyclo, EPS3, _power, cyclo_root_of_unity

_LEVELS = (3, 5, 15)


class HeisenbergElement:
    """central * sigma^s * tau^t at a fixed level and twist."""

    __slots__ = ("level", "sigma_power", "tau_power", "central", "twist")

    def __init__(self, level: int, sigma_power: int, tau_power: int,
                 central: Cyclo | int = 1, twist: int = 1):
        if level not in _LEVELS:
            raise ValueError("level must be one of %r" % (_LEVELS,))
        if gcd(twist % level, level) != 1:
            raise ValueError("twist %d is not invertible mod %d" % (twist, level))
        central = Cyclo(central)
        if central ** level != 1:
            raise ValueError("central scalar must be a level-th root of unity")
        _fill(self, level, sigma_power, tau_power, central, twist)

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, level: int, twist: int = 1) -> "HeisenbergElement":
        return cls(level, 0, 0, 1, twist)

    @classmethod
    def sigma(cls, level: int, twist: int = 1) -> "HeisenbergElement":
        return cls(level, 1, 0, 1, twist)

    @classmethod
    def tau(cls, level: int, twist: int = 1) -> "HeisenbergElement":
        return cls(level, 0, 1, 1, twist)

    # -- group structure -----------------------------------------------

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        if not isinstance(other, HeisenbergElement):
            return NotImplemented
        if (self.level, self.twist) != (other.level, other.twist):
            raise ValueError("cannot compose across levels or twists")
        n = self.level
        phase = cyclo_root_of_unity(n, self.twist * self.tau_power * other.sigma_power)
        return _element(
            n,
            self.sigma_power + other.sigma_power,
            self.tau_power + other.tau_power,
            self.central * other.central * phase,
            self.twist,
        )

    def inverse(self) -> "HeisenbergElement":
        n = self.level
        phase = cyclo_root_of_unity(n, self.twist * self.tau_power * self.sigma_power)
        return _element(n, -self.sigma_power, -self.tau_power, phase / self.central, self.twist)

    def __pow__(self, k: int) -> "HeisenbergElement":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _power(HeisenbergElement.identity(self.level, self.twist), self, k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeisenbergElement):
            return NotImplemented
        return (self.level, self.twist, self.sigma_power, self.tau_power,
                self.central) == (other.level, other.twist, other.sigma_power,
                                  other.tau_power, other.central)

    def __hash__(self) -> int:
        return hash((self.level, self.twist, self.sigma_power, self.tau_power,
                     self.central))

    def __repr__(self) -> str:
        return ("HeisenbergElement(level=%d, s=%d, t=%d, central=%s, twist=%d)"
                % (self.level, self.sigma_power, self.tau_power,
                   self.central, self.twist))

    # -- action on polynomials -----------------------------------------

    def act(self, f: MultiPoly) -> MultiPoly:
        """Linear substitution action; variable count must equal the level.
        A term of degree d and weight w = sum_i i e_i gains the scalar
        central^d eps^(-e t w)."""
        n = self.level
        if len(f.vars) != n:
            raise ValueError("level-%d element cannot act on %d variables"
                             % (n, len(f.vars)))
        central, k = self.central, -self.twist * self.tau_power
        return f.cyclic_substitution(
            self.sigma_power, lambda w, d: central ** d * cyclo_root_of_unity(n, k * w))


def _fill(g: HeisenbergElement, level: int, sigma_power: int, tau_power: int,
          central: Cyclo, twist: int) -> HeisenbergElement:
    g.level = level
    g.sigma_power = sigma_power % level
    g.tau_power = tau_power % level
    g.central = central
    g.twist = twist % level
    return g


def _element(level: int, sigma_power: int, tau_power: int, central: Cyclo,
             twist: int) -> HeisenbergElement:
    """An element from the parts of a product or an inverse of valid
    elements, which the group law keeps valid: the constructor's checks
    are skipped."""
    return _fill(HeisenbergElement.__new__(HeisenbergElement), level, sigma_power,
                 tau_power, central, twist)


def commutator(g: HeisenbergElement, h: HeisenbergElement) -> HeisenbergElement:
    return g * h * g.inverse() * h.inverse()


def commutator_scalar(level: int, twist: int = 1, sigma_power: int = 1,
                      tau_power: int = 1) -> Cyclo:
    """Central scalar of [sigma^s, tau^t], measured on the action itself.

    The scalar is extracted by applying the composite substitution to
    every coordinate; the group-law central is computed independently
    and the two must agree.
    """
    one = Cyclo(1)
    xs = MultiPoly.gens(tuple("x%d" % i for i in range(level)), one)
    g = HeisenbergElement.sigma(level, twist) ** sigma_power
    h = HeisenbergElement.tau(level, twist) ** tau_power
    scalar = None
    for i, xi in enumerate(xs):
        image = g.act(h.act(g.inverse().act(h.inverse().act(xi))))
        if len(image.terms) != 1:
            raise AssertionError("commutator did not act as a scalar")
        (mono, c), = image.term_items()
        if mono != xi.leading_term()[0]:
            raise AssertionError("commutator moved a coordinate")
        if scalar is None:
            scalar = c
        elif scalar != c:
            raise AssertionError("commutator scalar varies across coordinates")
    law = commutator(g, h)
    if not (law.sigma_power == 0 and law.tau_power == 0):
        raise AssertionError("commutator is not central")
    if law.central != scalar:
        raise AssertionError("action scalar %s disagrees with group law %s"
                             % (scalar, law.central))
    return scalar


#: the commutator scalars certified by verify_commutators_and_characters;
#: each row is (check name, commutator_scalar kwargs, expected scalar)
COMMUTATOR_CASES = (
    ("commutator scalar, level three standard twist",
     {"level": 3, "twist": 1}, EPS3.inverse()),
    ("commutator scalar, level three opposite twist",
     {"level": 3, "twist": -1}, EPS3),
    ("commutator scalar, level fifteen fifth powers",
     {"level": 15, "sigma_power": 5, "tau_power": 5}, EPS3),
)


def verify_commutators_and_characters() -> dict:
    """The commutator scalars of COMMUTATOR_CASES, then the checks of
    validate_character_table.  Each case and the table run in their own
    try, so one that raises fails only its own check."""
    checks = Checks()
    for name, kwargs, expected in COMMUTATOR_CASES:
        try:
            value = commutator_scalar(**kwargs)
        except Exception as exc:
            checks.add(name, False, error_text(exc))
        else:
            checks.add(name, value == expected,
                       "computed %s, expected %s" % (value, expected))
    try:
        checks.records += validate_character_table()["checks"]
    except Exception as exc:
        checks.add("character table validates", False, error_text(exc))
    return {"passed": checks.passed, "checks": checks.records}


# -- character decomposition ------------------------------------------


def character_decomposition(degree: int, level: int, twist: int = 1
                            ) -> dict[tuple[int, int], list[MultiPoly]]:
    """Simultaneous eigenbasis of the degree-d monomial space.

    Labels (a, b) mean sigma scales by eps^a and tau by eps^b.  Requires
    level | degree, which is exactly when the two generators commute on
    the symmetric power.
    """
    n = level
    if n not in _LEVELS:
        raise ValueError("level must be one of %r" % (_LEVELS,))
    if degree % n != 0:
        raise ValueError(
            "sigma and tau do not commute on degree %d at level %d" % (degree, n))
    one = Cyclo(1)
    vars_ = tuple("x%d" % i for i in range(n))
    eps = cyclo_root_of_unity(n)
    e = twist % n

    seen: set[tuple] = set()
    blocks: dict[tuple[int, int], list[MultiPoly]] = {}
    for mono in monomials(degree, n):
        if mono in seen:
            continue
        orbit = []
        m = mono
        while m not in seen:
            seen.add(m)
            orbit.append(m)
            m = m[1:] + m[:1]
        size = len(orbit)
        rep = min(orbit, key=grevlex_key)
        weight = sum(i * ex for i, ex in enumerate(rep))
        b = (-e * weight) % n
        for a in range(n):
            if (a * size) % n != 0:
                continue
            terms: dict[tuple, Cyclo] = {}
            for j in range(n):
                key = rep[j:] + rep[:j]
                coeff = eps ** ((-a * j) % n)
                terms[key] = terms.get(key, Cyclo(0)) + coeff
            v = MultiPoly(vars_, terms, one)
            lead = v.coeff(rep)
            v = v * lead.inverse()
            blocks.setdefault((a, b), []).append(v)
    return blocks


def _f_entry(kind: int, a: int) -> MultiPoly:
    """Closed form of the degree-3 representative for character (a, kind)."""
    one = Cyclo(1)
    vars3 = ("x0", "x1", "x2")
    w = EPS3 ** a
    w2 = EPS3 ** (2 * a)
    monos = {
        0: [(3, 0, 0), (0, 3, 0), (0, 0, 3)],
        1: [(1, 2, 0), (0, 1, 2), (2, 0, 1)],
        2: [(2, 1, 0), (0, 2, 1), (1, 0, 2)],
    }[kind]
    return MultiPoly(vars3, {monos[0]: one, monos[1]: w, monos[2]: w2}, one)


def _reference_table() -> dict[tuple[int, int], MultiPoly]:
    table = {}
    for a in (1, 2):
        table[(a, 0)] = _f_entry(0, a)
    for a in (0, 1, 2):
        table[(a, 1)] = _f_entry(1, a)
    for a in (0, 1, 2):
        table[(a, 2)] = _f_entry(2, a)
    # the recorded reference listing repeats the (2,1) polynomial in the
    # (2,2) slot; kept verbatim so the validator can flag the defect
    table[(2, 2)] = _f_entry(1, 2)
    return table


#: the eight nontrivial degree-3 invariants as recorded in the reference
#: listing; entry (2,2) is a known transcription defect
REFERENCE_CHARACTER_TABLE = _reference_table()


def validate_character_table() -> dict:
    """Computed eigenbasis vs the recorded listing; the report carries
    every mismatch explicitly instead of silently correcting it.

    It passes when the invariant block is 2-dimensional, every other
    character 1-dimensional, and (2, 2) the only mismatched slot.
    """
    blocks = character_decomposition(3, 3)
    dims = {label: len(basis) for label, basis in blocks.items()}
    mismatches = []
    matches = []
    computed_nontrivial = {}
    for label, reference in sorted(REFERENCE_CHARACTER_TABLE.items()):
        basis = blocks.get(label, [])
        assert len(basis) == 1, "nontrivial character %r is not 1-dimensional" % (label,)
        computed = basis[0]
        computed_nontrivial[label] = computed
        if computed == reference:
            matches.append(label)
        else:
            mismatches.append({
                "label": label,
                "recorded": reference.render(),
                "computed": computed.render(),
            })
    checks = Checks()
    checks.add("degree three eigenspace dimensions",
               dims.get((0, 0)) == 2 and sum(dims.values()) == 10
               and all(v == 1 for k, v in dims.items() if k != (0, 0)),
               "total %d; %s" % (sum(dims.values()),
                                 ", ".join("(%d,%d): %d" % (k[0], k[1], v)
                                           for k, v in sorted(dims.items()))))
    labels = [m["label"] for m in mismatches]
    flagged = "; ".join("label %s recorded %s, computed %s"
                        % (m["label"], m["recorded"], m["computed"])
                        for m in mismatches) or "none"
    checks.add("character listing mismatch flagged", labels == [(2, 2)],
               "mismatched labels %s; %s" % (labels, flagged))
    return {
        "passed": checks.passed,
        "checks": checks.records,
        "dims": dims,
        "matches": matches,
        "mismatches": mismatches,
        "computed": computed_nontrivial,
    }


# -- the four distinguished line triples -------------------------------


def _lines(*rows: Sequence[int | Cyclo]) -> tuple[tuple[Cyclo, ...], ...]:
    return tuple(tuple(Cyclo(c) for c in row) for row in rows)


_W = EPS3
_W2 = EPS3 ** 2

#: line triples (coefficient vectors of linear forms) indexed by the
#: four order-3 subgroup labels; their products are the split cubics
TRIANGLE_LINES: dict[tuple[int, int], tuple[tuple[Cyclo, ...], ...]] = {
    (0, 1): _lines((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    (1, 0): _lines((1, _W, _W2), (1, _W2, _W), (1, 1, 1)),
    (1, 1): _lines((1, _W2, _W2), (1, 1, _W), (1, _W, 1)),
    (1, 2): _lines((1, 1, _W2), (1, _W, _W), (1, _W2, 1)),
}


def projective_normalize(vec: Sequence) -> tuple:
    """Scale so the first nonzero coordinate is 1 (exact fields only)."""
    for c in vec:
        if c != c * 0:
            inv = 1 / c
            return tuple(inv * x for x in vec)
    raise ValueError("cannot normalize the zero vector")


def _cross(u: Sequence, v: Sequence) -> tuple:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


# -- the plane involution ----------------------------------------------


def iota3_on_polynomial(f: MultiPoly) -> MultiPoly:
    """Coordinate swap x1 <-> x2, the involution fixing every pencil member."""
    if len(f.vars) != 3:
        raise ValueError("the plane involution needs 3 variables")
    out = {}
    for (e0, e1, e2), c in f.term_items():
        out[(e0, e2, e1)] = c
    return MultiPoly(f.vars, out, f.one)


def iota3_on_point(p: Sequence) -> tuple:
    if len(p) != 3:
        raise ValueError("the plane involution needs 3 coordinates")
    return (p[0], p[2], p[1])
