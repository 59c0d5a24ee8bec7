"""The 45-dimensional formal tensor space spanned by y_i (x) x_j,
i mod 15, j mod 3, and the five distinguished invariant combinations

    s_k = sum_j y_(3k+5j) (x) x_j,        k = 0..4.

Three commuting layers of symmetry act here:

  * the diagonal level-3 pair: y_i (x) x_j -> y_(i-5) (x) x_(j-1) and
    the character eps3^(-i-j),
  * a level-5 pair induced from the level-15 action on the y factor
    (shift by 3, and the inverse cubed diagonal character), under which
    the s_k transform like the twisted five-variable representation,
  * the index involution y_i (x) x_j -> y_(-i) (x) x_(-j).

The level-5 identification deserves a note: the raw cube of the
level-15 diagonal character scales s_k by eps5^(+2k); it is the inverse
of that cube which produces the eps5^(-2k) eigenvalues and the
commutator scalar eps5^(-2) of the twist-2 convention.  The verifier
records both readings instead of hiding the choice.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .checks import Checks
from .heisenberg import HeisenbergElement
from .scalars import Cyclo, EPS5, cyclo_root_of_unity

EPS15_ROOT = cyclo_root_of_unity(15)


class FormalTensor:
    """Exact linear combination of basis symbols y_i (x) x_j."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Cyclo | int] | None = None):
        clean: dict[tuple[int, int], Cyclo] = {}
        if terms:
            for (i, j), c in terms.items():
                c = Cyclo(c)
                if c.is_zero():
                    continue
                key = (i % 15, j % 3)
                acc = clean.get(key, Cyclo(0)) + c
                if acc.is_zero():
                    clean.pop(key, None)
                else:
                    clean[key] = acc
        self.terms = clean

    @classmethod
    def basis(cls, i: int, j: int) -> "FormalTensor":
        return cls({(i, j): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FormalTensor") -> "FormalTensor":
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key, Cyclo(0)) + c
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
        return FormalTensor(out)

    def __neg__(self) -> "FormalTensor":
        return FormalTensor({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "FormalTensor") -> "FormalTensor":
        return self + (-other)

    def scale(self, c: Cyclo | int) -> "FormalTensor":
        c = Cyclo(c)
        return FormalTensor({k: v * c for k, v in self.terms.items()})

    def map_terms(self, fn: Callable[[int, int, Cyclo], tuple[int, int, Cyclo]]
                  ) -> "FormalTensor":
        out: dict[tuple[int, int], Cyclo] = {}
        for (i, j), c in self.terms.items():
            ni, nj, nc = fn(i, j, c)
            key = (ni % 15, nj % 3)
            acc = out.get(key, Cyclo(0)) + nc
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
        return FormalTensor(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalTensor):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            sym = "y%d*x%d" % (i, j)
            cs = str(c)
            if cs == "1":
                parts.append(sym)
            elif cs == "-1":
                parts.append("-" + sym)
            elif any(tok in cs for tok in (" + ", " - ", "/")):
                parts.append("(%s)*%s" % (cs, sym))
            else:
                parts.append("%s*%s" % (cs, sym))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return "FormalTensor(%s)" % self.render()


# -- actions -----------------------------------------------------------


def act_on_y(g: HeisenbergElement, t: FormalTensor) -> FormalTensor:
    """Level-15 element acting on the y factor only."""
    if g.level != 15:
        raise ValueError("the y factor carries the level-15 action")
    eps = EPS15_ROOT
    s, tp, e = g.sigma_power, g.tau_power, g.twist

    def fn(i: int, j: int, c: Cyclo):
        return i - s, j, c * g.central * eps ** ((-e * tp * i) % 15)

    return t.map_terms(fn)


def act_on_x(g: HeisenbergElement, t: FormalTensor) -> FormalTensor:
    """Level-3 element acting on the x factor only."""
    if g.level != 3:
        raise ValueError("the x factor carries the level-3 action")
    eps3 = cyclo_root_of_unity(3)
    s, tp, e = g.sigma_power, g.tau_power, g.twist

    def fn(i: int, j: int, c: Cyclo):
        return i, j - s, c * g.central * eps3 ** ((-e * tp * j) % 3)

    return t.map_terms(fn)


def delta_sigma(t: FormalTensor) -> FormalTensor:
    """y_i (x) x_j -> y_(i-5) (x) x_(j-1): the diagonal shift pair."""
    return act_on_x(HeisenbergElement.sigma(3),
                    act_on_y(HeisenbergElement.sigma(15) ** 5, t))


def delta_tau(t: FormalTensor) -> FormalTensor:
    """Scales y_i (x) x_j by eps3^(-i-j): the diagonal character pair."""
    return act_on_x(HeisenbergElement.tau(3),
                    act_on_y(HeisenbergElement.tau(15) ** 5, t))


def h5_sigma(t: FormalTensor) -> FormalTensor:
    """y_i -> y_(i-3), the level-5 shift on sections."""
    return act_on_y(HeisenbergElement.sigma(15) ** 3, t)


def h5_tau(t: FormalTensor) -> FormalTensor:
    """Inverse of the cubed level-15 character: y_i -> eps5^i y_i."""
    return act_on_y((HeisenbergElement.tau(15) ** 3).inverse(), t)


def h5_tau_uninverted(t: FormalTensor) -> FormalTensor:
    """The raw cube y_i -> eps5^(-i) y_i, kept for the identification note."""
    return act_on_y(HeisenbergElement.tau(15) ** 3, t)


def involution(t: FormalTensor) -> FormalTensor:
    """y_i (x) x_j -> y_(-i) (x) x_(-j)."""
    return t.map_terms(lambda i, j, c: (-i, -j, c))


def sections() -> list[FormalTensor]:
    """The five invariant combinations s_k = sum_j y_(3k+5j) (x) x_j."""
    return [
        FormalTensor({((3 * k + 5 * j) % 15, j): 1 for j in range(3)})
        for k in range(5)
    ]


def verify_section_symmetries() -> dict:
    """All symmetry identities of the five sections, exactly.

    Returns a report dict whose `checks` list carries one entry per
    identity; `passed` is the conjunction.
    """
    s = sections()
    checks = Checks()
    for k in range(5):
        checks.add("shift-pair invariance of s%d" % k, delta_sigma(s[k]) == s[k])
        checks.add("character-pair invariance of s%d" % k, delta_tau(s[k]) == s[k])
    for k in range(5):
        checks.add("level-5 shift sends s%d to s%d" % (k, (k - 1) % 5),
                   h5_sigma(s[k]) == s[(k - 1) % 5])
    for k in range(5):
        expected = s[k].scale(EPS5 ** ((-2 * k) % 5))
        checks.add("level-5 character scales s%d by eps5^%d" % (k, (-2 * k) % 5),
                   h5_tau(s[k]) == expected)
    # identification note: the uninverted cube scales by the opposite sign
    uninverted_ok = all(
        h5_tau_uninverted(s[k]) == s[k].scale(EPS5 ** ((2 * k) % 5))
        for k in range(5))
    checks.add("uninverted cube scales s_k by eps5^(+2k) (identification note)",
               uninverted_ok)
    for k in range(5):
        checks.add("involution sends s%d to s%d" % (k, (-k) % 5),
                   involution(s[k]) == s[(-k) % 5])
    # the section-level commutator matches the twist-2 group law
    comm_ok = True
    for k in range(5):
        lhs = h5_sigma(h5_tau(_h5_sigma_inv(_h5_tau_inv(s[k]))))
        if lhs != s[k].scale(EPS5 ** 3):
            comm_ok = False
    law = HeisenbergElement.sigma(5, twist=2) * HeisenbergElement.tau(5, twist=2)
    law = law * (HeisenbergElement.sigma(5, twist=2).inverse()
                 * HeisenbergElement.tau(5, twist=2).inverse())
    checks.add("commutator on sections is eps5^(-2), matching the twist-2 law",
               comm_ok and law.central == EPS5 ** 3)
    return {
        "passed": checks.passed,
        "checks": checks.records,
        "sections": [t.render() for t in s],
    }


def _h5_sigma_inv(t: FormalTensor) -> FormalTensor:
    return act_on_y((HeisenbergElement.sigma(15) ** 3).inverse(), t)


def _h5_tau_inv(t: FormalTensor) -> FormalTensor:
    return act_on_y(HeisenbergElement.tau(15) ** 3, t)
