"""The 45-dimensional tensor space spanned by y_i (x) x_j, i mod 15,
j mod 3, and the five distinguished invariant combinations

    s_k = sum_j y_(3k+5j) (x) x_j,        k = 0..4.

A tensor sum_ij c_ij y_i (x) x_j is stored as the triple (f_0, f_1, f_2)
of its x_j coefficients: f_j = sum_i c_ij y_i, a linear MultiPoly over
y0..y14 with Cyclo coefficients.  Both factors are acted on through
HeisenbergElement.act alone.  A level-15 element acts on each form, and
a level-3 element sends x_j to the single term c x_(j-s), which moves
f_j to slot j - s scaled by c.

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

from .checks import Checks
from .heisenberg import HeisenbergElement
from .multipoly import MultiPoly
from .scalars import Cyclo, EPS5

_ONE = Cyclo(1)
_Y = tuple("y%d" % i for i in range(15))
#: the generators x0, x1, x2 of the x factor
_XS = tuple(MultiPoly.gens(("x0", "x1", "x2"), _ONE))
#: the 45 products y_i (x) x_j as variable names, in (i, j) order
_PRODUCTS = tuple("y%d*x%d" % (i, j) for i in range(15) for j in range(3))

#: sum_j f_j (x) x_j, as the linear forms (f_0, f_1, f_2) in y0..y14
Tensor = tuple[MultiPoly, MultiPoly, MultiPoly]


def _unit(k: int, n: int) -> tuple[int, ...]:
    return tuple(int(i == k) for i in range(n))


def tensor(coeffs: dict[tuple[int, int], Cyclo | int]) -> Tensor:
    """sum c y_i (x) x_j over the items ((i, j), c) of coeffs, with i
    reduced mod 15 and j mod 3; keys equal after reduction add up."""
    forms: list[dict[int, Cyclo | int]] = [{}, {}, {}]
    for (i, j), c in coeffs.items():
        terms = forms[j % 3]
        terms[i % 15] = terms.get(i % 15, 0) + c
    return tuple(MultiPoly(_Y, {_unit(i, 15): c for i, c in terms.items()}, _ONE)
                 for terms in forms)


def render(t: Tensor) -> str:
    """Text form of a tensor: its terms c*yi*xj in (i, j) order, written
    as a linear form in the 45 products (grevlex lists the terms of a
    linear form in the order of its variables)."""
    terms = {_unit(3 * mono.index(1) + j, 45): c
             for j, f in enumerate(t) for mono, c in f.term_items()}
    return MultiPoly(_PRODUCTS, terms, _ONE).render()


# -- actions -----------------------------------------------------------


def act_on_y(g: HeisenbergElement, t: Tensor) -> Tensor:
    """Level-15 element acting on the y factor only."""
    return tuple(g.act(f) for f in t)


def act_on_x(g: HeisenbergElement, t: Tensor) -> Tensor:
    """Level-3 element acting on the x factor only: the image c x_(j-s)
    of x_j carries f_j to slot j - s, scaled by c."""
    out = [None] * 3
    for f, x in zip(t, _XS):
        (mono, c), = g.act(x).term_items()
        out[mono.index(1)] = f * c
    return tuple(out)


def delta_sigma(t: Tensor) -> Tensor:
    """y_i (x) x_j -> y_(i-5) (x) x_(j-1): the diagonal shift pair."""
    return act_on_x(HeisenbergElement.sigma(3),
                    act_on_y(HeisenbergElement.sigma(15) ** 5, t))


def delta_tau(t: Tensor) -> Tensor:
    """Scales y_i (x) x_j by eps3^(-i-j): the diagonal character pair."""
    return act_on_x(HeisenbergElement.tau(3),
                    act_on_y(HeisenbergElement.tau(15) ** 5, t))


def h5_sigma(t: Tensor) -> Tensor:
    """y_i -> y_(i-3), the level-5 shift on sections."""
    return act_on_y(HeisenbergElement.sigma(15) ** 3, t)


def h5_tau(t: Tensor) -> Tensor:
    """Inverse of the cubed level-15 character: y_i -> eps5^i y_i."""
    return act_on_y((HeisenbergElement.tau(15) ** 3).inverse(), t)


def h5_tau_uninverted(t: Tensor) -> Tensor:
    """The raw cube y_i -> eps5^(-i) y_i: the inverse of h5_tau, and the
    map of the identification note."""
    return act_on_y(HeisenbergElement.tau(15) ** 3, t)


def involution(t: Tensor) -> Tensor:
    """y_i (x) x_j -> y_(-i) (x) x_(-j): the exponent of y_i in each form
    moves to y_(-i), and f_1 and f_2 change places."""
    f0, f1, f2 = (MultiPoly(_Y, {m[:1] + m[:0:-1]: c for m, c in f.term_items()}, _ONE)
                  for f in t)
    return f0, f2, f1


def sections() -> list[Tensor]:
    """The five invariant combinations s_k = sum_j y_(3k+5j) (x) x_j."""
    return [tensor({(3 * k + 5 * j, j): 1 for j in range(3)}) for k in range(5)]


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
        expected = tuple(f * EPS5 ** ((-2 * k) % 5) for f in s[k])
        checks.add("level-5 character scales s%d by eps5^%d" % (k, (-2 * k) % 5),
                   h5_tau(s[k]) == expected)
    # identification note: the uninverted cube scales by the opposite sign
    uninverted_ok = all(
        h5_tau_uninverted(s[k]) == tuple(f * EPS5 ** ((2 * k) % 5) for f in s[k])
        for k in range(5))
    checks.add("uninverted cube scales s_k by eps5^(+2k) (identification note)",
               uninverted_ok)
    for k in range(5):
        checks.add("involution sends s%d to s%d" % (k, (-k) % 5),
                   involution(s[k]) == s[(-k) % 5])
    # the section-level commutator matches the twist-2 group law
    comm_ok = True
    for k in range(5):
        lhs = h5_sigma(h5_tau(_h5_sigma_inv(h5_tau_uninverted(s[k]))))
        if lhs != tuple(f * EPS5 ** 3 for f in s[k]):
            comm_ok = False
    law = HeisenbergElement.sigma(5, twist=2) * HeisenbergElement.tau(5, twist=2)
    law = law * (HeisenbergElement.sigma(5, twist=2).inverse()
                 * HeisenbergElement.tau(5, twist=2).inverse())
    checks.add("commutator on sections is eps5^(-2), matching the twist-2 law",
               comm_ok and law.central == EPS5 ** 3)
    return {
        "passed": checks.passed,
        "checks": checks.records,
        "sections": [render(t) for t in s],
    }


def _h5_sigma_inv(t: Tensor) -> Tensor:
    return act_on_y((HeisenbergElement.sigma(15) ** 3).inverse(), t)
