"""Exact intersection-number ledgers for the quintic threefolds and scroll.

Divisor classes live in small fixed lattices whose products are entered in
a declarative text file, one audited integer per unordered product, and
checked for completeness at load time.  The verification routines replay
the numerical arguments that pin down the degree-15 surfaces: the degree
of the embedded ruled surface, the double point formula, the splitting of
five hyperplane sections into canonical, adjoint and pencil pieces, and
the vanishing of the fiber correction when the hyperplane classes of the
two quintic presentations are compared.

Nothing here derives intersection numbers from geometry; the point is the
opposite discipline.  Every number is entered exactly once, in a file a
reviewer can audit line by line, and every claim is an integer identity
evaluated against that table.  Slots that are never needed are named in
the file with an explicit "?" and fenced off: arithmetic that touches one
raises instead of silently inventing a value.
"""

from __future__ import annotations

from importlib import resources
from itertools import combinations_with_replacement
from itertools import product as cartesian
from math import prod

from .checks import Checks

TABLE_RESOURCE = "lattice_tables.txt"

#: number of factors in a product, by section kind
ARITY = {"triple": 3, "surface": 2}


class Form:
    """Symmetric integer form of one arity on a named basis: triple
    products on a threefold (arity 3) or a pairing on a surface (arity 2).

    The table is keyed by sorted index tuples, so symmetry holds by
    construction; a None value is a slot named but not recorded.
    """

    __slots__ = ("name", "basis", "arity", "table")

    def __init__(self, name: str, basis: tuple, arity: int, table: dict):
        basis = tuple(basis)
        expected = set(combinations_with_replacement(range(len(basis)), arity))
        if set(table) != expected:
            missing = expected - set(table)
            raise ValueError(f"form {name!r} is missing products {sorted(missing)}")
        for key, value in table.items():
            if value is not None and not isinstance(value, int):
                raise ValueError(f"product {key} in {name!r} is not an integer")
        self.name = name
        self.basis = basis
        self.arity = arity
        self.table = dict(table)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Form) and self.name == other.name
                and self.basis == other.basis and self.arity == other.arity
                and self.table == other.table)

    def __repr__(self) -> str:
        return f"Form({self.name!r}, arity={self.arity}, basis={self.basis})"

    def unknown_slots(self) -> tuple:
        return tuple(
            tuple(self.basis[i] for i in key)
            for key in sorted(self.table)
            if self.table[key] is None
        )

    def product(self, *indices: int) -> int:
        key = tuple(sorted(indices))
        value = self.table[key]
        if value is None:
            names = ".".join(self.basis[t] for t in key)
            raise ValueError(f"product {names} is named but not recorded in {self.name!r}")
        return value


class DivisorClass:
    """Integer coefficient vector over a fixed form, with a display name."""

    __slots__ = ("form", "coeffs", "name")

    def __init__(self, form, coeffs, name: str = ""):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != len(form.basis):
            raise ValueError(
                f"{len(coeffs)} coefficients given for basis of size {len(form.basis)}")
        self.form = form
        self.coeffs = coeffs
        self.name = name

    def _require_same_form(self, other: "DivisorClass") -> None:
        if not (self.form is other.form or self.form == other.form):
            raise ValueError(
                f"classes live on different forms: {self.form.name!r} vs {other.form.name!r}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, DivisorClass) and self.form == other.form
                and self.coeffs == other.coeffs)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_form(other)
        return DivisorClass(self.form, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_form(other)
        return DivisorClass(self.form, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.form, [-a for a in self.coeffs])

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(self.form, [scalar * a for a in self.coeffs])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        body = " + ".join(f"{c}*{b}" for c, b in zip(self.coeffs, self.form.basis) if c)
        return f"DivisorClass({self.form.name!r},{label} {body or '0'})"


def intersection(*classes: DivisorClass) -> int:
    """Multilinear expansion of classes against their common form's table.

    Only nonzero coefficients are expanded, so a fenced slot is reached
    only through a nonzero coefficient.  The class count must equal the
    form's arity.
    """
    for other in classes[1:]:
        classes[0]._require_same_form(other)
    form = classes[0].form
    if len(classes) != form.arity:
        raise TypeError(f"form {form.name!r} takes {form.arity} classes, got {len(classes)}")
    nonzero = [[(i, c) for i, c in enumerate(d.coeffs) if c] for d in classes]
    total = 0
    for picks in cartesian(*nonzero):
        indices, coeffs = zip(*picks)
        total += prod(coeffs) * form.product(*indices)
    return total


# ---------------------------------------------------------------------------
# declarative table file


def _parse_value(text: str, where: str):
    if text == "?":
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad product value {text!r} in {where}") from None


def parse_tables(text: str) -> dict:
    """Parse the declarative table file into named forms.

    Sections are "[triple NAME]" or "[surface NAME]"; each needs a basis
    line followed by one line per unordered product.  Duplicates, unknown
    basis names, non-integer values and missing products are all errors,
    so a typo in the file fails loudly rather than skewing a ledger.
    """
    forms: dict = {}
    kind = name = None
    basis: tuple = ()
    entries: dict = {}

    def close_section():
        if kind is None:
            return
        if not basis:
            raise ValueError(f"section {name!r} has no basis line")
        index = {b: i for i, b in enumerate(basis)}
        table = {}
        for key_names, value in entries.items():
            key = tuple(sorted(index[k] for k in key_names))
            table[key] = value
        if kind == "surface" and any(v is None for v in table.values()):
            raise ValueError(f"surface form {name!r} may not contain '?' slots")
        forms[name] = Form(name, basis, ARITY[kind], table)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {lineno}"
        if line.startswith("[") and line.endswith("]"):
            close_section()
            header = line[1:-1].split()
            if len(header) != 2 or header[0] not in ARITY:
                raise ValueError(f"bad section header {line!r} at {where}")
            kind, name = header
            if name in forms:
                raise ValueError(f"duplicate section {name!r} at {where}")
            basis = ()
            entries = {}
            continue
        if kind is None:
            raise ValueError(f"content before any section header at {where}")
        if line.startswith("basis:"):
            if basis:
                raise ValueError(f"second basis line in {name!r} at {where}")
            basis = tuple(line[len("basis:"):].split())
            if len(set(basis)) != len(basis):
                raise ValueError(f"repeated basis name in {name!r} at {where}")
            continue
        if "=" not in line:
            raise ValueError(f"unparseable line {line!r} at {where}")
        left, _, right = line.partition("=")
        key_names = tuple(sorted(left.strip().split(".")))
        arity = ARITY[kind]
        if len(key_names) != arity:
            raise ValueError(f"product {left.strip()!r} at {where} needs {arity} factors")
        for factor in key_names:
            if factor not in basis:
                raise ValueError(f"unknown basis name {factor!r} at {where}")
        if key_names in entries:
            raise ValueError(f"duplicate product {left.strip()!r} at {where}")
        entries[key_names] = _parse_value(right.strip(), where)
    close_section()
    return forms


def default_tables() -> dict:
    """The forms of the packaged table file, parsed afresh on every call."""
    text = resources.files(__package__).joinpath(TABLE_RESOURCE).read_text(encoding="ascii")
    return parse_tables(text)


def chordal_form() -> Form:
    return default_tables()["chordal"]


def blowup_form() -> Form:
    return default_tables()["blowup"]


def scroll_form() -> Form:
    return default_tables()["scroll"]


def chordal_classes() -> dict:
    """Named classes on the line-bundle presentation of the chordal quintic."""
    form = chordal_form()
    hyperplane = DivisorClass(form, (1, 0, 0), "hyperplane")
    section = DivisorClass(form, (0, 1, 0), "section")
    ruling = DivisorClass(form, (0, 0, 1), "ruling")
    ruled_surface = DivisorClass(form, (1, -2, 6), "ruled_surface")
    canonical = DivisorClass(form, (-2, 1, 2), "canonical")
    adjoint = DivisorClass(form, (3, -3, 4), "adjoint_surface")
    pencil = DivisorClass(form, (0, 4, -2), "pencil")
    return {
        "hyperplane": hyperplane,
        "section": section,
        "ruling": ruling,
        "ruled_surface": ruled_surface,
        "canonical": canonical,
        "adjoint_surface": adjoint,
        "pencil": pencil,
    }


def blowup_classes() -> dict:
    """Named classes on the blow-up presentation of the same threefold."""
    form = blowup_form()
    return {
        "hyperplane": DivisorClass(form, (1, 0, 0), "hyperplane"),
        "exceptional": DivisorClass(form, (0, 1, 0), "exceptional"),
        "fiber": DivisorClass(form, (0, 0, 1), "fiber"),
        "chordal_hyperplane": DivisorClass(form, (2, -1, 0), "chordal_hyperplane"),
    }


def scroll_classes() -> dict:
    """Named curve classes on the quintic scroll."""
    form = scroll_form()
    return {
        "section": DivisorClass(form, (1, 0), "section"),
        "ruling": DivisorClass(form, (0, 1), "ruling"),
        "hyperplane": DivisorClass(form, (1, 2), "hyperplane"),
        "canonical": DivisorClass(form, (-2, 1), "canonical"),
        "diagonal_curve": DivisorClass(form, (4, -2), "diagonal_curve"),
        "surface_trace": DivisorClass(form, (1, 12), "surface_trace"),
    }


# ---------------------------------------------------------------------------
# verification routines


def verify_halved_hyperplane_class() -> dict:
    """Certify that the chordal hyperplane halves, with no fiber correction.

    On the blow-up presentation the chordal hyperplane class is twice the
    pulled-back hyperplane minus the exceptional wall, up to a possible
    multiple of the fiber class.  Cubing both sides pins the multiple:
    the right side must cube to five, and nine times the correction must
    make up any difference.  It does not, exactly: the correction is zero.
    """
    classes = blowup_classes()
    form = blowup_form()
    hyperplane = classes["hyperplane"]
    exceptional = classes["exceptional"]
    halved = classes["chordal_hyperplane"]
    checks = Checks()

    recorded = {
        "hyperplane^3": intersection(hyperplane, hyperplane, hyperplane),
        "hyperplane^2.exceptional": intersection(hyperplane, hyperplane, exceptional),
        "hyperplane.exceptional^2": intersection(hyperplane, exceptional, exceptional),
        "exceptional^3": intersection(exceptional, exceptional, exceptional),
    }
    expected = {
        "hyperplane^3": 5,
        "hyperplane^2.exceptional": 0,
        "hyperplane.exceptional^2": -10,
        "exceptional^3": -25,
    }
    checks.add("recorded products of the blow-up presentation", recorded == expected,
               ", ".join(f"{k} = {v}" for k, v in recorded.items()))

    cube = intersection(halved, halved, halved)
    checks.add("doubled hyperplane minus exceptional wall cubes to five", cube == 5,
               f"(2*hyperplane - exceptional)^3 = 8*5 - 12*0 + 6*(-10) - (-25) = {cube}")

    deficit = 5 - cube
    correction = deficit // 9 if deficit % 9 == 0 else None
    checks.add("fiber correction coefficient vanishes", correction == 0,
               f"5 - {cube} = 9 * {correction}")

    fiber_squares = [form.product(2, 2, t) for t in range(3)]
    checks.add("fiber square annihilates every class", fiber_squares == [0, 0, 0],
               f"fiber.fiber.* = {fiber_squares}")

    unknown = form.unknown_slots()
    fenced = unknown == (
        ("hyperplane", "hyperplane", "fiber"),
        ("hyperplane", "exceptional", "fiber"),
        ("exceptional", "exceptional", "fiber"),
    )
    try:
        form.product(0, 0, 2)
        raised = False
    except ValueError:
        raised = True
    checks.add("unrecorded mixed fiber slots stay fenced",
               len(unknown) == 3 and raised and fenced,
               f"{len(unknown)} slots named but unrecorded; arithmetic on them raises")

    return {"passed": checks.passed, "checks": checks.records}


def verify_double_point_formula() -> dict:
    """Replay the degree computation for the embedded degree-15 surfaces.

    The double point formula for a smooth surface in four-space reads
    d^2 = 10d + 5HK + K^2 - e.  With HK = 25, K^2 = -25 and Euler number
    e = 25 this becomes d(d - 10) = 75, whose only positive root is 15.
    The scroll-side ledgers are replayed as well: the canonical class of
    the scroll squares to zero, the diagonal image meets a hyperplane in
    ten points, and five hyperplane sections minus a surface trace equal
    the anticanonical pencil class once all fibers are merged.
    """
    classes = scroll_classes()
    section = classes["section"]
    ruling = classes["ruling"]
    hyperplane = classes["hyperplane"]
    canonical = classes["canonical"]
    diagonal = classes["diagonal_curve"]
    trace = classes["surface_trace"]
    checks = Checks()

    hk, ksq, euler = 25, -25, 25
    constant = 5 * hk + ksq - euler
    roots = sorted(d for d in range(-200, 201) if d * d == 10 * d + constant)
    positive = [d for d in roots if d > 0]
    checks.add("double point formula forces degree fifteen",
               constant == 75 and roots == [-5, 15] and positive == [15],
               f"d(d - 10) = {constant}; integer roots {roots}; positive root {positive}")

    ksq_scroll = intersection(canonical, canonical)
    checks.add("scroll canonical class squares to zero", ksq_scroll == 0,
               f"(-2*section + ruling)^2 = {ksq_scroll}")

    ten = intersection(diagonal, hyperplane)
    checks.add("diagonal image meets the hyperplane in ten points", ten == 10,
               f"(4*section - 2*ruling).(section + 2*ruling) = {ten}")

    residue = 5 * hyperplane - trace
    anticanonical_double = -2 * canonical
    merged = DivisorClass(scroll_form(), (4, -2))
    checks.add("five hyperplanes minus a surface trace give the pencil class",
               residue == merged and anticanonical_double == merged,
               f"5*(1,2) - (1,12) = {residue.coeffs}; -2*canonical = "
               f"{anticanonical_double.coeffs}; both equal (4, -2) with fibers merged")

    return {"passed": checks.passed, "checks": checks.records}


def verify_degree15_surfaces() -> dict:
    """Certify the degree-15 classes on the chordal presentation.

    The embedded ruled surface and the adjoint surfaces all meet two
    hyperplanes in fifteen points, the adjoint class is minus the
    canonical class plus the ruled-surface class, five hyperplane
    sections split exactly into canonical, adjoint and pencil pieces,
    and the degree is confirmed independently on the blown-up abelian
    model, where the hyperplane is twice a degree-ten polarization minus
    twenty-five disjoint exceptional lines.
    """
    classes = chordal_classes()
    hyperplane = classes["hyperplane"]
    ruled = classes["ruled_surface"]
    canonical = classes["canonical"]
    adjoint = classes["adjoint_surface"]
    pencil = classes["pencil"]
    checks = Checks()

    degree = intersection(hyperplane, hyperplane, hyperplane)
    checks.add("hyperplane cubes to the quintic degree", degree == 5,
               f"hyperplane^3 = {degree}")

    ruled_degree = intersection(ruled, hyperplane, hyperplane)
    checks.add("ruled surface class has degree fifteen", ruled_degree == 15,
               f"(1,-2,6).hyperplane^2 = 5 - 2*4 + 6*3 = {ruled_degree}")

    derived = -canonical + ruled
    checks.add("adjoint class is minus canonical plus ruled surface",
               derived == adjoint and adjoint.coeffs == (3, -3, 4),
               f"-(-2,1,2) + (1,-2,6) = {derived.coeffs}")

    adjoint_degree = intersection(adjoint, hyperplane, hyperplane)
    checks.add("adjoint surface class has degree fifteen", adjoint_degree == 15,
               f"(3,-3,4).hyperplane^2 = 3*5 - 3*4 + 4*3 = {adjoint_degree}")

    residual = 5 * hyperplane - (-canonical + adjoint + pencil)
    checks.add("five hyperplanes split into canonical, adjoint and pencil parts",
               residual.is_zero(),
               f"5*hyperplane + canonical - adjoint - pencil = {residual.coeffs}")

    balance = 4 * 10 - 25
    checks.add("blown-up polarization degree balances", balance == 15,
               "(2*polarization - 25 exceptional lines)^2 "
               f"= 4*10 - 25 = {balance} with polarization^2 = 10")

    return {"passed": checks.passed, "checks": checks.records}
