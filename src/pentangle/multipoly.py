"""Sparse multivariate polynomials over exact scalar fields.

Terms are stored as a map from exponent tuples to nonzero coefficients.
The monomial order is graded reverse lexicographic everywhere; rendering
and equality both rely on it being canonical.

Matrices of polynomials (PolyMatrix) come with two independent exact
determinant routes, cofactor expansion and fraction-free Bareiss
elimination, so each can serve as the other's oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .scalars import Fp, RatFunc, _power

_F1 = Fraction(1)


def grevlex_key(mono: Sequence[int]):
    """Sort key: ascending order lists monomials from grevlex-largest down."""
    return (-sum(mono), tuple(reversed(mono)))


def monomials(degree: int, nvars: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree `degree` in `nvars` variables,
    in lexicographically descending order."""
    if nvars == 1:
        return [(degree,)]
    return [(lead,) + rest for lead in range(degree, -1, -1)
            for rest in monomials(degree - lead, nvars - 1)]


class MultiPoly:
    """Immutable sparse polynomial over a duck-typed exact field."""

    __slots__ = ("vars", "terms", "one", "zero_coeff")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, object] | None = None,
                 one=_F1):
        self.vars = tuple(vars)
        self.one = one
        self.zero_coeff = one * 0
        clean = {}
        if terms:
            for mono, c in terms.items():
                if isinstance(c, int):
                    c = one * c
                if len(mono) != len(self.vars):
                    raise ValueError("exponent width %d does not match %d variables"
                                     % (len(mono), len(self.vars)))
                if not c:
                    continue
                mono = tuple(int(e) for e in mono)
                if any(e < 0 for e in mono):
                    raise ValueError("negative exponent in %r" % (mono,))
                clean[mono] = clean[mono] + c if mono in clean else c
                if not clean[mono]:
                    del clean[mono]
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str], one=_F1) -> "MultiPoly":
        return cls(vars, {}, one)

    @classmethod
    def constant(cls, vars: Sequence[str], value, one=_F1) -> "MultiPoly":
        return cls(vars, {(0,) * len(vars): value}, one)

    @classmethod
    def variable(cls, name: str, vars: Sequence[str], one=_F1) -> "MultiPoly":
        idx = list(vars).index(name)
        mono = tuple(1 if i == idx else 0 for i in range(len(vars)))
        return cls(vars, {mono: one}, one)

    @classmethod
    def gens(cls, vars: Sequence[str], one=_F1) -> list["MultiPoly"]:
        return [cls.variable(v, vars, one) for v in vars]

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: tuple):
        return self.terms.get(tuple(mono), self.zero_coeff)

    def total_degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms, else None."""
        if not self.terms:
            return None
        degs = {sum(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self) -> list[tuple[tuple, object]]:
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def leading_term(self) -> tuple[tuple, object]:
        if not self.terms:
            raise ValueError("leading term of the zero polynomial")
        mono = min(self.terms, key=grevlex_key)
        return mono, self.terms[mono]

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("variable sets differ: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self + MultiPoly.constant(self.vars, other, self.one)
        self._check_compatible(other)
        zero = self.zero_coeff
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono, zero) + c
            if not acc:
                out.pop(mono, None)
            else:
                out[mono] = acc
        return _mk(self.vars, out, self.one, zero)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _mk(self.vars, {m: -c for m, c in self.terms.items()}, self.one,
                   self.zero_coeff)

    def __sub__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other, self.one)
        return self + (-other)

    def __rsub__(self, other: object) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if isinstance(other, int):
                other = self.one * other
            if not other:
                return MultiPoly.zero(self.vars, self.one)
            return _mk(self.vars, {m: c * other for m, c in self.terms.items()},
                       self.one, self.zero_coeff)
        self._check_compatible(other)
        zero = self.zero_coeff
        out: dict[tuple, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc = out.get(mono, zero) + c1 * c2
                if not acc:
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        return _mk(self.vars, out, self.one, zero)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return _power(MultiPoly.constant(self.vars, self.one, self.one), self, n)

    def exact_div(self, g: "MultiPoly") -> "MultiPoly":
        """Quotient self/g when g divides exactly; raises otherwise."""
        self._check_compatible(g)
        if g.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        zero = self.zero_coeff
        g_mono, g_coeff = g.leading_term()
        rem = dict(self.terms)
        quot: dict[tuple, object] = {}
        while rem:
            mono = min(rem, key=grevlex_key)
            diff = tuple(a - b for a, b in zip(mono, g_mono))
            if any(e < 0 for e in diff):
                raise ValueError("not exactly divisible")
            c = rem[mono] / g_coeff
            quot[diff] = quot.get(diff, zero) + c
            for m2, c2 in g.terms.items():
                tm = tuple(a + b for a, b in zip(diff, m2))
                acc = rem.get(tm, zero) - c * c2
                if not acc:
                    rem.pop(tm, None)
                else:
                    rem[tm] = acc
        return _mk(self.vars, quot, self.one, zero)

    # -- calculus and evaluation ---------------------------------------

    def partial_derivative(self, var: str) -> "MultiPoly":
        """Formal d/d var; guards against small positive characteristic."""
        try:
            idx = list(self.vars).index(var)
        except ValueError:
            raise ValueError("unknown variable %r" % (var,)) from None
        if isinstance(self.one, Fp):
            deg = self.total_degree()
            if 0 <= self.one.p <= deg:
                raise ValueError("characteristic %d too small for degree %d"
                                 % (self.one.p, deg))
        zero = self.zero_coeff
        out: dict[tuple, object] = {}
        for mono, c in self.terms.items():
            e = mono[idx]
            if e == 0:
                continue
            m2 = mono[:idx] + (e - 1,) + mono[idx + 1:]
            acc = out.get(m2, zero) + c * e
            if not acc:
                out.pop(m2, None)
            else:
                out[m2] = acc
        return _mk(self.vars, out, self.one, zero)

    def eval_at(self, point: Sequence) -> object:
        """Value at a full point; coordinates live in the coefficient field."""
        if len(point) != len(self.vars):
            raise ValueError("point dimension %d != %d" % (len(point), len(self.vars)))
        acc = self.zero_coeff
        for mono, c in self.terms.items():
            term = c
            for v, e in zip(point, mono):
                for _ in range(e):
                    term = term * v
            acc = acc + term
        return acc

    def split_by(self, subset: Sequence[str]) -> dict[tuple, "MultiPoly"]:
        """Group terms by their exponents in `subset`; values keep all variables."""
        idxs = [list(self.vars).index(v) for v in subset]
        idxset = set(idxs)
        groups: dict[tuple, dict] = {}
        for mono, c in self.terms.items():
            key = tuple(mono[i] for i in idxs)
            rest = tuple(0 if i in idxset else e for i, e in enumerate(mono))
            groups.setdefault(key, {})[rest] = c
        return {k: _mk(self.vars, t, self.one, self.zero_coeff)
                for k, t in groups.items()}

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, int) and other == 0:
            return self.is_zero()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return "MultiPoly(%s)" % self.render()

    def render(self) -> str:
        """Canonical text form: grevlex-descending, explicit coefficients."""
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            mon = "*".join(
                v if e == 1 else "%s^%d" % (v, e)
                for v, e in zip(self.vars, mono) if e
            )
            cs = str(c)
            composite = any(tok in cs for tok in (" + ", " - ", "/"))
            if not mon:
                parts.append("(%s)" % cs if composite else cs)
            elif cs == "1":
                parts.append(mon)
            elif cs == "-1":
                parts.append("-" + mon)
            elif composite:
                parts.append("(%s)*%s" % (cs, mon))
            else:
                parts.append("%s*%s" % (cs, mon))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _mk(vars: tuple, terms: dict, one, zero) -> MultiPoly:
    """A polynomial from already clean terms, with its ring's one and zero
    passed down instead of recomputed."""
    obj = MultiPoly.__new__(MultiPoly)
    object.__setattr__(obj, "vars", vars)
    object.__setattr__(obj, "terms", terms)
    object.__setattr__(obj, "one", one)
    object.__setattr__(obj, "zero_coeff", zero)
    return obj


# -- scalar linear algebra (exact, duck typed) -------------------------


def _rref(a: list[list], one, ncols: int) -> list[int]:
    """Reduce the rows of `a` in place to reduced row echelon form.

    Pivots are sought in the first `ncols` columns only, while every
    update runs to the end of the row, so an augmented column is carried
    along.  Returns the pivot columns.
    """
    zero = one * 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(a)) if a[i][col] != zero), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = one / a[row][col]
        a[row][col:] = [x * inv for x in a[row][col:]]
        for i in range(len(a)):
            if i != row and a[i][col] != zero:
                f = a[i][col]
                a[i][col:] = [x - f * y for x, y in zip(a[i][col:], a[row][col:])]
        pivots.append(col)
        row += 1
        if row == len(a):
            break
    return pivots


def scalar_matrix_rank(rows: Sequence[Sequence], one) -> int:
    a = [list(r) for r in rows]
    if not a:
        return 0
    return len(_rref(a, one, len(a[0])))


def scalar_matrix_nullspace(rows: Sequence[Sequence], one) -> list[list]:
    """Basis of the right kernel, exact over the coefficient field."""
    a = [list(r) for r in rows]
    if not a:
        return []
    ncols = len(a[0])
    pivots = _rref(a, one, ncols)
    zero = one * 0
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def solve_linear_system(rows: Sequence[Sequence], targets: Sequence[Sequence],
                        one, ncols: int) -> list:
    """For each right-hand side b in `targets`, one exact solution of
    A x = b, or None when b is inconsistent; A is `rows`, with `ncols`
    columns (given, since A may have no rows).

    Every target rides along as an extra column of one augmented matrix,
    so A is reduced once.  The reduced row echelon form is unique, so
    each answer is the one a solve of its target alone gives.  Free
    variables are set to zero, so the answers are deterministic.
    """
    if any(len(b) != len(rows) for b in targets):
        raise ValueError("every target needs one entry per row")
    a = [list(r) + [b[i] for b in targets] for i, r in enumerate(rows)]
    pivots = _rref(a, one, ncols)
    zero = one * 0
    out = []
    for col in range(ncols, ncols + len(targets)):
        if any(r[col] != zero for r in a[len(pivots):]):
            out.append(None)
            continue
        x = [zero] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = a[r][col]
        out.append(x)
    return out


# -- polynomial matrices ----------------------------------------------


class PolyMatrix:
    """Rectangular matrix of MultiPoly entries over one variable set."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        rows = [tuple(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        v0 = rows[0][0].vars
        for r in rows:
            for e in r:
                if e.vars != v0:
                    raise ValueError("entries over different variable sets")
        self.entries = tuple(rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def vars(self) -> tuple:
        return self.entries[0][0].vars

    @property
    def one(self):
        return self.entries[0][0].one

    def __getitem__(self, ij: tuple[int, int]) -> MultiPoly:
        return self.entries[ij[0]][ij[1]]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(list(zip(*self.entries)))

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix([[-a for a in r] for r in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        zero = MultiPoly.zero(self.vars, self.one)
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def apply_vector(self, vec: Sequence[MultiPoly]) -> list[MultiPoly]:
        zero = MultiPoly.zero(self.vars, self.one)
        out = []
        for i in range(self.nrows):
            acc = zero
            for k in range(self.ncols):
                acc = acc + self.entries[i][k] * vec[k]
            out.append(acc)
        return out

    def is_symmetric(self) -> bool:
        return all(self.entries[i][j] == self.entries[j][i]
                   for i in range(self.nrows) for j in range(i + 1, self.ncols))

    def is_antisymmetric(self) -> bool:
        if any(not self.entries[i][i].is_zero() for i in range(self.nrows)):
            return False
        return all(self.entries[i][j] == -self.entries[j][i]
                   for i in range(self.nrows) for j in range(i + 1, self.ncols))

    def map_entries(self, fn: Callable[[MultiPoly], MultiPoly]) -> "PolyMatrix":
        return PolyMatrix([[fn(e) for e in r] for r in self.entries])

    def eval_at(self, point: Sequence) -> list[list]:
        return [[e.eval_at(point) for e in r] for r in self.entries]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def render(self) -> str:
        return "\n".join("[ " + " , ".join(e.render() for e in r) + " ]"
                         for r in self.entries)


def det_cofactor(m: PolyMatrix) -> MultiPoly:
    """Determinant by column-wise Laplace expansion with memoized minors."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    one_poly = MultiPoly.constant(m.vars, m.one, m.one)
    memo: dict[int, MultiPoly] = {}

    def minor(mask: int) -> MultiPoly:
        col = bin(mask).count("1")
        if col == n:
            return one_poly
        if mask in memo:
            return memo[mask]
        acc = MultiPoly.zero(m.vars, m.one)
        sign = 1
        for r in range(n):
            if mask & (1 << r):
                continue
            e = m.entries[r][col]
            if not e.is_zero():
                piece = e * minor(mask | (1 << r))
                acc = acc + piece if sign > 0 else acc - piece
            sign = -sign
        memo[mask] = acc
        return acc

    return minor(0)


def det_bareiss(m: PolyMatrix) -> MultiPoly:
    """Fraction-free Bareiss determinant; divisions are exact by construction."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    a = [[m.entries[i][j] for j in range(n)] for i in range(n)]
    one_poly = MultiPoly.constant(m.vars, m.one, m.one)
    prev = one_poly
    sign = 1
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = None
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    swap = i
                    break
            if swap is None:
                return MultiPoly.zero(m.vars, m.one)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = MultiPoly.zero(m.vars, m.one)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det


def determinant(m: PolyMatrix) -> MultiPoly:
    """Exact determinant: Bareiss for rational-function scalars, cofactor
    expansion otherwise."""
    if isinstance(m.one, RatFunc):
        return det_bareiss(m)
    return det_cofactor(m)


def rank_at_point(m: PolyMatrix, point: Sequence) -> int:
    """Rank of m evaluated at a nonzero point; scale invariant."""
    zero = m.one * 0
    vals = list(point)
    if all((v if not isinstance(v, int) else m.one * v) == zero for v in vals):
        raise ValueError("rank at the zero vector is undefined")
    return scalar_matrix_rank(m.eval_at(vals), m.one)


def in_linear_span(targets: Sequence[MultiPoly], basis: Sequence[MultiPoly]) -> list:
    """For each target q, the coefficients c with q = sum c_i basis_i, or
    None when q is outside the span.

    All inputs must be homogeneous of one common degree.  One solve over
    the coefficient field itself, Q(eps15)(a) included, decides every
    target, so the coefficients are scalars of that field.
    """
    if not basis:
        raise ValueError("empty basis")
    inputs = list(targets) + list(basis)
    degs = set()
    for f in inputs:
        if not f.is_zero():
            d = f.homogeneous_degree()
            if d is None:
                raise ValueError("non-homogeneous input: %s" % f.render())
            degs.add(d)
    if len(degs) > 1:
        raise ValueError("degree mismatch across span inputs: %s" % sorted(degs))

    zero = basis[0].zero_coeff
    monos = set()
    for f in inputs:
        monos.update(f.terms)
    monos = sorted(monos, key=grevlex_key)
    rows = [[f.terms.get(m, zero) for f in basis] for m in monos]
    rhs = [[q.terms.get(m, zero) for m in monos] for q in targets]
    return solve_linear_system(rows, rhs, basis[0].one, len(basis))
