"""Sparse multivariate polynomials over exact scalar fields.

Terms are stored as a map from packed monomials to nonzero coefficients.
A packed monomial in n variables is one int of n + 1 fields of
FIELD_BITS bits: the exponent of variable i in field i and the total
degree in field n, on top.  The top bit of every field is a guard, so a
monomial product is one integer add, m divides m' exactly when m' - m
sets no guard bit, and grevlex is the int order of a linear key.  Every
exponent and every total degree stays below EXPONENT_BOUND = 128, so no
field carries into the next: a constructor input or a product that
would reach it raises ValueError.  The constructor takes exponent
tuples; `term_items` gives them back, the one way to read terms from
outside this module.

The monomial order is graded reverse lexicographic everywhere; rendering
and equality both rely on it being canonical.

Matrices of polynomials (PolyMatrix) come with two independent exact
determinant routes, cofactor expansion and fraction-free Bareiss
elimination, so each can serve as the other's oracle.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement
from operator import add, sub
from typing import Callable, Mapping, Sequence

from .scalars import Fp, RatFunc, _power

_F1 = Fraction(1)

FIELD_BITS = 8
EXPONENT_BOUND = 1 << (FIELD_BITS - 1)
FIELD_MASK = (1 << FIELD_BITS) - 1


def grevlex_key(mono: Sequence[int]):
    """Sort key of exponent tuples: ascending order lists grevlex-largest first."""
    return (-sum(mono), tuple(reversed(mono)))


def _guard(n: int) -> int:
    """The guard bits of the n variable fields and the degree field."""
    return ((1 << (n + 1) * FIELD_BITS) - 1) // FIELD_MASK * EXPONENT_BOUND


def _grevlex(n: int) -> Callable[[int], int]:
    """Sort key of packed monomials in n variables, grevlex-largest first:
    X - D * 2^s for the variable fields X and the degree field D at shift
    s, so larger degree first, then the smaller exponent of the last
    variable, and so on back to the first.  The same map takes a key
    back to its monomial."""
    s = n * FIELD_BITS
    return lambda key: key - ((key >> s) << (s + 1))


def _pack(mono: Sequence[int], n: int) -> int:
    """The packed form of an exponent tuple of n nonnegative ints with total
    degree below EXPONENT_BOUND; anything else raises ValueError."""
    if len(mono) != n:
        raise ValueError("exponent width %d does not match %d variables" % (len(mono), n))
    key = degree = 0
    for i, e in enumerate(mono):
        e = int(e)
        if e < 0:
            raise ValueError("negative exponent in %r" % (tuple(mono),))
        key += e << i * FIELD_BITS
        degree += e
    if degree >= EXPONENT_BOUND:
        raise ValueError("total degree %d of %r reaches the exponent bound %d"
                         % (degree, tuple(mono), EXPONENT_BOUND))
    return key + (degree << n * FIELD_BITS)


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple((key >> i * FIELD_BITS) & FIELD_MASK for i in range(n))


def monomials(degree: int, nvars: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree `degree` in `nvars` variables,
    in lexicographically descending order.

    A multiset of `degree` variable indices, sorted, is one monomial, and
    ``combinations_with_replacement`` lists them in increasing order: the
    first index where two differ is smaller in the first, which holds
    that variable more often and the ones before it as often, so its
    exponent tuple is the larger."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exponents = [0] * nvars
        for i in combo:
            exponents[i] += 1
        out.append(tuple(exponents))
    return out


class MultiPoly:
    """Immutable sparse polynomial over a duck-typed exact field."""

    __slots__ = ("vars", "terms", "one", "zero_coeff")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, object] | None = None,
                 one=_F1):
        self.vars = tuple(vars)
        self.one = one
        self.zero_coeff = one * 0
        n = len(self.vars)
        clean = {}
        if terms:
            for mono, c in terms.items():
                if isinstance(c, int):
                    c = one * c
                key = _pack(mono, n)
                if not c:
                    continue
                c = clean[key] + c if key in clean else c
                if c:
                    clean[key] = c
                else:
                    del clean[key]
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
        return self.terms.get(_pack(mono, len(self.vars)), self.zero_coeff)

    def term_items(self) -> list[tuple[tuple, object]]:
        """The terms as (exponent tuple, coefficient) pairs, in storage
        order."""
        n = len(self.vars)
        return [(_unpack(key, n), c) for key, c in self.terms.items()]

    def total_degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(self.terms) >> len(self.vars) * FIELD_BITS

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms, else None."""
        if not self.terms:
            return None
        s = len(self.vars) * FIELD_BITS
        low = min(self.terms) >> s
        return low if max(self.terms) >> s == low else None

    def sorted_terms(self) -> list[tuple[tuple, object]]:
        n = len(self.vars)
        return [(_unpack(key, n), self.terms[key])
                for key in sorted(self.terms, key=_grevlex(n))]

    def leading_term(self) -> tuple[tuple, object]:
        if not self.terms:
            raise ValueError("leading term of the zero polynomial")
        n = len(self.vars)
        key = min(self.terms, key=_grevlex(n))
        return _unpack(key, n), self.terms[key]

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("variable sets differ: %r vs %r" % (self.vars, other.vars))

    def _merge(self, other: object, op) -> "MultiPoly":
        """self op other for op in (operator.add, operator.sub), in one
        walk over the terms of other."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other, self.one)
        self._check_compatible(other)
        zero = self.zero_coeff
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = op(out.get(key, zero), c)
            if not acc:
                out.pop(key, None)
            else:
                out[key] = acc
        return _mk(self.vars, out, self.one, zero)

    def __add__(self, other: object) -> "MultiPoly":
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _mk(self.vars, {m: -c for m, c in self.terms.items()}, self.one,
                   self.zero_coeff)

    def __sub__(self, other: object) -> "MultiPoly":
        return self._merge(other, sub)

    def __rsub__(self, other: object) -> "MultiPoly":
        return MultiPoly.constant(self.vars, other, self.one)._merge(self, sub)

    def __mul__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if isinstance(other, int):
                other = self.one * other
            if not other:
                return MultiPoly.zero(self.vars, self.one)
            return _mk(self.vars, {m: c * other for m, c in self.terms.items()},
                       self.one, self.zero_coeff)
        self._check_compatible(other)
        f, g = self.terms, other.terms
        out: dict[int, object] = {}
        # the largest keys carry the largest degrees, and no exponent
        # exceeds its term's degree, so one sum checks every field
        if f and g and (max(f) + max(g)) & _guard(len(self.vars)):
            raise ValueError("a product term reaches the exponent bound %d"
                             % EXPONENT_BOUND)
        for k1, c1 in f.items():
            for k2, c2 in g.items():
                key = k1 + k2
                if key in out:
                    acc = out[key] + c1 * c2
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
                else:
                    out[key] = c1 * c2
        return _mk(self.vars, out, self.one, self.zero_coeff)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return _power(MultiPoly.constant(self.vars, self.one, self.one), self, n)

    def exact_div(self, g: "MultiPoly") -> "MultiPoly":
        """Quotient self/g when g divides exactly; raises otherwise.

        Heap division (Johnson 1974; Monagan and Pearce 2007): the keys of
        the remainder wait in a heap in grevlex order, each quotient term
        cancels the largest, and a key popped after its term cancelled is
        skipped.  The leading coefficient of g is inverted once.
        """
        self._check_compatible(g)
        if g.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        n = len(self.vars)
        order = _grevlex(n)
        guard = _guard(n)
        lead = min(g.terms, key=order)
        inv = self.one / g.terms[lead]
        tail = [(k, c) for k, c in g.terms.items() if k != lead]
        rem = dict(self.terms)
        heap = [order(key) for key in rem]
        heapify(heap)
        quot: dict[int, object] = {}
        while heap:
            key = order(heappop(heap))
            c = rem.pop(key, None)
            if c is None:
                continue
            q = key - lead
            if q & guard:
                raise ValueError("not exactly divisible")
            c = c * inv
            quot[q] = c
            for k2, c2 in tail:
                key = q + k2
                if key in rem:
                    acc = rem[key] - c * c2
                    if acc:
                        rem[key] = acc
                    else:
                        del rem[key]
                else:
                    rem[key] = -(c * c2)
                    heappush(heap, order(key))
        return _mk(self.vars, quot, self.one, self.zero_coeff)

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
        shift = idx * FIELD_BITS
        unit = (1 << shift) + (1 << len(self.vars) * FIELD_BITS)
        out: dict[int, object] = {}
        for key, c in self.terms.items():
            e = (key >> shift) & FIELD_MASK
            if e:
                c = c * e
                if c:
                    out[key - unit] = c
        return _mk(self.vars, out, self.one, self.zero_coeff)

    def eval_at(self, point: Sequence) -> object:
        """Value at a full point; coordinates live in the coefficient field."""
        if len(point) != len(self.vars):
            raise ValueError("point dimension %d != %d" % (len(point), len(self.vars)))
        acc = self.zero_coeff
        for key, term in self.terms.items():
            for v in point:
                for _ in range(key & FIELD_MASK):
                    term = term * v
                key >>= FIELD_BITS
            acc = acc + term
        return acc

    def split_by(self, subset: Sequence[str]) -> dict[tuple, "MultiPoly"]:
        """Group terms by their exponents in `subset`; values keep all variables."""
        shifts = [self.vars.index(v) * FIELD_BITS for v in subset]
        fields = sum(FIELD_MASK << shift for shift in shifts)
        s = len(self.vars) * FIELD_BITS
        groups: dict[tuple, dict] = {}
        for key, c in self.terms.items():
            part = key & fields
            exps = tuple((part >> shift) & FIELD_MASK for shift in shifts)
            groups.setdefault(exps, {})[key - part - (sum(exps) << s)] = c
        return {k: _mk(self.vars, t, self.one, self.zero_coeff)
                for k, t in groups.items()}

    def cyclic_substitution(self, step: int, factor=None) -> "MultiPoly":
        """The substitution x_i -> x_(i-step), indices mod n, with each term
        also scaled by factor(w, d): d is its degree and w = sum_i i e_i
        mod n the weight of its exponents e.  Under x_i -> u v^i x_(i-step)
        a term gains u^d v^w, so one call applies any product of a cyclic
        shift, a diagonal twist and a central scalar.

        The shift rotates the exponent fields of each packed key; the
        degree field stays, and so do the guard bits, which are clear.
        factor (None for the bare shift) is called once per distinct
        (w, d) and must not return zero; a factor equal to one multiplies
        nothing.
        """
        n = len(self.vars)
        width = n * FIELD_BITS
        low = step % n * FIELD_BITS
        fields = (1 << width) - 1
        one = self.one
        scales: dict[tuple[int, int], object] = {}
        terms = {}
        for key, c in self.terms.items():
            x = key & fields
            if factor is not None:
                # the fields from 1 on, up to the last nonzero one
                w, i, rest = 0, 1, x >> FIELD_BITS
                while rest:
                    w += i * (rest & FIELD_MASK)
                    i += 1
                    rest >>= FIELD_BITS
                wd = (w % n, key >> width)
                if wd not in scales:
                    f = factor(*wd)
                    if not f:
                        raise ValueError("zero factor at weight %d, degree %d" % wd)
                    scales[wd] = None if f == one else f
                if scales[wd] is not None:
                    c = c * scales[wd]
            terms[key - x + ((x >> low | x << width - low) & fields)] = c
        return _mk(self.vars, terms, one, self.zero_coeff)

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
    monos = sorted(monos, key=_grevlex(len(basis[0].vars)))
    rows = [[f.terms.get(m, zero) for f in basis] for m in monos]
    rhs = [[q.terms.get(m, zero) for m in monos] for q in targets]
    return solve_linear_system(rows, rhs, basis[0].one, len(basis))
