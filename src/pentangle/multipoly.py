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

from .scalars import Fp, RatFunc, UniPoly

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

    __slots__ = ("vars", "terms", "one")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, object] | None = None,
                 one=_F1):
        self.vars = tuple(vars)
        self.one = one
        zero = one * 0
        clean = {}
        if terms:
            for mono, c in terms.items():
                if isinstance(c, int):
                    c = one * c
                if len(mono) != len(self.vars):
                    raise ValueError("exponent width %d does not match %d variables"
                                     % (len(mono), len(self.vars)))
                if c == zero:
                    continue
                mono = tuple(int(e) for e in mono)
                if any(e < 0 for e in mono):
                    raise ValueError("negative exponent in %r" % (mono,))
                clean[mono] = clean.get(mono, zero) + c if mono in clean else c
                if clean[mono] == zero:
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

    @property
    def zero_coeff(self):
        return self.one * 0

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: tuple):
        return self.terms.get(tuple(mono), self.zero_coeff)

    def constant_value(self):
        if not self.terms:
            return self.zero_coeff
        if len(self.terms) == 1:
            mono, c = next(iter(self.terms.items()))
            if not any(mono):
                return c
        raise ValueError("not a constant polynomial: %s" % self.render())

    def total_degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def homogeneous_degree(self, exclude: Sequence[str] = ()) -> int | None:
        """Common degree of all terms (ignoring `exclude` variables), else None."""
        if not self.terms:
            return None
        skip = {list(self.vars).index(v) for v in exclude}
        degs = {sum(e for i, e in enumerate(m) if i not in skip) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self, exclude: Sequence[str] = ()) -> bool:
        return self.is_zero() or self.homogeneous_degree(exclude) is not None

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
            if acc == zero:
                out.pop(mono, None)
            else:
                out[mono] = acc
        return _mk(self.vars, out, self.one)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _mk(self.vars, {m: -c for m, c in self.terms.items()}, self.one)

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
            zero = self.zero_coeff
            if other == zero:
                return MultiPoly.zero(self.vars, self.one)
            return _mk(self.vars, {m: c * other for m, c in self.terms.items()}, self.one)
        self._check_compatible(other)
        zero = self.zero_coeff
        out: dict[tuple, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc = out.get(mono, zero) + c1 * c2
                if acc == zero:
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        return _mk(self.vars, out, self.one)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = MultiPoly.constant(self.vars, self.one, self.one)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

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
                if acc == zero:
                    rem.pop(tm, None)
                else:
                    rem[tm] = acc
        return _mk(self.vars, quot, self.one)

    # -- calculus and substitution -------------------------------------

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
            if acc == zero:
                out.pop(m2, None)
            else:
                out[m2] = acc
        return _mk(self.vars, out, self.one)

    def substitute(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Simultaneous substitution var -> polynomial (same ring)."""
        gens = {}
        for v in self.vars:
            img = images.get(v)
            gens[v] = img if img is not None else MultiPoly.variable(v, self.vars, self.one)
        power_cache: dict[tuple[str, int], MultiPoly] = {}

        def vpow(v: str, e: int) -> MultiPoly:
            key = (v, e)
            if key not in power_cache:
                power_cache[key] = gens[v] ** e
            return power_cache[key]

        acc = MultiPoly.zero(self.vars, self.one)
        for mono, c in self.terms.items():
            piece = MultiPoly.constant(self.vars, c, self.one)
            for i, e in enumerate(mono):
                if e:
                    piece = piece * vpow(self.vars[i], e)
            acc = acc + piece
        return acc

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
        return {k: _mk(self.vars, t, self.one) for k, t in groups.items()}

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


def _mk(vars: tuple, terms: dict, one) -> MultiPoly:
    obj = MultiPoly.__new__(MultiPoly)
    object.__setattr__(obj, "vars", vars)
    object.__setattr__(obj, "terms", terms)
    object.__setattr__(obj, "one", one)
    return obj


# -- scalar linear algebra (exact, duck typed) -------------------------


def scalar_matrix_det(rows: Sequence[Sequence], one):
    """Determinant by Gaussian elimination over the coefficient field."""
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    zero = one * 0
    det = one
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if a[i][k] != zero:
                pivot = i
                break
        if pivot is None:
            return zero
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k]
        inv = one / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != zero:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    return det


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


def solve_linear_system(rows: Sequence[Sequence], rhs: Sequence, one):
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not a:
        return []
    ncols = len(a[0]) - 1
    pivots = _rref(a, one, ncols)
    zero = one * 0
    if any(r[ncols] != zero for r in a[len(pivots):]):
        return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][ncols]
    return x


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


def determinant(m: PolyMatrix, strategy: str = "auto") -> MultiPoly:
    """Exact determinant; `auto` prefers Bareiss for rational-function scalars."""
    if strategy == "auto":
        strategy = "bareiss" if isinstance(m.one, RatFunc) else "cofactor"
    if strategy == "cofactor":
        return det_cofactor(m)
    if strategy == "bareiss":
        return det_bareiss(m)
    raise ValueError("unknown strategy %r" % (strategy,))


def rank_at_point(m: PolyMatrix, point: Sequence) -> int:
    """Rank of m evaluated at a nonzero point; scale invariant."""
    zero = m.one * 0
    vals = list(point)
    if all((v if not isinstance(v, int) else m.one * v) == zero for v in vals):
        raise ValueError("rank at the zero vector is undefined")
    return scalar_matrix_rank(m.eval_at(vals), m.one)


def in_linear_span(q: MultiPoly, basis: Sequence[MultiPoly],
                   param_vars: Sequence[str] = ()):
    """Coefficients c with q = sum c_i basis_i, else None.

    All inputs must be homogeneous of one common degree in the
    non-parameter variables.  With `param_vars` set, matching happens
    coefficient-wise in those parameters and the returned coefficients
    are rational functions of the (single) parameter.
    """
    if not basis:
        raise ValueError("empty basis")
    degs = set()
    for f in [q] + list(basis):
        if not f.is_zero():
            d = f.homogeneous_degree(exclude=param_vars)
            if d is None:
                raise ValueError("non-homogeneous input: %s" % f.render())
            degs.add(d)
    if len(degs) > 1:
        raise ValueError("degree mismatch across span inputs: %s" % sorted(degs))

    if not param_vars:
        one = q.one
        monos = set(q.terms)
        for f in basis:
            monos.update(f.terms)
        monos = sorted(monos, key=grevlex_key)
        rows = [[f.coeff(m) for f in basis] for m in monos]
        rhs = [q.coeff(m) for m in monos]
        return solve_linear_system(rows, rhs, one)

    if len(param_vars) != 1:
        raise ValueError("exactly one parameter variable is supported")
    base_one = q.one
    rf_one = RatFunc.const(base_one, base_one)

    def param_profile(f: MultiPoly) -> dict[tuple, RatFunc]:
        out = {}
        for key, part in f.split_by(param_vars).items():
            # key = (a-degree,); part holds the x-monomials at that a-degree
            for mono, c in part.terms.items():
                slot = out.setdefault(mono, {})
                slot[key[0]] = c
        return {
            mono: RatFunc(UniPoly(
                [cs.get(d, base_one * 0) for d in range(max(cs) + 1)], base_one))
            for mono, cs in out.items()
        }

    qp = param_profile(q)
    bps = [param_profile(f) for f in basis]
    monos = set(qp)
    for bp in bps:
        monos.update(bp)
    zero_rf = rf_one * 0
    monos = sorted(monos, key=grevlex_key)
    rows = [[bp.get(m, zero_rf) for bp in bps] for m in monos]
    rhs = [qp.get(m, zero_rf) for m in monos]
    return solve_linear_system(rows, rhs, rf_one)


def partial_derivative(f: MultiPoly, var: str) -> MultiPoly:
    return f.partial_derivative(var)
