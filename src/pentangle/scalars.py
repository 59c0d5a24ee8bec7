"""Exact coefficient fields for the verification toolkit.

Three scalar domains, all exact:

  * Cyclo   -- the degree-8 cyclotomic field Q(eps15) = Q[t]/Phi15(t),
               which already contains eps5 = t^3 and eps3 = t^5.  An
               element is 8 integer numerators over one positive common
               denominator, in lowest terms, so its arithmetic runs on
               Python ints and equality is tuple equality.
  * Fp      -- prime fields F_p; identities transfer along t -> w where
               w is a primitive 15th root of unity in F_p.
  * RatFunc -- univariate rational functions in a formal parameter over
               an exact base field (default Fraction); monomial
               denominators c*a^k are reduced without Euclid.

No floating point anywhere.  Every value type here is immutable after
construction and therefore safe to share between workers.  The residue
helpers at the end of the prime-field section (`_normalize_mod_p`, the
read-only inverse table `_inverse_table`) serve the numpy routes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub
from typing import Iterable, Sequence, Union

import numpy as np

Rat = Union[int, Fraction]

#: coefficients of Phi15(t) = t^8 - t^7 + t^5 - t^4 + t^3 - t + 1, by degree
PHI15_COEFFS = (1, -1, 0, 1, -1, 1, 0, -1, 1)

#: primes p = 1 (mod 15): F_p contains a primitive 15th root of unity
DEFAULT_PRIMES = (31, 61, 151, 181, 211, 241)

_DEG = 8
_F1 = Fraction(1)


def _reduction_table() -> tuple[tuple[int, ...], ...]:
    # t^8 = t^7 - t^5 + t^4 - t^3 + t - 1; rows for t^8 .. t^14
    top = tuple(-c for c in PHI15_COEFFS[:_DEG])
    rows = [top]
    for _ in range(_DEG - 2):
        prev = rows[-1]
        shifted = (0,) + prev[:-1]
        overflow = prev[-1]
        rows.append(tuple(s + overflow * t for s, t in zip(shifted, top)))
    return tuple(rows)


_REDUCE = _reduction_table()
_TAIL0 = (0,) * (_DEG - 1)
_ZERO_N = (0,) * _DEG
#: exponents k > 1 prime to 15: t -> t^k are the nontrivial automorphisms
_CONJUGATES = (2, 4, 7, 8, 11, 13, 14)


def _fold(cs: list[int]) -> list[int]:
    """Reduce an integer coefficient list of degree <= 14 modulo Phi15."""
    for k in range(len(cs) - 1, _DEG - 1, -1):
        c = cs[k]
        if c:
            row = _REDUCE[k - _DEG]
            for idx in range(_DEG):
                cs[idx] += c * row[idx]
    return cs[:_DEG]


def _power(one, base, n: int):
    """base ** n for n >= 0 by square-and-multiply from the identity `one`;
    the base is squared only while exponent bits remain."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class Cyclo:
    """An element of Q(eps15), stored reduced modulo Phi15.

    The value is sum(n[i] * eps15^i) / d for a tuple n of 8 integers and
    a positive integer d, kept in lowest terms (gcd(d, *n) == 1, and zero
    is n = 0, d = 1), so two elements are equal exactly when their
    (n, d) pairs are.  Coefficient vectors longer than 8 (up to degree
    14, the largest a product can reach) are folded down on
    construction.  `coeffs` gives the coefficients as Fractions.

    Most values met by the symbolic routes are small rationals with
    d = 1, so `+`, `-`, `*` and unary `-` take an operand that is exactly
    a Cyclo without coercing it, and build a rational result with d = 1
    as `(n,) + _TAIL0` directly; every path returns the same canonical
    (n, d) the constructor would.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Union["Cyclo", Rat, Iterable[Rat]] = 0):
        if isinstance(coeffs, Cyclo):
            self._n, self._d = coeffs._n, coeffs._d
            return
        if isinstance(coeffs, (int, Fraction)):
            self._n = (coeffs.numerator,) + _TAIL0
            self._d = coeffs.denominator
            return
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        if len(cs) > 2 * _DEG - 1:
            raise ValueError("coefficient vector longer than degree 14")
        d = lcm(1, *(c.denominator for c in cs))
        ns = [c.numerator * (d // c.denominator) for c in cs]
        ns += [0] * (_DEG - len(ns))
        self._n, self._d = _lowest(_fold(ns), d)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self._d
        return tuple(Fraction(c, d) for c in self._n)

    def is_zero(self) -> bool:
        return self._n == _ZERO_N

    def is_rational(self) -> bool:
        return self._n[1:] == _TAIL0

    # -- ring structure ------------------------------------------------

    def __add__(self, other: object) -> "Cyclo":
        if type(other) is not Cyclo:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _combine(self._n, self._d, other._n, other._d, add)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        n = self._n
        if n[1:] == _TAIL0:
            return _raw((-n[0],) + _TAIL0, self._d)
        return _raw(tuple(map(neg, n)), self._d)

    def __sub__(self, other: object) -> "Cyclo":
        if type(other) is not Cyclo:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _combine(self._n, self._d, other._n, other._d, sub)

    def __rsub__(self, other: object) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "Cyclo":
        if type(other) is not Cyclo:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._n, other._n
        d = self._d * other._d
        if a[1:] == _TAIL0:
            q = a[0]
            if b[1:] == _TAIL0:
                n = q * b[0]
                if d == 1:
                    return _raw((n,) + _TAIL0, 1)
                g = gcd(n, d)
                return _raw((n // g,) + _TAIL0, d // g)
            return _make([q * c for c in b], d)
        if b[1:] == _TAIL0:
            q = b[0]
            return _make([q * c for c in a], d)
        prod = [0] * (2 * _DEG - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return _make(_fold(prod), d)

    __rmul__ = __mul__

    def _conjugate(self, k: int) -> "Cyclo":
        """The Galois conjugate eps15 -> eps15^k."""
        cs = [0] * 15
        for i, c in enumerate(self._n):
            cs[i * k % 15] = c
        return _raw(tuple(_fold(cs)), self._d)

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse: the product of the seven other Galois
        conjugates divided by the norm, which is rational and nonzero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(eps15)")
        if self.is_rational():
            return _make((self._d,) + _TAIL0, self._n[0])
        others = ONE
        for k in _CONJUGATES:
            others = others * self._conjugate(k)
        norm = self * others
        return others * Fraction(norm._d, norm._n[0])

    def __truediv__(self, other: object) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: object) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "Cyclo":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _power(ONE, self, n)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Cyclo:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __bool__(self) -> bool:
        return self._n != _ZERO_N

    def __repr__(self) -> str:
        return "Cyclo(%s)" % (list(self.coeffs),)

    def __str__(self) -> str:
        for k in range(15):
            if self == EPS15_POWERS[k]:
                return _unity_label(k, "")
            if self == -EPS15_POWERS[k]:
                return _unity_label(k, "-")
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                mon = "eps15" if d == 1 else "eps15^%d" % d
                if c == 1:
                    terms.append(mon)
                elif c == -1:
                    terms.append("-" + mon)
                else:
                    terms.append("%s*%s" % (c, mon))
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _raw(n: tuple[int, ...], d: int) -> Cyclo:
    """A Cyclo from numerators and a denominator already in lowest terms."""
    obj = Cyclo.__new__(Cyclo)
    obj._n = n
    obj._d = d
    return obj


def _lowest(n: Sequence[int], d: int) -> tuple[tuple[int, ...], int]:
    """(n, d) divided by their gcd, with d made positive."""
    if d < 0:
        n, d = [-c for c in n], -d
    g = gcd(d, *n)
    if g != 1:
        return tuple(c // g for c in n), d // g
    return tuple(n), d


def _make(n: Sequence[int], d: int) -> Cyclo:
    return _raw(*_lowest(n, d)) if d != 1 else _raw(tuple(n), 1)


def _combine(a: tuple[int, ...], da: int, b: tuple[int, ...], db: int,
             op) -> Cyclo:
    """a/da op b/db for op in (operator.add, operator.sub): two rationals
    over d = 1 give a rational directly, equal denominators add
    numerators, and others go over their least common multiple."""
    if da == db:
        if da == 1:
            if a[1:] == _TAIL0 and b[1:] == _TAIL0:
                return _raw((op(a[0], b[0]),) + _TAIL0, 1)
            return _raw(tuple(map(op, a, b)), 1)
        return _make(tuple(map(op, a, b)), da)
    g = gcd(da, db)
    sa, sb = db // g, da // g
    return _make([op(x * sa, y * sb) for x, y in zip(a, b)], da * sa)


def _coerce(x: object) -> "Cyclo":
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return _raw((x.numerator,) + _TAIL0, x.denominator)
    return NotImplemented


def _unity_label(k: int, sign: str) -> str:
    k %= 15
    if k == 0:
        return sign + "1" if sign else "1"
    order = 15 // gcd(15, k)
    power = k * order // 15
    name = {3: "eps3", 5: "eps5", 15: "eps15"}[order]
    return "%s%s" % (sign, name if power == 1 else "%s^%d" % (name, power))


ZERO = Cyclo(0)
ONE = Cyclo(1)
EPS15 = Cyclo([0, 1])
EPS15_POWERS = tuple(EPS15 ** k for k in range(15))
EPS5 = EPS15_POWERS[3]
EPS3 = EPS15_POWERS[5]


def cyclo_root_of_unity(order: int, power: int = 1) -> Cyclo:
    """The canonical primitive order-th root of unity, raised to power.

    Only orders dividing 15 live in Q(eps15); anything else is rejected.
    """
    if order < 1 or 15 % order != 0:
        raise ValueError("order %r does not divide 15" % (order,))
    return EPS15_POWERS[(15 // order) * (power % order) % 15]


# -- prime fields ------------------------------------------------------


class Fp:
    """Residue in [0, p) for a prime p; exact field arithmetic mod p.

    `+`, `-`, `*` and unary `-` reduce once and build their result with
    `_fp`, skipping the constructor's modulus check, which the operands
    already passed."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        if p < 2:
            raise ValueError("modulus must be a prime >= 2")
        self.v = v % p
        self.p = p

    def _same(self, other: object) -> "Fp":
        if isinstance(other, Fp):
            if other.p == self.p:
                return other
            raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
        if isinstance(other, int):
            return _fp(other % self.p, self.p)
        return NotImplemented

    def __add__(self, other: object) -> "Fp":
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        return _fp((self.v + other.v) % p, p)

    __radd__ = __add__

    def __neg__(self) -> "Fp":
        p = self.p
        return _fp(-self.v % p, p)

    def __sub__(self, other: object) -> "Fp":
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        return _fp((self.v - other.v) % p, p)

    def __rsub__(self, other: object) -> "Fp":
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "Fp":
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        return _fp(self.v * other.v % p, p)

    __rmul__ = __mul__

    def inverse(self) -> "Fp":
        if self.v == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.p)
        return Fp(pow(self.v, self.p - 2, self.p), self.p)

    def __truediv__(self, other: object) -> "Fp":
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: object) -> "Fp":
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "Fp":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return Fp(pow(self.v, n, self.p), self.p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.v, self.p))

    def __bool__(self) -> bool:
        return self.v != 0

    def __repr__(self) -> str:
        return "Fp(%d, %d)" % (self.v, self.p)

    def __str__(self) -> str:
        return str(self.v)


def _fp(v: int, p: int) -> Fp:
    """An Fp from a residue already in [0, p)."""
    obj = Fp.__new__(Fp)
    obj.v = v
    obj.p = p
    return obj


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def hasse_admits(p: int, n: int) -> bool:
    """Whether n lies in the Hasse window |p + 1 - n| <= 2*sqrt(p) of a
    genus-one curve over F_p, decided square-exact."""
    return (n - p - 1) ** 2 <= 4 * p


def _has_exact_order(w: int, n: int, p: int) -> bool:
    if pow(w, n, p) != 1:
        return False
    return all(pow(w, n // q, p) != 1 for q in _prime_factors(n))


def find_root_of_unity(p: int, n: int) -> Fp:
    """Deterministic smallest witness of multiplicative order exactly n in F_p."""
    if n < 1 or (p - 1) % n != 0:
        raise ValueError("no element of order %d in F_%d" % (n, p))
    e = (p - 1) // n
    for c in range(1, p):
        w = pow(c, e, p)
        if _has_exact_order(w, n, p):
            return Fp(w, p)
    raise ValueError("no order-%d element found in F_%d" % (n, p))


def fraction_mod_p(x: Rat, p: int) -> int:
    """Image of a rational number in F_p; the denominator must be prime to p."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError("denominator of %s vanishes mod %d" % (x, p))
    return x.numerator * pow(x.denominator % p, p - 2, p) % p


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    """Read-only int64 array with inv[x] * x = 1 mod p, and inv[0] = 0:
    x**(p - 2) for all residues x at once, left-to-right square-and-multiply
    with every product under p**2."""
    base, inv = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64)
    for bit in bin(p - 2)[2:]:
        inv = inv * inv % p
        if bit == "1":
            inv = inv * base % p
    inv.flags.writeable = False
    return inv


def _normalize_mod_p(vec: Sequence[int], p: int) -> tuple[int, ...]:
    """Residues of a nonzero vector scaled so the first nonzero one is 1."""
    for c in vec:
        c %= p
        if c:
            inv = pow(c, p - 2, p)
            return tuple(x * inv % p for x in vec)
    raise ValueError("cannot normalise the zero vector")


def embed_cyclo_in_prime_field(x: Cyclo, p: int, witness_root: Fp) -> Fp:
    """Ring homomorphism Q(eps15) -> F_p sending eps15 to witness_root.

    Requires p = 1 (mod 15) and a witness of multiplicative order
    exactly 15; both are checked, not assumed.
    """
    if p % 15 != 1:
        raise ValueError("p = %d is not 1 mod 15" % p)
    if witness_root.p != p:
        raise ValueError("witness lives in F_%d, not F_%d" % (witness_root.p, p))
    if not _has_exact_order(witness_root.v, 15, p):
        raise ValueError("witness %d does not have order 15 in F_%d" % (witness_root.v, p))
    acc = 0
    wk = 1
    for c in x.coeffs:
        if c:
            acc = (acc + fraction_mod_p(c, p) * wk) % p
        wk = wk * witness_root.v % p
    return Fp(acc, p)


# -- univariate polynomials and rational functions in a parameter ------


class UniPoly:
    """Dense univariate polynomial over an exact field, low degree first.

    The coefficient field is duck typed: Fraction, Fp and Cyclo all work.
    `one` pins the field's multiplicative identity so the zero polynomial
    still knows its domain; `zero_coeff`, its zero, is built once.
    """

    __slots__ = ("c", "one", "zero_coeff")

    def __init__(self, coeffs: Iterable = (), one=_F1):
        self.one = one
        self.zero_coeff = one * 0
        cs = [one * c if isinstance(c, int) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.c = tuple(cs)

    @classmethod
    def const(cls, value, one=_F1) -> "UniPoly":
        return cls([value], one)

    @classmethod
    def gen(cls, one=_F1) -> "UniPoly":
        return cls([one * 0, one], one)

    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def lc(self):
        if not self.c:
            raise ValueError("leading coefficient of the zero polynomial")
        return self.c[-1]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        longer, shorter = self.c, other.c
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for i, b in enumerate(shorter):
            out[i] = out[i] + b
        return UniPoly(out, self.one)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-a for a in self.c], self.one)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly((), self.one)
        zero = self.zero_coeff
        out = [zero] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return UniPoly(out, self.one)

    def scale(self, k) -> "UniPoly":
        return UniPoly([a * k for a in self.c], self.one)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        zero = self.zero_coeff
        rem = list(self.c)
        q = [zero] * max(len(rem) - len(other.c) + 1, 0)
        inv_lead = self.one / other.lc()
        while len(rem) >= len(other.c):
            coef = rem[-1] * inv_lead
            shift = len(rem) - len(other.c)
            q[shift] = coef
            for i, bi in enumerate(other.c):
                rem[shift + i] = rem[shift + i] - coef * bi
            while rem and not rem[-1]:
                rem.pop()
            if not rem:
                break
        return UniPoly(q, self.one), UniPoly(rem, self.one)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = self.one / self.lc()
        return self.scale(inv)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def eval(self, x):
        acc = self.zero_coeff
        for c in reversed(self.c):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __repr__(self) -> str:
        return "UniPoly(%r)" % (list(self.c),)

    def render(self, symbol: str = "a") -> str:
        if not self.c:
            return "0"
        terms = []
        for d, c in enumerate(self.c):
            if c == self.zero_coeff:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                mon = symbol if d == 1 else "%s^%d" % (symbol, d)
                if c == self.one:
                    terms.append(mon)
                elif c == -self.one:
                    terms.append("-" + mon)
                else:
                    terms.append("%s*%s" % (c, mon))
        return " + ".join(terms).replace("+ -", "- ")


def _uni(c: tuple, one, zero) -> UniPoly:
    """A UniPoly from field coefficients with no trailing zero."""
    out = UniPoly.__new__(UniPoly)
    out.c = c
    out.one = one
    out.zero_coeff = zero
    return out


def _power_of_a(den: UniPoly) -> int | None:
    """k when the denominator den is c*a^k, else None.

    Only the constructor asks: every RatFunc keeps the answer in its `_k`
    slot, so arithmetic reads it there instead of testing each
    coefficient below den's leading one."""
    return None if any(den.c[:-1]) else len(den.c) - 1


def _laurent(cs: list, k: int, one, zero, top: bool = True,
             low: bool = True) -> "RatFunc":
    """cs/a^k in lowest terms, cs being field coefficients, low degree
    first, possibly with trailing zeros.  a^k shares only a^min(k, v)
    with the numerator, v its a-adic valuation, so reducing is a shift.

    A caller that knows cs[-1] is nonzero passes top=False, and one that
    knows cs[0] is nonzero or k == 0 passes low=False; each skips the
    trim that would only test that coefficient."""
    if top:
        while cs and not cs[-1]:
            cs.pop()
        if not cs:
            k = 0
    if low:
        shift = 0
        while shift < k and not cs[shift]:
            shift += 1
        if shift:
            k -= shift
            cs = cs[shift:]
    out = RatFunc.__new__(RatFunc)
    out.num = _uni(tuple(cs), one, zero)
    out.den = _uni((zero,) * k + (one,), one, zero)
    out._k = k
    return out


class RatFunc:
    """num/den over a base field, den monic, reduced to lowest terms.

    A denominator c*a^k (the common case: the symbolic routes divide by
    powers of the parameter) shares only a^min(k, v) with the numerator,
    v being the numerator's a-adic valuation, so it is reduced by a
    scaling and the shift of `_laurent`; any other denominator goes
    through Euclid.  The slot `_k` holds k for a denominator a^k and
    None otherwise.  When both operands have denominators a^k, `+`, `-`
    and `*` work on the coefficient tuples and `_laurent` reduces the
    result, so no intermediate UniPoly is built.
    """

    __slots__ = ("num", "den", "_k")

    def __init__(self, num: UniPoly, den: UniPoly | None = None):
        if den is None:
            den = UniPoly.const(num.one, num.one)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = UniPoly.const(num.one, num.one)
            k = 0
        elif _power_of_a(den) is not None:
            one = den.one
            cs = list(num.c)
            lead = den.c[-1]
            if lead != one:
                inv = one / lead
                cs = [c * inv for c in cs]
            reduced = _laurent(cs, den.degree(), one, den.zero_coeff)
            num, den, k = reduced.num, reduced.den, reduced._k
        else:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.lc()
            if lead != den.one:
                inv = den.one / lead
                num = num.scale(inv)
                den = den.scale(inv)
            k = _power_of_a(den)
        self.num = num
        self.den = den
        self._k = k

    @classmethod
    def const(cls, value, one=_F1) -> "RatFunc":
        if isinstance(value, int):
            value = one * value
        return cls(UniPoly.const(value, one))

    @classmethod
    def gen(cls, one=_F1) -> "RatFunc":
        """The parameter itself (the transcendental a)."""
        return cls(UniPoly.gen(one))

    @property
    def one_coeff(self):
        return self.num.one

    @property
    def den_power(self) -> int | None:
        """k when the denominator is a^k, else None."""
        return self._k

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() == 0

    def const_value(self):
        if not self.is_const():
            raise ValueError("not a constant: %r" % (self,))
        return self.num.c[0] if self.num.c else self.num.zero_coeff

    def _wrap(self, other: object) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)) or type(other) is type(self.one_coeff):
            return RatFunc.const(other, self.one_coeff)
        return NotImplemented

    def _sum(self, other: "RatFunc", op) -> "RatFunc":
        """self op other for op in (operator.add, operator.sub)."""
        k, l = self._k, other._k
        if k is None or l is None:
            return RatFunc(op(self.num * other.den, other.num * self.den),
                           self.den * other.den)
        a, b = self.num.c, other.num.c
        if not b:
            return self
        if not a:
            return other if op is add else -other
        # with t the parameter and m = max(k, l):
        # a/t^k +- b/t^l = (t^(m-k)*a +- t^(m-l)*b)/t^m
        m = max(k, l)
        sa, sb = m - k, m - l
        zero = self.num.zero_coeff
        out = [zero] * sa + list(a)
        out += [zero] * (sb + len(b) - len(out))
        for j, c in enumerate(b, sb):
            out[j] = op(out[j], c)
        # an end coefficient that only one operand reaches is nonzero, and
        # so is the low one of a numerator over a positive power of t
        return _laurent(out, m, self.num.one, zero,
                        top=sa + len(a) == sb + len(b), low=k == l)

    def __add__(self, other: object) -> "RatFunc":
        if type(other) is not RatFunc:
            other = self._wrap(other)
            if other is NotImplemented:
                return NotImplemented
        return self._sum(other, add)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num = _uni(tuple(map(neg, self.num.c)), self.num.one,
                       self.num.zero_coeff)
        out.den = self.den
        out._k = self._k
        return out

    def __sub__(self, other: object) -> "RatFunc":
        if type(other) is not RatFunc:
            other = self._wrap(other)
            if other is NotImplemented:
                return NotImplemented
        return self._sum(other, sub)

    def __rsub__(self, other: object) -> "RatFunc":
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "RatFunc":
        if type(other) is not RatFunc:
            other = self._wrap(other)
            if other is NotImplemented:
                return NotImplemented
        k, l = self._k, other._k
        if k is None or l is None:
            return RatFunc(self.num * other.num, self.den * other.den)
        a, b = self.num.c, other.num.c
        if not a:
            return self
        if not b:
            return other
        zero = self.num.zero_coeff
        xs = [(i, x) for i, x in enumerate(a) if x]
        out = [zero] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in xs:
                    # a slot still holding `zero` itself takes the product
                    v = out[i + j]
                    out[i + j] = x * y if v is zero else v + x * y
        # the product of the two leading coefficients is nonzero, and so is
        # that of the two low ones when both denominators are positive
        # powers of a
        return _laurent(out, k + l, self.num.one, zero,
                        top=False, low=not (k and l))

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: object) -> "RatFunc":
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: object) -> "RatFunc":
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "RatFunc":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _power(RatFunc.const(self.one_coeff, self.one_coeff), self, n)

    def eval(self, x):
        return self.num.eval(x) / self.den.eval(x)

    def __eq__(self, other: object) -> bool:
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num.c, self.den.c))

    def __bool__(self) -> bool:
        return bool(self.num.c)

    def __repr__(self) -> str:
        return "RatFunc(%r, %r)" % (list(self.num.c), list(self.den.c))

    def __str__(self) -> str:
        if self.den.degree() == 0:
            return self.num.render()
        return "(%s)/(%s)" % (self.num.render(), self.den.render())
