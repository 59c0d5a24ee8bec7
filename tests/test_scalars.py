"""Field-level checks: cyclotomic arithmetic, prime fields, rational functions."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentangle.scalars import (
    Cyclo,
    DEFAULT_PRIMES,
    EPS3,
    EPS5,
    EPS15,
    Fp,
    PHI15_COEFFS,
    RatFunc,
    UniPoly,
    cyclo_root_of_unity,
    embed_cyclo_in_prime_field,
    find_root_of_unity,
    _inverse_table,
)
from pentangle.hessepencil import WITNESS_PRIMES

SEED = 20260824


def _random_cyclo(rng: random.Random) -> Cyclo:
    return Cyclo([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)])


# -- the cyclotomic field ---------------------------------------------


def test_minimal_polynomial_kills_generator():
    acc = Cyclo(0)
    for d, c in enumerate(PHI15_COEFFS):
        acc = acc + Cyclo(c) * EPS15 ** d
    assert acc.is_zero()


def test_generator_has_order_15():
    assert EPS15 ** 15 == 1
    assert EPS15 ** 5 != 1
    assert EPS15 ** 3 != 1
    assert [k for k in range(1, 16) if EPS15 ** k == 1] == [15]


def test_eps3_satisfies_quadratic():
    # x^2 + x + 1 vanishes on the canonical cube root of unity
    assert EPS3 * EPS3 + EPS3 + 1 == 0
    assert EPS3 == EPS15 ** 5


def test_eps5_satisfies_quartic():
    acc = Cyclo(1)
    for k in range(1, 5):
        acc = acc + EPS5 ** k
    assert acc.is_zero()
    assert EPS5 == EPS15 ** 3


def test_root_of_unity_trivial_cases():
    assert cyclo_root_of_unity(3, 0) == 1
    w = cyclo_root_of_unity(3, 1)
    assert w ** 3 == 1 and w != 1
    assert cyclo_root_of_unity(15, 5) == cyclo_root_of_unity(3, 1)


def test_root_of_unity_rejects_bad_order():
    for bad in (0, 2, 4, 7, 30):
        with pytest.raises(ValueError):
            cyclo_root_of_unity(bad, 1)


def test_root_of_unity_orders():
    for n in (1, 3, 5, 15):
        for k in range(n):
            x = cyclo_root_of_unity(n, k)
            expected = n // gcd(n, k) if k else 1
            assert min(m for m in range(1, 16) if x ** m == 1) == expected


def test_cyclo_field_axioms_random():
    rng = random.Random(SEED)
    one = Cyclo(1)
    for _ in range(1000):
        x, y, z = (_random_cyclo(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inverse() == one


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=0, max_size=8))
@settings(max_examples=60, deadline=None)
def test_cyclo_inverse_roundtrip(coeffs):
    x = Cyclo(coeffs)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1
        assert (1 / x) * x == 1


def test_cyclo_construction_reduces_long_vectors():
    # t^8 = t^7 - t^5 + t^4 - t^3 + t - 1
    long8 = Cyclo([0] * 8 + [1])
    assert long8 == Cyclo([-1, 1, 0, -1, 1, -1, 0, 1])
    assert Cyclo([0] * 14 + [1]) == EPS15 ** 14


def test_cyclo_str_uses_unity_labels():
    assert str(EPS3) == "eps3"
    assert str(EPS5 ** 2) == "eps5^2"
    assert str(Cyclo(1)) == "1"
    assert str(-EPS15) == "-eps15"


# -- prime fields ------------------------------------------------------


def test_fp_basic_arithmetic():
    x = Fp(29, 31)
    assert x + 5 == Fp(3, 31)
    assert x - 30 == Fp(30, 31)
    assert 2 * x == Fp(27, 31)
    assert x / x == 1
    assert (1 / x) * x == 1
    assert x ** -1 == x.inverse()
    assert Fp(0, 31) == 0 and not Fp(0, 31)


def test_fp_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        Fp(1, 31) + Fp(1, 61)


def test_fp_field_axioms_random():
    rng = random.Random(SEED + 1)
    p = 151
    for _ in range(1000):
        x, y, z = (Fp(rng.randrange(p), p) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == 1


def test_find_root_of_unity_all_default_primes():
    for p in DEFAULT_PRIMES:
        assert p % 15 == 1
        w = find_root_of_unity(p, 15)
        assert w ** 15 == 1
        assert w ** 5 != 1 and w ** 3 != 1


def test_find_root_of_unity_rejects_impossible_order():
    with pytest.raises(ValueError):
        find_root_of_unity(31, 7)


def test_embed_identity_and_orders():
    p = 31
    w = find_root_of_unity(p, 15)
    assert embed_cyclo_in_prime_field(Cyclo(1), p, w) == 1
    e3 = embed_cyclo_in_prime_field(EPS3, p, w)
    # roots of x^2 + x + 1 in F_31 are exactly {5, 25}
    assert e3.v in (5, 25)
    e15 = embed_cyclo_in_prime_field(EPS15, p, w)
    assert e15 ** 15 == 1 and e15 ** 5 != 1


def test_embed_rejects_bad_inputs():
    w31 = find_root_of_unity(31, 15)
    with pytest.raises(ValueError):
        embed_cyclo_in_prime_field(Cyclo(1), 37, Fp(2, 37))
    with pytest.raises(ValueError):
        embed_cyclo_in_prime_field(Cyclo(1), 31, Fp(1, 31))
    with pytest.raises(ValueError):
        embed_cyclo_in_prime_field(Cyclo(1), 61, w31)


def test_embed_is_ring_homomorphism_random():
    rng = random.Random(SEED + 2)
    p = 61
    w = find_root_of_unity(p, 15)
    for _ in range(1000):
        x, y = _random_cyclo(rng), _random_cyclo(rng)
        ex = embed_cyclo_in_prime_field(x, p, w)
        ey = embed_cyclo_in_prime_field(y, p, w)
        assert embed_cyclo_in_prime_field(x * y, p, w) == ex * ey
        assert embed_cyclo_in_prime_field(x + y, p, w) == ex + ey


def test_fraction_mod_p():
    # the embedding reduces each rational coefficient n/d to n * d^-1 mod p
    w = find_root_of_unity(31, 15)
    assert embed_cyclo_in_prime_field(Cyclo(Fraction(1, 9)), 31, w) == pow(9, 29, 31)
    assert embed_cyclo_in_prime_field(Cyclo(Fraction(-2, 9)), 31, w) == -2 * pow(9, 29, 31) % 31
    with pytest.raises(ZeroDivisionError):
        embed_cyclo_in_prime_field(Cyclo(Fraction(1, 31)), 31, w)


# -- rational functions ------------------------------------------------


def _random_unipoly(rng: random.Random, max_deg: int = 3) -> UniPoly:
    return UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, max_deg + 1))])


def _random_ratfunc(rng: random.Random) -> RatFunc:
    num = _random_unipoly(rng)
    den = _random_unipoly(rng)
    while den.is_zero():
        den = _random_unipoly(rng)
    return RatFunc(num, den)


def test_unipoly_divmod_invariant():
    rng = random.Random(SEED + 3)
    for _ in range(300):
        f = _random_unipoly(rng, 5)
        g = _random_unipoly(rng, 3)
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()


def test_ratfunc_normalization():
    a = UniPoly.gen()
    one = UniPoly.const(Fraction(1))
    # (a^2 - 1)/(a - 1) reduces to a + 1
    f = RatFunc(a * a - one, a - one)
    assert f == RatFunc(a + one)
    # denominator comes out monic
    g = RatFunc(one, UniPoly([Fraction(0), Fraction(2)]))
    assert g.den.lc() == 1
    assert g.num.c == (Fraction(1, 2),)


def test_ratfunc_field_axioms_random():
    rng = random.Random(SEED + 4)
    for _ in range(1000):
        x, y, z = (_random_ratfunc(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == 1


def test_ratfunc_eval_matches_formal_arithmetic():
    rng = random.Random(SEED + 5)
    for _ in range(200):
        x, y = _random_ratfunc(rng), _random_ratfunc(rng)
        t = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        if x.den.eval(t) == 0 or y.den.eval(t) == 0:
            continue
        s = x * y
        if s.den.eval(t) == 0:
            continue
        assert s.eval(t) == x.eval(t) * y.eval(t)


def test_ratfunc_zero_division():
    with pytest.raises(ZeroDivisionError):
        RatFunc(UniPoly.gen(), UniPoly(()))
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(0).inverse()


def test_ratfunc_over_prime_field_base():
    p = 31
    one = Fp(1, p)
    a = RatFunc.gen(one)
    f = (a ** 2 - RatFunc.const(1, one)) / (a - RatFunc.const(1, one))
    assert f == a + RatFunc.const(1, one)


# -- integer storage and the monomial-denominator path -------------------


@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40),
                min_size=0, max_size=15))
@settings(max_examples=200, deadline=None)
def test_cyclo_storage_is_canonical(coeffs):
    x = Cyclo(coeffs)
    n, d = x._n, x._d
    assert len(n) == 8 and all(type(c) is int for c in n)
    assert type(d) is int and d > 0
    assert gcd(d, *n) == 1
    assert all(isinstance(c, Fraction) for c in x.coeffs)
    assert Cyclo(x.coeffs) == x
    assert Cyclo(x.coeffs)._n == n and Cyclo(x.coeffs)._d == d
    if len(coeffs) <= 8:
        assert x.coeffs == tuple(coeffs) + (Fraction(0),) * (8 - len(coeffs))
    # the same value reached through arithmetic has the same storage
    assert (x + x - x)._n == n and (x * 3 / 3)._d == d
    assert hash(x + x - x) == hash(x)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=40),
       st.integers(min_value=-50, max_value=50))
@settings(max_examples=100, deadline=None)
def test_cyclo_equality_with_ints_and_fractions(q, k):
    assert Cyclo(q) == q and q == Cyclo(q)
    assert Cyclo(k) == k and Cyclo(k) == Fraction(k)
    assert Cyclo([q]) == Cyclo(q)
    assert (Cyclo(q) == k) == (q == k)
    assert Cyclo([q, 1]) != q and Cyclo([q, 1]) != Cyclo(q)
    assert Cyclo(q) + k == q + k and Cyclo(q) * k == q * k


def _euclid_lowest_terms(num: list, den: list, one) -> tuple[tuple, tuple]:
    """Test oracle: num/den reduced by a polynomial gcd from plain Euclid
    on coefficient lists (low degree first), denominator made monic."""
    def strip(f):
        f = list(f)
        while f and f[-1] == one * 0:
            f.pop()
        return f

    def divmod_(f, g):
        f, q = strip(f), [one * 0] * max(len(f) - len(g) + 1, 1)
        while len(f) >= len(g):
            c = f[-1] / g[-1]
            shift = len(f) - len(g)
            q[shift] = c
            for i, gi in enumerate(g):
                f[shift + i] = f[shift + i] - c * gi
            f = strip(f)
        return strip(q), f

    a, b = strip(num), strip(den)
    while b:
        a, b = b, divmod_(a, b)[1]
    g = [c / a[-1] for c in a]
    num, den = divmod_(num, g)[0], divmod_(den, g)[0]
    lead = den[-1]
    return tuple(c / lead for c in num), tuple(c / lead for c in den)


@pytest.mark.parametrize("base", ["fraction", "cyclo", "fp"])
def test_ratfunc_monomial_denominator_matches_euclid(base):
    rng = random.Random(SEED + 6)
    ones = {"fraction": Fraction(1), "cyclo": Cyclo(1), "fp": Fp(1, 61)}
    one = ones[base]

    def scalar():
        if base == "cyclo":
            return _random_cyclo(rng) if rng.random() < 0.7 else Cyclo(0)
        value = rng.choice((0, 0) + tuple(range(-9, 10)))
        return Fraction(value, rng.randint(1, 5)) if base == "fraction" else one * value

    for _ in range(150):
        num = [scalar() for _ in range(rng.randint(1, 6))]
        num[rng.randrange(len(num))] = one * rng.randint(1, 9)
        k = rng.randint(0, 5)
        lead = scalar()
        while lead == one * 0:
            lead = scalar()
        den = [one * 0] * k + [lead]
        f = RatFunc(UniPoly(num, one), UniPoly(den, one))
        assert (f.num.c, f.den.c) == _euclid_lowest_terms(num, den, one)


@pytest.mark.parametrize("base", ["fraction", "cyclo", "fp"])
def test_ratfunc_laurent_arithmetic_matches_generic_path(base, monkeypatch):
    """+ - * / of operands with denominators a^k against the
    cross-multiplied RatFunc(num, den) and the Euclid oracle; + - * on
    such operands never reach a polynomial gcd."""
    rng = random.Random(SEED + 7)
    one = {"fraction": Fraction(1), "cyclo": Cyclo(1), "fp": Fp(1, 61)}[base]
    zero = one * 0

    def laurent(num, k):
        return RatFunc(UniPoly([one * c for c in num], one),
                       UniPoly([zero] * k + [one], one))

    def random_laurent():
        num = [rng.choice((0, 0, 1, -1, 2, 3, -7)) for _ in range(rng.randint(0, 5))]
        if base == "cyclo" and num and rng.random() < 0.5:
            num[0] = _random_cyclo(rng)
        return laurent(num, rng.randint(0, 4))

    # zero results, cancellation to a lower power of a, different powers
    pairs = [(laurent([1, 1], 2), laurent([-1], 2)),
             (laurent([3, 0, 1], 3), laurent([-3], 3)),
             (laurent([1], 1), laurent([1], 3)),
             (laurent([0, 0, 1], 0), laurent([5], 3)),
             (laurent([2, 1], 2), laurent([2, 1], 2)),
             (laurent([], 0), laurent([1, 2], 1))]
    pairs += [(random_laurent(), random_laurent()) for _ in range(150)]
    ops = {"+": (lambda x, y: x + y,
                 lambda x, y: (x.num * y.den + y.num * x.den, x.den * y.den)),
           "-": (lambda x, y: x - y,
                 lambda x, y: (x.num * y.den - y.num * x.den, x.den * y.den)),
           "*": (lambda x, y: x * y,
                 lambda x, y: (x.num * y.num, x.den * y.den)),
           "/": (lambda x, y: x / y,
                 lambda x, y: (x.num * y.den, x.den * y.num))}
    for name, (op, cross) in ops.items():
        for x, y in pairs:
            if name == "/" and y.is_zero():
                continue
            with monkeypatch.context() as m:
                if name != "/":
                    m.setattr(UniPoly, "gcd", None)
                got = op(x, y)
            num, den = cross(x, y)
            assert got == RatFunc(num, den), (name, x, y)
            assert (got.num.c, got.den.c) == _euclid_lowest_terms(
                list(num.c), list(den.c), one), (name, x, y)
    assert laurent([1, 1], 2) + laurent([-1], 2) == laurent([1], 1)
    assert (laurent([2, 1], 2) - laurent([2, 1], 2)).den.c == (one,)


def _reference_cyclo(coeffs) -> Cyclo:
    """The constructor's canonical element of a Fraction coefficient list
    of degree <= 14."""
    return Cyclo([Fraction(c) for c in coeffs])


def _cyclo_operand(rng: random.Random) -> list:
    """Fraction coefficients of a rational or an irrational element, with
    denominator 1 or not, zero included."""
    den = rng.choice((1, 1, 2, 3, 6))
    size = rng.choice((1, 1, 8))
    cs = [Fraction(rng.randint(-6, 6), den) for _ in range(size)]
    if size == 8 and rng.random() < 0.3:
        cs[0] = Fraction(rng.randint(-6, 6))
    return cs + [Fraction(0)] * (8 - size)


def test_cyclo_fast_paths_match_the_constructor():
    """+ - * neg bool == hash against the constructor, on every mix of
    rational and irrational operands with d = 1 and d != 1."""
    rng = random.Random(SEED + 8)
    seen = set()
    for _ in range(600):
        xs, ys = _cyclo_operand(rng), _cyclo_operand(rng)
        x, y = _reference_cyclo(xs), _reference_cyclo(ys)
        seen.add((x.is_rational(), x._d == 1, y.is_rational(), y._d == 1))
        prod = [Fraction(0)] * 15
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                prod[i + j] += a * b
        cases = [(x + y, [a + b for a, b in zip(xs, ys)]),
                 (x - y, [a - b for a, b in zip(xs, ys)]),
                 (x * y, prod),
                 (-x, [-a for a in xs]),
                 (x + x * -1, [0]),
                 (x - x, [0])]
        for got, coeffs in cases:
            want = _reference_cyclo(coeffs)
            assert (got._n, got._d) == (want._n, want._d), (xs, ys)
            assert got == want and hash(got) == hash(want)
            assert bool(got) == any(coeffs) == (not got.is_zero())
        assert (x == y) == (xs == ys)
        # int and Fraction operands still go through the coercion
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for got, coeffs in ((x + q, [xs[0] + q] + xs[1:]),
                            (q - x, [q - xs[0]] + [-c for c in xs[1:]]),
                            (x * 3, [3 * c for c in xs])):
            want = _reference_cyclo(coeffs)
            assert (got._n, got._d) == (want._n, want._d)
    assert len(seen) == 16


def test_fp_raw_results_match_the_constructor():
    rng = random.Random(SEED + 9)
    for p in (31, 241):
        for _ in range(200):
            x, y = Fp(rng.randrange(p), p), Fp(rng.randrange(p), p)
            k = rng.randint(-3 * p, 3 * p)
            for got, want in ((x + y, Fp(x.v + y.v, p)), (x - y, Fp(x.v - y.v, p)),
                              (x * y, Fp(x.v * y.v, p)), (-x, Fp(-x.v, p)),
                              (x + k, Fp(x.v + k, p)), (k - x, Fp(k - x.v, p)),
                              (x * k, Fp(x.v * k, p)), (k * x, Fp(k * x.v, p))):
                assert type(got) is Fp
                assert (got.v, got.p) == (want.v, want.p)
                assert got == want and hash(got) == hash(want)
                assert 0 <= got.v < p
            # an int operand is reduced before it is used
            if k % p:
                assert (x / k).v == x.v * pow(k, p - 2, p) % p
            with pytest.raises(ZeroDivisionError):
                x / (k - k % p)


@pytest.mark.parametrize("p", DEFAULT_PRIMES + WITNESS_PRIMES)
def test_inverse_table_matches_pow(p):
    inv = _inverse_table(p)
    assert inv.dtype == np.int64 and not inv.flags.writeable
    assert inv.tolist() == [0] + [pow(x, p - 2, p) for x in range(1, p)]


@pytest.mark.parametrize("base", ["fraction", "cyclo", "fp"])
def test_ratfunc_laurent_arithmetic_cancels_end_coefficients(base, monkeypatch):
    """+ - * of operands with denominators a^k whose results lose their
    lowest or highest coefficient, or both, against the Euclid oracle:
    the trims `_laurent` keeps must catch every cancellation."""
    rng = random.Random(SEED + 10)
    one = {"fraction": Fraction(1), "cyclo": Cyclo(1), "fp": Fp(1, 61)}[base]
    zero = one * 0

    def laurent(num, k):
        return RatFunc(UniPoly([one * c for c in num], one),
                       UniPoly([zero] * k + [one], one))

    def random_laurent():
        num = [rng.choice((0, 1, -1, 2, 3, -7)) for _ in range(rng.randint(1, 5))]
        num[-1] = num[-1] or 1
        if base == "cyclo" and rng.random() < 0.5:
            num[rng.randrange(len(num))] = _random_cyclo(rng)
        return laurent(num, rng.randint(0, 4))

    pairs = [(laurent([1, 1], 1), laurent([-1], 0)),       # top cancels, k > l
             (laurent([-1], 0), laurent([1, 1], 1)),       # top cancels, k < l
             (laurent([1, 2, 3], 2), laurent([-1, 5, -3], 2)),   # both ends
             (laurent([2, 0, 1], 3), laurent([-2, 4], 3)),       # low cancels
             (laurent([0, 1], 0), laurent([1], 1)),              # a * 1/a
             (laurent([0, 0, 3], 0), laurent([1, 1], 2))]
    for _ in range(150):
        x, w = random_laurent(), random_laurent()
        pairs += [(x, w - x), (w - x, x), (x, x + w)]
    ops = {"+": (lambda x, y: x + y,
                 lambda x, y: (x.num * y.den + y.num * x.den, x.den * y.den)),
           "-": (lambda x, y: x - y,
                 lambda x, y: (x.num * y.den - y.num * x.den, x.den * y.den)),
           "*": (lambda x, y: x * y,
                 lambda x, y: (x.num * y.num, x.den * y.den))}
    for name, (op, cross) in ops.items():
        for x, y in pairs:
            with monkeypatch.context() as m:
                m.setattr(UniPoly, "gcd", None)
                got = op(x, y)
            num, den = cross(x, y)
            assert (got.num.c, got.den.c) == _euclid_lowest_terms(
                list(num.c), list(den.c), one), (name, x, y)
            assert not got.num.c or (got.num.c[-1] and (got.den_power == 0
                                                         or got.num.c[0]))
            assert got.den_power == len(got.den.c) - 1
    assert laurent([1, 1], 1) - laurent([1], 0) == laurent([1], 1)
    assert laurent([-1], 0) + laurent([1, 1], 1) == laurent([1], 1)


def test_ratfunc_den_power():
    a = RatFunc.gen(Cyclo(1))
    assert (1 / a ** 3).den_power == 3
    assert (a ** 2).den_power == 0
    assert RatFunc.const(0, Cyclo(1)).den_power == 0
    assert (1 / (a + 1)).den_power is None
    assert ((a * a + a) / (a + 1)).den_power == 0
    assert (-(1 / (a ** 2 - 2))).den_power is None
