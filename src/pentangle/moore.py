"""Determinantal structure of the cyclic quintic quadric family.

Five quadrics q_i = x_i^2 + a x_{i+2} x_{i+3} - (1/a) x_{i+1} x_{i+4},
indices mod 5, cut out an elliptic quintic curve for every admissible
modulus a.  Three matrices organize that family:

  * a symmetric 5x5 structure matrix in y whose value at the i-th unit
    direction is the Gram matrix of the doubled quadric 2 q_{3i},
  * its dual in x, solved from the bilinear pairing by coefficient
    matching, which turns out to equal the gradient matrix of the
    quadrics in the 3j column order,
  * an antisymmetric 5x5 matrix of linear forms whose rows annihilate
    the quadrics after a cyclic index reindexing.

Both 5x5 determinants are quintic hypersurface equations fixed by the
level-5 substitution action.  Every identity is certified through two
independent routes: closed forms against coefficient matching, cofactor
determinants against fraction-free elimination, and numeric moduli
against the transcendental one (rational-function scalars).  Span and
pairing claims are decided over the modulus' own field, Q(eps15)(a)
included; the denominator-cleared rings serve only the cleared-cofactor
determinant route.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import Checks
from .multipoly import (
    MultiPoly,
    PolyMatrix,
    det_bareiss,
    det_cofactor,
    determinant,
    in_linear_span,
    rank_at_point,
    scalar_matrix_nullspace,
)
from .scalars import Cyclo, EPS5, Fp, ONE, RatFunc, find_root_of_unity

VARS_X = ("x0", "x1", "x2", "x3", "x4")
VARS_Y = ("y0", "y1", "y2", "y3", "y4")

#: denominator-cleared rings carry the modulus as a leading variable; only
#: the cleared-cofactor determinant claim works in them
AVARS_X = ("a",) + VARS_X
AVARS_Y = ("a",) + VARS_Y


# -- moduli ------------------------------------------------------------


def symbolic_modulus() -> RatFunc:
    """The transcendental modulus, a rational-function scalar over Q(eps15)."""
    return RatFunc.gen(ONE)


def _coerce_modulus(a):
    if isinstance(a, (int, Fraction)):
        return Cyclo(a)
    return a


def _field_one(a):
    if isinstance(a, RatFunc):
        return RatFunc.const(a.one_coeff, a.one_coeff)
    if isinstance(a, Fp):
        return Fp(1, a.p)
    if isinstance(a, Cyclo):
        return ONE
    raise TypeError("modulus must be Cyclo, Fp or RatFunc, not %s"
                    % type(a).__name__)


def _invertible_modulus(a) -> tuple:
    """The coerced modulus and its field's one; a zero modulus raises."""
    a = _coerce_modulus(a)
    one = _field_one(a)
    if a == one * 0:
        raise ValueError("the modulus must be invertible; got zero")
    return a, one


def excluded_moduli() -> tuple:
    """The twelve modulus values without a smooth quintic curve, projectively.

    None stands for the infinite value of the modulus line; the other
    eleven are exact cyclotomic scalars (zero plus two families of five
    fifth-root multiples).
    """
    vals = [Cyclo(0), None]
    for k in range(5):
        vals.append(EPS5 ** k * (EPS5 ** 2 + EPS5 ** 3))
    for k in range(5):
        vals.append(EPS5 ** k * (EPS5 + EPS5 ** 4))
    return tuple(vals)


def excluded_modulus_residues(p: int) -> frozenset[int]:
    """Images in F_p of the eleven finite excluded modulus values.

    The two five-element families are stable under replacing the fifth
    root of unity by any of its powers, so the set does not depend on
    which primitive root the field search returns.
    """
    w = find_root_of_unity(p, 5).v
    out = {0}
    for k in range(5):
        wk = pow(w, k, p)
        out.add(wk * (pow(w, 2, p) + pow(w, 3, p)) % p)
        out.add(wk * (w + pow(w, 4, p)) % p)
    return frozenset(out)


def is_admissible_modulus(a) -> bool:
    """True unless the modulus is degenerate (zero, infinite or excluded)."""
    a = _coerce_modulus(a)
    if a is None:
        return False
    if isinstance(a, RatFunc):
        if not a.is_const():
            return True
        return is_admissible_modulus(a.const_value())
    if isinstance(a, Fp):
        return a.v not in excluded_modulus_residues(a.p)
    if isinstance(a, Cyclo):
        return not any(ex is not None and a == ex for ex in excluded_moduli())
    raise TypeError("modulus must be Cyclo, Fp or RatFunc, not %s"
                    % type(a).__name__)


# -- the quadrics ------------------------------------------------------


def _mono_x(*indices: int) -> tuple[int, ...]:
    e = [0] * 5
    for i in indices:
        e[i % 5] += 1
    return tuple(e)


def _quadrics(a, one) -> tuple[MultiPoly, ...]:
    """The five cyclically linked quadrics of an invertible modulus a."""
    inv_a = one / a
    qs = []
    for i in range(5):
        q = MultiPoly(VARS_X, {
            _mono_x(i, i): one,
            _mono_x(i + 2, i + 3): a,
            _mono_x(i + 1, i + 4): -inv_a,
        }, one)
        if q.homogeneous_degree() != 2:
            raise AssertionError("quadric %d is not homogeneous quadratic" % i)
        qs.append(q)
    return tuple(qs)


def _z(a, one) -> tuple:
    inv_a = one / a
    return (one * 2, a, -inv_a, -inv_a, a)


def z_vector(a) -> tuple:
    """Entry weights (2, a, -1/a, -1/a, a) shared by both structure matrices."""
    return _z(*_invertible_modulus(a))


def reference_curve_points(a) -> tuple[tuple, tuple]:
    """A point satisfying every quadric, plus its cyclic-shift translate.

    Valid for every invertible modulus, including the transcendental one;
    both points have one vanishing coordinate.
    """
    a, one = _invertible_modulus(a)
    zero = one * 0
    return (zero, a, -one, one, -a), (a, -one, one, -a, zero)


# -- the three matrices ------------------------------------------------


def _restrict(poly: MultiPoly, keep: tuple) -> MultiPoly:
    """Project onto a variable subset; exponents off the subset must vanish."""
    idx = [poly.vars.index(v) for v in keep]
    kept = set(idx)
    drop = [k for k in range(len(poly.vars)) if k not in kept]
    terms = {}
    for mono, c in poly.term_items():
        if any(mono[k] for k in drop):
            raise ValueError("term %r involves dropped variables" % (mono,))
        terms[tuple(mono[k] for k in idx)] = c
    return MultiPoly(keep, terms, poly.one)


def _syzygy_matrix(a, one) -> PolyMatrix:
    x0, x1, x2, x3, x4 = MultiPoly.gens(VARS_X, one)
    zero = MultiPoly.zero(VARS_X, one)
    rows = [
        [zero, a * x4, -x3, x2, -(a * x1)],
        [-(a * x4), zero, a * x2, -x1, x0],
        [x3, -(a * x2), zero, a * x0, -x4],
        [-x2, x1, -(a * x0), zero, a * x3],
        [a * x1, -x0, x4, -(a * x3), zero],
    ]
    return PolyMatrix(rows)


class MooreMatrices:
    """The bundle of one modulus: structure matrix in y, its dual in x,
    the syzygy matrix in x, and the five quadrics."""

    __slots__ = ("a", "one", "m", "m_prime", "syzygy", "quadrics")

    def __init__(self, a, one, m: PolyMatrix, m_prime: PolyMatrix,
                 syzygy: PolyMatrix, quadrics: tuple[MultiPoly, ...]):
        self.a = a
        self.one = one
        self.m = m
        self.m_prime = m_prime
        self.syzygy = syzygy
        self.quadrics = quadrics


def build_moore_matrices(a) -> MooreMatrices:
    """Assemble the quadrics and all three matrices; the dual one by
    coefficient matching.

    The i-th component of the structure matrix applied to x is expanded
    in the joint (x, y) ring and sorted by unit y-exponent; the closed
    form z_{2i-m} x_{m-i} for slot (i, m) is then asserted against that
    extraction, so the dual matrix is solved, not postulated.
    """
    a, one = _invertible_modulus(a)
    z = _z(a, one)

    ygens = MultiPoly.gens(VARS_Y, one)
    m = PolyMatrix([[ygens[(i + j) % 5] * z[(i - j) % 5] for j in range(5)]
                    for i in range(5)])
    if not m.is_symmetric():
        raise AssertionError("structure matrix failed the symmetry check")

    joint = VARS_X + VARS_Y
    dual: list[list[MultiPoly | None]] = [[None] * 5 for _ in range(5)]
    for i in range(5):
        terms = {}
        for j in range(5):
            mono = [0] * 10
            mono[j] += 1
            mono[5 + (i + j) % 5] += 1
            terms[tuple(mono)] = z[(i - j) % 5]
        component = MultiPoly(joint, terms, one)
        for key, part in component.split_by(VARS_Y).items():
            if sum(key) != 1:
                raise AssertionError("pairing component is not linear in y")
            dual[i][key.index(1)] = _restrict(part, VARS_X)
    xgens = MultiPoly.gens(VARS_X, one)
    for i in range(5):
        for col in range(5):
            expected = xgens[(col - i) % 5] * z[(2 * i - col) % 5]
            if dual[i][col] != expected:
                raise AssertionError("dual entry (%d, %d) disagrees with its "
                                     "closed form" % (i, col))
    m_prime = PolyMatrix(dual)

    syzygy = _syzygy_matrix(a, one)
    if not syzygy.is_antisymmetric():
        raise AssertionError("syzygy matrix failed the antisymmetry check")
    return MooreMatrices(a, one, m, m_prime, syzygy, _quadrics(a, one))


def quintic_equations(mm: MooreMatrices) -> tuple[MultiPoly, MultiPoly]:
    """Determinants of the structure matrix (in y) and its dual (in x).

    Both are certified homogeneous of degree five, and both are computed
    afresh on every call.
    """
    det_m = determinant(mm.m)
    det_mp = determinant(mm.m_prime)
    for name, det in (("structure", det_m), ("dual", det_mp)):
        if det.homogeneous_degree() != 5:
            raise AssertionError("%s determinant is not a homogeneous "
                                 "quintic" % name)
    return det_m, det_mp


# -- substitution action ----------------------------------------------


def _fifth_root_scalar(one):
    """A primitive fifth root of unity inside the coefficient field."""
    if isinstance(one, Fp):
        return find_root_of_unity(one.p, 5)
    if isinstance(one, Cyclo):
        return EPS5
    if isinstance(one, RatFunc):
        return RatFunc.const(_fifth_root_scalar(one.one_coeff), one.one_coeff)
    raise TypeError("no fifth root of unity for scalars of type %s"
                    % type(one).__name__)


# -- denominator clearing ---------------------------------------------


def _lift_to_cleared(poly: MultiPoly, avars: tuple, extra_a: int = 0) -> MultiPoly:
    """Rewrite rational-function coefficients as terms in the variable a.

    The coefficient is multiplied by a^extra_a first and must then be a
    polynomial; the a-degree moves into slot 0 of the exponent tuple.  A
    coefficient n(a)/a^k in lowest terms times a^extra_a is the
    polynomial n(a)*a^(extra_a - k) exactly when k <= extra_a, so the
    product is a shift of n's degrees; any other denominator keeps a
    pole.
    """
    one = poly.one
    if not isinstance(one, RatFunc):
        raise TypeError("clearing expects rational-function coefficients")
    base = one.one_coeff
    zero = base * 0
    terms = {}
    for mono, c in poly.term_items():
        k = c.den_power
        if k is None or k > extra_a:
            raise ValueError("coefficient %s still has a pole after clearing "
                             "a^%d" % (c, extra_a))
        for d, cc in enumerate(c.num.c, extra_a - k):
            if cc == zero:
                continue
            terms[(d,) + mono] = cc
    return MultiPoly(avars, terms, base)


def specialize_modulus(poly: MultiPoly, value) -> MultiPoly:
    """Evaluate rational-function coefficients at a concrete modulus value.

    A coefficient n(a)/a^k, the form every coefficient of the Moore
    bundle takes, is the sum of n_j * value^(j - k).  The powers of value
    that these sums need, negative ones included, are built once for the
    whole polynomial, so value is inverted at most once and each term is
    a scalar times a power; coefficients at a pole raise
    ZeroDivisionError as `RatFunc.eval` does.  A coefficient with any
    other denominator goes through `RatFunc.eval`.
    """
    one = poly.one
    if not isinstance(one, RatFunc):
        raise TypeError("specialization expects rational-function coefficients")
    base = one.one_coeff
    zero = base * 0
    items = list(poly.term_items())
    laurent = [c for _, c in items if c.den_power is not None]
    low = max((c.den_power for c in laurent), default=0)
    high = max((len(c.num.c) - 1 - c.den_power for c in laurent), default=0)
    powers = {0: base}
    acc = base
    for i in range(1, high + 1):
        acc = acc * value
        powers[i] = acc
    if low:
        inv = base / value
        acc = base
        for i in range(1, low + 1):
            acc = acc * inv
            powers[-i] = acc
    terms = {}
    for mono, c in items:
        k = c.den_power
        if k is None:
            terms[mono] = c.eval(value)
            continue
        acc = zero
        for j, cj in enumerate(c.num.c, -k):
            if cj:
                acc = acc + cj * powers[j]
        terms[mono] = acc
    return MultiPoly(poly.vars, terms, base * 1)


# -- verification reports ----------------------------------------------


def verify_matrix_identities(a=None, mm: MooreMatrices | None = None) -> dict:
    """Certify symmetry, duality, invariance and determinant structure.

    With no argument the modulus is the transcendental parameter, so all
    identities hold as rational-function statements; any nonzero field
    scalar selects a numeric run instead.  mm, when given, is the bundle
    `build_moore_matrices(a)` already built, so a caller that also runs
    `verify_span_claims` builds it once; otherwise it is built here.
    """
    if a is None:
        a = symbolic_modulus()
    a = _coerce_modulus(a)
    if mm is None:
        mm = build_moore_matrices(a)
    elif mm.a != a:
        raise ValueError("the bundle of modulus %s does not belong to %s"
                         % (mm.a, a))
    one = mm.one
    zero = one * 0
    checks = Checks()

    checks.add("structure matrix is symmetric", mm.m.is_symmetric())
    checks.add("syzygy matrix is antisymmetric", mm.syzygy.is_antisymmetric())

    bad = []
    for i in range(5):
        unit = [one if k == i else zero for k in range(5)]
        gram = mm.m.eval_at(unit)
        terms: dict[tuple, object] = {}
        for j in range(5):
            for k in range(5):
                c = gram[j][k]
                if c == zero:
                    continue
                e = [0] * 5
                e[j] += 1
                e[k] += 1
                key = tuple(e)
                terms[key] = terms.get(key, zero) + c
        form = MultiPoly(VARS_X, terms, one)
        if form != mm.quadrics[(3 * i) % 5] * 2:
            bad.append(i)
    checks.add("unit directions recover the doubled quadrics", not bad,
               "failing directions %r" % (bad,) if bad else "all five directions match")

    bad = []
    for i in range(5):
        for j in range(5):
            if mm.m_prime[i, j] != mm.quadrics[(3 * j) % 5].partial_derivative(VARS_X[i]):
                bad.append((i, j))
    checks.add("dual matrix equals the gradient matrix in 3j column order", not bad,
               "failing slots %r" % (bad,) if bad else "all 25 entries match")

    det_m, det_mp = quintic_equations(mm)
    checks.add("both determinants are homogeneous of degree five",
               det_m.homogeneous_degree() == 5 and det_mp.homogeneous_degree() == 5)
    if is_admissible_modulus(a):
        checks.add("both determinants are nonzero at an admissible modulus",
                   not det_m.is_zero() and not det_mp.is_zero())
    checks.add("cyclic index shift fixes both determinants",
               all(det.cyclic_substitution(1) == det for det in (det_m, det_mp)))
    inv = one / _fifth_root_scalar(one)
    checks.add("diagonal character twist fixes both determinants",
               all(det.cyclic_substitution(0, lambda w, d: inv ** w) == det
                   for det in (det_m, det_mp)))

    if isinstance(one, RatFunc):
        cm = mm.m.map_entries(lambda e: _lift_to_cleared(e, AVARS_Y, 1))
        cmp_ = mm.m_prime.map_entries(lambda e: _lift_to_cleared(e, AVARS_X, 1))
        ok = (det_cofactor(cm) == _lift_to_cleared(det_m, AVARS_Y, 5)
              and det_cofactor(cmp_) == _lift_to_cleared(det_mp, AVARS_X, 5))
        checks.add("cleared-cofactor and rational-elimination determinants agree", ok)
    else:
        checks.add("cofactor and fraction-free determinant routes agree",
                   det_bareiss(mm.m) == det_m and det_bareiss(mm.m_prime) == det_mp)

    p0, p1 = reference_curve_points(a)
    values = [q.eval_at(pt) for q in mm.quadrics for pt in (p0, p1)]
    checks.add("reference points satisfy every quadric",
               all(v == zero for v in values))
    checks.add("dual matrix has rank three at the reference points",
               rank_at_point(mm.m_prime, p0) == 3 and rank_at_point(mm.m_prime, p1) == 3)

    if isinstance(one, RatFunc) and isinstance(one.one_coeff, Cyclo):
        v = EPS5 ** 2 + EPS5 ** 3
        dm0 = specialize_modulus(det_m, v)
        dmp0 = specialize_modulus(det_mp, v)
        checks.add("determinant behaviour at a degenerate modulus (record)", True,
                   "structure determinant vanishes identically: %s; dual: %s"
                   % (dm0.is_zero(), dmp0.is_zero()))

    return {
        "passed": checks.passed,
        "modulus": str(a),
        "checks": checks.records,
    }


def verify_span_claims(mm: MooreMatrices) -> dict:
    """Span membership of the 25 pairing products plus the syzygy pairing.

    Every entry of syzygy @ dual^T must be a combination of the five
    quadrics, and each span vector the solve returns is checked to give
    its entry back; the affine index pairing j -> c j + d that makes each
    syzygy row annihilate the reindexed quadrics is searched over all 20
    candidates and reported, not assumed.
    """
    one = mm.one
    zero = one * 0
    checks = Checks()

    product = mm.syzygy @ mm.m_prime.transpose()

    entries = [(i, j) for i in range(5) for j in range(5)]
    vectors = in_linear_span([product[i, j] for i, j in entries], mm.quadrics)
    failures = []
    span_vectors = {}
    ring_zero = MultiPoly.zero(VARS_X, one)
    for (i, j), vec in zip(entries, vectors):
        if vec is None or sum((q * c for q, c in zip(mm.quadrics, vec)),
                              ring_zero) != product[i, j]:
            failures.append((i, j))
        elif (i, j) in ((0, 0), (0, 1)):
            span_vectors["(%d, %d)" % (i, j)] = [str(c) for c in vec]
    checks.add("all 25 pairing entries lie in the quadric span", not failures,
               "failing entries %r" % (failures,) if failures else "25 of 25 resolved")

    column = PolyMatrix([[x] for x in MultiPoly.gens(VARS_X, one)])
    checks.add("the quadratic form of the syzygy matrix vanishes identically",
               (column.transpose() @ mm.syzygy @ column)[0, 0].is_zero())

    pairings = []
    for c in range(1, 5):
        for d in range(5):
            if all(sum((mm.syzygy[i, j] * mm.quadrics[(c * j + d) % 5] for j in range(5)),
                       ring_zero).is_zero() for i in range(5)):
                pairings.append((c, d))
    pairings.sort()
    checks.add("a cyclic index pairing annihilates every syzygy row", bool(pairings),
               "affine index maps j -> c j + d with (c, d) in %s" % (pairings,))

    if pairings:
        c0, d0 = pairings[0]
        cmat = PolyMatrix([[MultiPoly.constant(VARS_X, one if (c0 * j + d0) % 5 == k
                                               else zero, one)
                            for k in range(5)] for j in range(5)])
        qcol = PolyMatrix([[q] for q in mm.quadrics])
        cert = mm.syzygy @ (cmat @ qcol)
        checks.add("a constant reindexing matrix certifies the pairing",
                   all(cert[i, 0].is_zero() for i in range(5)))

        dims = []
        for i in range(5):
            cubics = [mm.syzygy[i, j] * mm.quadrics[(c0 * j + d0) % 5]
                      for j in range(5)]
            coeffs = [dict(g.term_items()) for g in cubics]
            monos = sorted(set().union(*coeffs))
            rows = [[c.get(mo, zero) for c in coeffs] for mo in monos]
            dims.append(len(scalar_matrix_nullspace(rows, one)))
        checks.add("every syzygy row has a nonzero coefficient kernel",
                   all(d >= 1 for d in dims), "kernel dimensions %s" % (dims,))

    return {
        "passed": checks.passed,
        "modulus": str(mm.a),
        "pairings": pairings,
        "span_vectors": span_vectors,
        "checks": checks.records,
    }
