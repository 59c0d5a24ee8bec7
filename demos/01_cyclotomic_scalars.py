"""Exact scalar arithmetic: the degree-8 cyclotomic field and its
prime-field shadows.

Every coefficient in the symbolic verifications lives in Q(eps15),
represented as Q[t] modulo the 15th cyclotomic polynomial, so equality
is decidable and nothing is ever rounded.
"""

from pentangle import (DEFAULT_PRIMES, EPS3, EPS5, EPS15, Cyclo,
                       embed_cyclo_in_prime_field, find_root_of_unity)

# -- the primitive 15th root and the relations it satisfies -----------

print("eps15 =", EPS15)
print("eps15^15 == 1:", EPS15 ** 15 == Cyclo(1))
print("eps15^5  ==", EPS15 ** 5, " (a primitive cube root: eps3)")
print("eps15^3  ==", EPS15 ** 3, " (a primitive fifth root: eps5)")
print("eps3 * eps3^2 == 1:", EPS3 * EPS3 ** 2 == Cyclo(1))

# 1 + eps5 + eps5^2 + eps5^3 + eps5^4 = 0, the degree-4 relation
total = Cyclo(1) + EPS5 + EPS5 ** 2 + EPS5 ** 3 + EPS5 ** 4
print("sum of all fifth roots of unity:", total)

# an inverse is the product of the seven other Galois conjugates divided
# by the norm, which is a nonzero rational
print("eps15 * eps15^-1 == 1:", EPS15 * EPS15.inverse() == Cyclo(1))

# -- reduction to small prime fields ----------------------------------
#
# every supported prime is 1 mod 15, so F_p contains all 15th roots of
# unity and the whole field embeds; the embedding sends eps15 to a
# primitive 15th root mod p.

print()
print("supported primes:", DEFAULT_PRIMES)
for p in DEFAULT_PRIMES[:2]:
    root = find_root_of_unity(p, 15)
    image = embed_cyclo_in_prime_field(EPS15, p, root)
    print("p = %d: witness root %s, eps15 -> %s, image^15 = %s"
          % (p, root, image, image ** 15))

# the embedding is a ring map: check it on a random-looking combination
root31 = find_root_of_unity(31, 15)


def embed(x):
    return embed_cyclo_in_prime_field(x, 31, root31)


value = EPS3 * EPS5 ** 2 + EPS15.inverse()
print("embedding respects + and *:",
      embed(value) == embed(EPS3) * embed(EPS5) ** 2
      + embed(EPS15).inverse())
