"""Elementary integer arithmetic shared across the package.

Everything here works on plain Python ints, so there is no overflow to
worry about; the only cost of large inputs is time.  Primality is a
Miller-Rabin test to the leading prime bases 2, 3, 5, ..., 37.  Let
psi_k be the least composite that is a strong probable prime to the
first k of them (OEIS A014233); below psi_k those k bases decide
exactly, so n is tested with the fewest bases that are proven exact
for it:

    n below                      bases
    2047                         1       psi_1
    1373653                      2       psi_2
    25326001                     3       psi_3
    3215031751                   4       psi_4
    2152302898747                5       psi_5
    3474749660383                6       psi_6
    341550071728321              7       psi_7 = psi_8
    3825123056546413051          9       psi_9
    318665857834031151167461     12      psi_10 = psi_11 = psi_12

psi_1..psi_8 are from Jaeschke, On strong pseudoprimes to several bases,
Math. Comp. 61 (1993); psi_9..psi_12 (with psi_13) from Sorenson and
Webster, Strong pseudoprimes to twelve prime bases, Math. Comp. 86
(2017).  From psi_12 ~ 3.19e23 on, the twelve bases are followed by 64
more seeded from n, which bring the error probability below 2**-128.

Factorization is lazy: prime_powers(n) yields each prime of n with its
full exponent the moment it is found, by trial division over the primes
below 200, then by a primality test of each cofactor and Brent's
variant of Pollard's rho on the composite ones, smallest part first.  A
caller that can decide its question from one prime, such as the
representation engine in quadform meeting a prime at which D has no
square root, stops there and never pays for the rest.  factorize(n)
collects the whole stream into a dict.  Rho gives up with ValueError
on a cofactor it cannot split within seconds, such as a product of two
20-digit primes, which would take it hours.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

__all__ = ["is_prime", "prime_powers", "factorize"]

# The twelve prime bases up to 37, and (psi_k, k) for each k at which
# psi_k grows (see the module docstring): below psi_k, the first k bases
# decide primality exactly.  The last row is psi_12.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXACT_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)
_PSI_12 = _EXACT_TIERS[-1][0]
_EXTRA_ROUNDS = 64  # error < 4**-64 = 2**-128 for inputs >= _PSI_12


def is_prime(n: int) -> bool:
    """Primality test: exact below _PSI_12 ~ 3.19e23, Miller-Rabin above.

    One gcd with 7420738134810, the product of the twelve bases, screens
    first: it exceeds 1 exactly when a base divides n, and then n is
    prime exactly when it is that base.  Below _PSI_12, n is then tested
    to the fewest leading bases that decide exactly below some psi_k > n.
    """
    if n < 2:
        return False
    if math.gcd(n, 7420738134810) > 1:
        return n < 38 and n in _MR_WITNESSES
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for bound, k in _EXACT_TIERS:
        if n < bound:
            witnesses = _MR_WITNESSES[:k]
            break
    else:
        # Bases seeded from n itself: deterministic output, random-base
        # error bound in practice.
        rng = random.Random(n)
        witnesses = _MR_WITNESSES + tuple(
            rng.randrange(2, n - 1) for _ in range(_EXTRA_ROUNDS)
        )
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Rho takes about sqrt(p) steps of about 0.7 us to split off a prime p;
# it checks its budget between rounds of doubling length, so it may
# take up to twice as many steps before it refuses.
_RHO_STEPS = 2**20


class _RhoRefusal(ValueError):
    """Pollard's rho spent its step budget on a cofactor it did not split."""


def _pollard_rho(n: int, budget: list[int] | None = None) -> int:
    """One nontrivial factor of composite n (Brent's cycle variant).

    Its steps, counted across restarts, are taken from budget, a
    one-element list of the steps left, which every call given the same
    list draws on; a call given none has _RHO_STEPS of its own.  Once
    the budget is spent it raises _RhoRefusal.
    """
    if budget is None:
        budget = [_RHO_STEPS]
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    left = budget[0]
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            if budget[0] <= 0:
                raise _RhoRefusal(
                    f"a {len(str(n))}-digit cofactor resisted {left - budget[0]} steps of "
                    f"Pollard's rho; its budget was {left} steps, checked between "
                    f"rounds of doubling length"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            budget[0] -= r + min(k, r)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


# Bounds of 100 to 300 cost least, measured on the values a witness
# search factors (~1e4..1e11), on primes above 1e9 and on products of two
# primes above 1e4; trial division up to 10**4 cost 1.4x, 5x and 2x as
# much on those three sets.
_TRIAL_BOUND = 200


def prime_powers(
    n: int, rho_budget: list[int] | None = None
) -> Iterator[tuple[int, int]]:
    """The prime factorization of n >= 1 as a stream of (prime, exponent).

    Each prime comes once, with its full exponent, as soon as it is
    found: first the primes up to _TRIAL_BOUND in ascending order, then
    the rest in the order the primality test and rho reach them.  A
    consumer that only needs one prime stops the work there.  Every rho
    call draws on rho_budget, as _pollard_rho's budget, when one is
    given.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    for p in (2, 3, 5):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            yield p, e
    # Trial division over the mod-30 wheel only up to _TRIAL_BOUND: the
    # cofactor is then tested for primality, so a prime input stops here,
    # and rho splits a composite one faster than the wheel would.
    f = 7
    step = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f <= _TRIAL_BOUND and f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            yield f, e
        f += step[i]
        i = (i + 1) % 8
    # Unsplit parts of the cofactor as [part, multiplicity]; the smallest
    # is taken up first, as it is the cheapest to test and to split.
    parts = [[n, 1]] if n > 1 else []
    while parts:
        parts.sort(reverse=True)
        n, k = parts.pop()
        if is_prime(n):
            # n may still divide the other parts: a split need not be coprime
            e = k
            for part in parts:
                while part[0] % n == 0:
                    part[0] //= n
                    e += part[1]
            parts = [part for part in parts if part[0] > 1]
            yield n, e
        elif math.isqrt(n) ** 2 == n:
            parts.append([math.isqrt(n), 2 * k])
        else:
            d = _pollard_rho(n, rho_budget)
            parts += [[d, k], [n // d, k]]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    return dict(prime_powers(n))

