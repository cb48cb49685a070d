"""Elementary integer arithmetic shared across the package.

Everything here works on plain Python ints, so there is no overflow to
worry about; the only cost of large inputs is time.  Primality is a
Miller-Rabin test to the twelve prime bases 2..37, which decides exactly
below psi_12 = 318665857834031151167461 ~ 3.19e23 (Sorenson and
Webster, Math. Comp. 86, 2017); above it, 64 more bases seeded from n
bring the error probability below 2**-128.

Factorization is lazy: prime_powers(n) yields each prime of n with its
full exponent the moment it is found, by trial division over the primes
below 200, then by a primality test of each cofactor and Brent's
variant of Pollard's rho on the composite ones, smallest part first.  A
caller that can decide its question from one prime, such as the
representation engine in quadform meeting a prime at which D has no
square root, stops there and never pays for the rest.  factorize(n)
collects the whole stream into a dict.  This is plenty for the
desk-scale inputs this package deals with.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

__all__ = ["is_prime", "prime_powers", "factorize"]

# The twelve prime bases up to 37 and the least composite that is a strong
# probable prime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017): below _PSI_12 they decide primality exactly.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461
_EXTRA_ROUNDS = 64  # error < 4**-64 = 2**-128 for inputs >= _PSI_12


def is_prime(n: int) -> bool:
    """Primality test: exact below _PSI_12 ~ 3.19e23, Miller-Rabin above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    witnesses = list(_MR_WITNESSES)
    if n >= _PSI_12:
        # Bases seeded from n itself: deterministic output, random-base
        # error bound in practice.
        rng = random.Random(n)
        witnesses += [rng.randrange(2, n - 1) for _ in range(_EXTRA_ROUNDS)]
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


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
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


def prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """The prime factorization of n >= 1 as a stream of (prime, exponent).

    Each prime comes once, with its full exponent, as soon as it is
    found: first the primes up to _TRIAL_BOUND in ascending order, then
    the rest in the order the primality test and rho reach them.  A
    consumer that only needs one prime stops the work there.
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
            d = _pollard_rho(n)
            parts += [[d, k], [n // d, k]]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    return dict(prime_powers(n))

