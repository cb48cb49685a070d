"""Primality, Kronecker symbols, and factorization against brute force."""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from volrigid.arith import euler_phi, factorize, is_prime, kronecker_symbol


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_small_exhaustive():
    for n in range(2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_pinned():
    assert is_prime(241)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(29341)  # Carmichael
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_random_against_trial_division():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 10**7)
        assert is_prime(n) == naive_is_prime(n), n


def naive_legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def test_kronecker_matches_legendre_for_odd_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for a in range(-2 * p, 2 * p + 1):
            assert kronecker_symbol(a, p) == naive_legendre(a, p), (a, p)


def test_kronecker_pinned():
    assert kronecker_symbol(-3, 7) == 1
    assert kronecker_symbol(-3, 5) == -1
    assert kronecker_symbol(12345, 1) == 1
    assert kronecker_symbol(-48, 5) == -1
    assert kronecker_symbol(-48, 11) == -1
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(-4, 13) == 1


def test_kronecker_multiplicative_in_top_argument():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randrange(-200, 201)
        b = rng.randrange(-200, 201)
        n = rng.randrange(1, 400)
        lhs = kronecker_symbol(a * b, n)
        rhs = kronecker_symbol(a, n) * kronecker_symbol(b, n)
        assert lhs == rhs, (a, b, n)


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _assert_factorization(n: int, factors: dict[int, int]) -> None:
    product = 1
    for p, e in factors.items():
        assert e >= 1 and is_prime(p), (n, p)
        if p < 10**6:
            assert naive_is_prime(p), (n, p)
        product *= p**e
    assert product == n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 18).flatmap(lambda k: st.integers(1, 10**k)))
def test_factorize_roundtrip(n):
    _assert_factorization(n, factorize(n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    p=st.integers(10**4, 10**9).map(_next_prime),
    q=st.integers(10**4, 10**9).map(_next_prime),
    small=st.sampled_from((1, 2, 3 * 7, 199, 211, 2**5 * 11**3)),
)
def test_factorize_primes_and_products_of_two_large_primes(p, q, small):
    # primes and semiprimes above the trial-division bound go to the
    # primality test and rho; small cofactors below and above that bound
    # are split off on the way
    assert factorize(p) == {p: 1}
    factors = factorize(small * p * q)
    _assert_factorization(small * p * q, factors)
    assert factors[p] == 1 + (p == q) and factors[q] == 1 + (p == q)


def test_factorize_prime_powers():
    assert factorize(1) == {}
    assert factorize(2**10) == {2: 10}
    assert factorize(3**5 * 7**2) == {3: 5, 7: 2}
    assert factorize(10**6) == {2: 6, 5: 6}
    # powers of primes above the trial-division bound reach rho
    assert factorize(211**2) == {211: 2}
    assert factorize(211**2 * 10007**3) == {211: 2, 10007: 3}


def test_euler_phi_small():
    def naive_phi(n: int) -> int:
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(1, 200):
        assert euler_phi(n) == naive_phi(n), n
