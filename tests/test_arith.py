"""Primality, Kronecker symbols, and factorization against brute force."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrigid import arith
from volrigid.arith import euler_phi, factorize, is_prime, kronecker_symbol, prime_powers


def eager_factorize(n: int) -> dict[int, int]:
    """The factorization of n >= 1 taken whole before anything is read:
    trial division by the primes up to arith._TRIAL_BOUND, then the
    primality test and rho on a stack of cofactors.  The oracle for the
    lazy stream arith.prime_powers."""
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    step = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f <= arith._TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += step[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            factors[n] = factors.get(n, 0) + 1
            continue
        if math.isqrt(n) ** 2 == n:
            stack += [math.isqrt(n)] * 2
            continue
        d = arith._pollard_rho(n)
        stack += [d, n // d]
    return factors


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


_MID_PRIMES = st.integers(10**4, 10**9).map(_next_prime)


def _lazy_factorization_inputs():
    """Integers up to 10**30 whose composite parts rho splits quickly:
    products of up to three integers below 10**10, prime powers, products
    of powers of two primes above 10**4 with a small cofactor, and
    squares of primes up to 10**15."""
    small = st.sampled_from((1, 2, 3 * 7, 199, 211, 2**5 * 11**3))
    return st.one_of(
        st.lists(st.integers(1, 10**10), min_size=1, max_size=3).map(math.prod),
        st.tuples(_MID_PRIMES, st.integers(1, 3)).map(lambda pe: pe[0] ** pe[1]),
        st.tuples(_MID_PRIMES, st.integers(1, 2), _MID_PRIMES, st.integers(1, 2), small)
        .map(lambda t: t[0] ** t[1] * t[2] ** t[3] * t[4]),
        st.integers(2, 10**15).map(_next_prime).map(lambda p: p * p),
    ).filter(lambda n: n <= 10**30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=_lazy_factorization_inputs())
def test_prime_powers_match_eager_factorization(n):
    stream = list(prime_powers(n))
    primes = [p for p, _ in stream]
    # each prime once, with its full exponent
    assert len(set(primes)) == len(primes)
    assert dict(stream) == eager_factorize(n) == factorize(n)
    # the primes trial division finds come first, in ascending order
    small = [p for p in primes if p <= arith._TRIAL_BOUND]
    assert primes[: len(small)] == sorted(small)


def test_prime_powers_is_lazy(monkeypatch):
    # 227 * 10007**2 * 1000003: the cofactor of 227 is never split
    # when the consumer stops at 227
    calls = []
    rho = arith._pollard_rho
    monkeypatch.setattr(arith, "_pollard_rho", lambda n: calls.append(n) or rho(n))
    n = 2**3 * 227 * 10007**2 * 1000003
    stream = prime_powers(n)
    assert next(stream) == (2, 3)
    assert calls == []
    assert next(stream) == (227, 1)
    assert len(calls) == 1
    assert dict(stream) == {10007: 2, 1000003: 1}
    with pytest.raises(ValueError):
        next(prime_powers(0))


def test_euler_phi_small():
    def naive_phi(n: int) -> int:
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(1, 200):
        assert euler_phi(n) == naive_phi(n), n
