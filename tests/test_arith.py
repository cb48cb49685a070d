"""Primality and factorization against brute force."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volrigid import arith
from volrigid.arith import factorize, is_prime, prime_powers


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


def strong_probable_prime(n: int, a: int) -> bool:
    """Does odd n > 2 pass the Miller-Rabin round to base a?"""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_psi_12_is_the_first_composite_the_fixed_bases_miss():
    # psi_12 (Sorenson and Webster 2017) fools all twelve fixed bases, so
    # the fixed bases alone decide exactly only below it; the seeded
    # rounds above it must catch it
    psi_12 = 399165290221 * 798330580441
    assert psi_12 == arith._PSI_12 == 318665857834031151167461
    assert all(strong_probable_prime(psi_12, a) for a in arith._MR_WITNESSES)
    assert not strong_probable_prime(psi_12, 41)
    assert not is_prime(psi_12)


# Each threshold psi_k of arith's tier table, written as the product of
# its prime factors (OEIS A014233), with the number of leading bases
# that decide exactly below it
PSI_TIERS = (
    ((23, 89), 1),
    ((829, 1657), 2),
    ((2251, 11251), 3),
    ((151, 751, 28351), 4),
    ((6763, 10627, 29947), 5),
    ((1303, 16927, 157543), 6),
    ((10670053, 32010157), 7),
    ((149491, 747451, 34233211), 9),
    ((399165290221, 798330580441), 12),
)


def test_exact_tiers_are_the_known_composites():
    assert arith._EXACT_TIERS == tuple((math.prod(f), k) for f, k in PSI_TIERS)
    assert arith._EXACT_TIERS[-1][0] == arith._PSI_12
    for factors, _ in PSI_TIERS:
        assert all(naive_is_prime(p) for p in factors)


@pytest.mark.parametrize("factors, k", PSI_TIERS)
def test_each_threshold_fools_its_bases_and_is_refused(factors, k):
    # psi_k is a strong probable prime to the first k bases, so those
    # bases alone cannot decide it; is_prime must take it to the next tier
    psi = math.prod(factors)
    assert all(strong_probable_prime(psi, a) for a in arith._MR_WITNESSES[:k])
    assert not is_prime(psi)


def twelve_base_is_prime(n: int) -> bool:
    """The twelve-base test, exact below psi_12: the oracle for the tiers."""
    if n < 2:
        return False
    for p in arith._MR_WITNESSES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in arith._MR_WITNESSES)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.one_of(
    st.tuples(st.sampled_from([math.prod(f) for f, _ in PSI_TIERS]),
              st.integers(-10**4, 10**4)).map(sum),
    st.integers(1, 24).flatmap(lambda k: st.integers(0, 10**k)),
))
def test_tiered_bases_match_twelve_bases(n):
    assume(n < arith._PSI_12)
    assert is_prime(n) == twelve_base_is_prime(n), n


def test_tiered_bases_match_twelve_bases_on_primes_near_thresholds():
    # random draws are mostly composite: pin the primes around each
    # threshold too, where the tier changes
    for factors, _ in PSI_TIERS[:-1]:
        psi = math.prod(factors)
        for n in range(psi - 2000, psi + 2000):
            assert is_prime(n) == twelve_base_is_prime(n), n


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@pytest.mark.parametrize("p", arith._MR_WITNESSES)
def test_base_screen_matches_the_factorization(p):
    # is_prime first takes one gcd with the product of the twelve bases:
    # it exceeds 1 exactly when a base divides n, and n is then prime
    # exactly when it is that base.  Each n below is built from its
    # factors, which are the oracle: n is prime when they are one prime
    # to the first power.  q is a prime that no base divides, below and
    # above psi_12, where the seeded rounds begin
    built = [{p: 1}, {p: 2}]
    for q in (_next_prime(10**12 + 1), _next_prime(arith._PSI_12 + 1)):
        built += [{p: 1, q: 1}, {p: 2, q: 1}]
    built += [{p: 1, b: 1} for b in arith._MR_WITNESSES if b != p]
    for factors in built:
        n = math.prod(f**e for f, e in factors.items())
        assert is_prime(n) == (list(factors.values()) == [1]), factors
        assert factorize(n) == factors
    for n in (p - 2, p + 2):
        assert is_prime(n) == naive_is_prime(n), n


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


def test_rho_refuses_past_its_step_budget():
    # a product of two 20-digit primes would take about 10**10 steps
    with pytest.raises(ValueError, match=(
        r"^a 39-digit cofactor resisted 2097150 steps of Pollard's rho; "
        r"its budget was 1048576 steps, checked between rounds of doubling length$"
    )):
        factorize(782283434853405216443915680618039931881)
    # two primes near 3e9, the size a gap scan's neighbours below
    # MAX_GAP_VALUE can leave to rho, split well within the budget
    p, q = 2999999929, 3000000019
    assert is_prime(p) and is_prime(q)
    assert factorize(p * q) == {p: 1, q: 1}


def test_prime_powers_is_lazy(monkeypatch):
    # 227 * 10007**2 * 1000003: the cofactor of 227 is never split
    # when the consumer stops at 227
    calls = []
    rho = arith._pollard_rho
    monkeypatch.setattr(
        arith, "_pollard_rho", lambda n, *budget: calls.append(n) or rho(n, *budget)
    )
    n = 2**3 * 227 * 10007**2 * 1000003
    stream = prime_powers(n)
    assert next(stream) == (2, 3)
    assert calls == []
    assert next(stream) == (227, 1)
    assert len(calls) == 1
    assert dict(stream) == {10007: 2, 1000003: 1}
    with pytest.raises(ValueError):
        next(prime_powers(0))

