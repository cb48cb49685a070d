"""Congruences and CRT, progression scans, and witness verification."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrigid import primeseq
from volrigid.arith import factorize, is_prime
from volrigid.primeseq import (
    EmptyProgressionError,
    FAMILY_M004,
    FAMILY_M125,
    GapPrimeSpec,
    build_congruences,
    crt_solve,
    default_avoid_primes,
    gap_prime_sequence,
    progression,
    verify_witness,
)
from volrigid.quadform import (
    IntQuadForm,
    Representation,
    primitive_representations,
    primitive_value_set,
    representations,
)

DATA = Path(__file__).parent / "data"


def test_spec_validation():
    with pytest.raises(ValueError):
        GapPrimeSpec(g=0, family=FAMILY_M004, avoid_primes=(5, 11))
    with pytest.raises(ValueError):
        GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(7, 7))
    with pytest.raises(ValueError):
        GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(7, 11))  # 7 not 5 mod 6
    with pytest.raises(ValueError):
        GapPrimeSpec(g=1, family=FAMILY_M125, avoid_primes=(5, 13))  # not 3 mod 4
    with pytest.raises(ValueError, match="^avoid prime 7 is not inert for the gap form "
                                         "1,1,1: -3 is a square mod 7$"):
        GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 7))
    with pytest.raises(ValueError):
        GapPrimeSpec(g=2, family=FAMILY_M004, avoid_primes=(5, 11))  # need 2g
    GapPrimeSpec(g=1, family=FAMILY_M125, avoid_primes=(3, 11))


@pytest.mark.parametrize("family, res, mod", [
    (FAMILY_M004, 5, 6),
    (FAMILY_M125, 3, 4),
])
def test_spec_admits_an_avoid_prime_exactly_in_its_residue_class(family, res, mod):
    # by quadratic reciprocity the odd primes inert for x^2+xy+y^2 are
    # those 5 mod 6, and for x^2+y^2 those 3 mod 4
    for q in range(3, 10**4, 2):
        if not is_prime(q):
            continue
        partner = next(p for p in default_avoid_primes(family, 2) if p != q)
        try:
            GapPrimeSpec(g=1, family=family, avoid_primes=(partner, q))
        except ValueError as exc:
            assert q % mod != res, (q, exc)
            assert "not inert" in str(exc)
        else:
            assert q % mod == res, q


def test_family_value_factorization_is_its_value_factor_factored():
    for family in primeseq._FAMILIES.values():
        assert factorize(family.value_factor) == family.value_factorization


def test_default_avoid_primes_smallest_admissible():
    assert default_avoid_primes(FAMILY_M004, 1) == (5, 11)
    assert default_avoid_primes(FAMILY_M004, 2) == (5, 11, 17, 23)
    assert default_avoid_primes(FAMILY_M125, 1) == (3, 7)
    assert default_avoid_primes(FAMILY_M125, 2) == (3, 7, 11, 19)


@pytest.mark.parametrize("family, res, mod", [
    (FAMILY_M004, 5, 6),
    (FAMILY_M125, 3, 4),
])
def test_default_avoid_primes_match_an_integer_scan(family, res, mod):
    # oracle: every integer from 2 up, kept when it is in the class and prime
    scan = []
    p = 2
    while len(scan) < 600:
        if p % mod == res and is_prime(p):
            scan.append(p)
        p += 1
    for g in range(1, 301):
        assert default_avoid_primes(family, g) == tuple(scan[:2 * g])


def test_crt_solve_pinned():
    assert crt_solve(((1, 12), (1, 5), (10, 11))) == (241, 660)
    assert crt_solve(((0, 3),)) == (0, 3)
    assert crt_solve(((-1, 5), (13, 7))) == (34, 35)  # residues need not be reduced


def test_crt_solve_brute_scan():
    n0, modulus = crt_solve(((1, 12), (1, 5), (10, 11)))
    brute = [
        n
        for n in range(660)
        if n % 12 == 1 and n % 5 == 1 and n % 11 == 10
    ]
    assert brute == [n0]
    assert modulus == 660


def test_crt_rejects_non_coprime():
    with pytest.raises(ValueError, match="modulus 2 "):
        crt_solve(((2, 4), (1, 2)))
    # the shared factor 2 is between the first and the last modulus
    with pytest.raises(ValueError, match="modulus 4 "):
        crt_solve(((1, 6), (1, 5), (1, 4)))


def test_crt_rejects_modulus_below_two():
    for m in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            crt_solve(((0, 5), (0, m)))


def test_crt_random_systems():
    rng = random.Random(41)
    moduli_pool = [3, 4, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(1000):
        chosen = rng.sample(moduli_pool, rng.randrange(1, 5))
        congruences = tuple((rng.randrange(m), m) for m in chosen)
        n0, modulus = crt_solve(congruences)
        assert 0 <= n0 < modulus
        for r, m in congruences:
            assert n0 % m == r, (congruences, n0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family=st.sampled_from((FAMILY_M004, FAMILY_M125)), g=st.integers(1, 40))
def test_progression_modulus_is_the_solved_modulus(family, g):
    avoid = default_avoid_primes(family, g)
    spec = GapPrimeSpec(g=g, family=family, avoid_primes=avoid)
    assert primeseq.progression_modulus(family, avoid) == progression(spec)[1]
    assert progression(spec)[1] == math.prod(m for _, m in build_congruences(spec))


def test_build_congruences_m004():
    spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
    congruences = build_congruences(spec)
    assert set(congruences) == {(1, 5), (10, 11), (1, 12)}
    assert crt_solve(congruences) == (241, 660)


def test_build_congruences_m125_spec_example():
    # chosen so the smallest witness is m = 10: 9 divisible by 3,
    # 11 divisible by 11, and p = 5 is 1 mod 4
    spec = GapPrimeSpec(g=1, family=FAMILY_M125, avoid_primes=(3, 11))
    n0, modulus = crt_solve(build_congruences(spec))
    assert (n0, modulus) == (5, 132)
    assert (2 * n0 - 1) % 3 == 0
    assert (2 * n0 + 1) % 11 == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_congruence_rule_puts_avoid_primes_on_shifted_values(data):
    # the witness value is p for m004 and 2p for m125; v - i must be a
    # multiple of the i-th avoid prime and v + i of the (g+i)-th
    family, factor, (res, mod), base = data.draw(st.sampled_from((
        (FAMILY_M004, 1, (5, 6), (1, 12)),
        (FAMILY_M125, 2, (3, 4), (1, 4)),
    )))
    g = data.draw(st.integers(1, 5))
    pool = [q for q in range(2, 300) if q % mod == res and is_prime(q)]
    avoid = data.draw(st.lists(st.sampled_from(pool), min_size=2 * g,
                               max_size=2 * g, unique=True))
    spec = GapPrimeSpec(g=g, family=family, avoid_primes=tuple(avoid))
    p, modulus = crt_solve(build_congruences(spec))
    assert progression(spec) == (p, modulus)
    assert modulus == math.prod(avoid) * base[1]
    assert p % base[1] == base[0]
    for i in range(1, g + 1):
        assert (factor * p - i) % avoid[i - 1] == 0
        assert (factor * p + i) % avoid[g + i - 1] == 0


def test_verify_witness_241():
    spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
    witness = verify_witness(241, spec)
    assert witness.verified
    assert witness.representation.pair == (7, 4)
    assert witness.conditions == {
        "unique_representation": True,
        "neighbors_unrepresented": True,
        "excluded_form_missed": True,
    }


def test_verify_witness_13_all_conditions_hold():
    # 12 = (2,2) and 14 have no primitive x^2+12y^2 representation, and
    # 13 is odd so the excluded form 4(a^2+ab+b^2) misses it
    spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
    witness = verify_witness(13, spec)
    assert witness.conditions["neighbors_unrepresented"]
    assert witness.verified


def test_verify_witness_failures_reported_not_raised():
    spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
    # 13 is a hexagonal value next to 12, and 12 = 4*(1^2+1*1+1^2)
    twelve = verify_witness(12, spec)
    assert twelve.conditions["neighbors_unrepresented"] is False
    assert twelve.conditions["excluded_form_missed"] is False
    assert not twelve.verified
    # 49 = (7,0) = (1,2): two representation classes
    fortynine = verify_witness(49, spec)
    assert fortynine.conditions["unique_representation"] is False
    assert not fortynine.verified
    # 50 = 2(3^2+4^2) = 2(5^2+0^2) likewise for the doubled form
    spec125 = GapPrimeSpec(g=1, family=FAMILY_M125, avoid_primes=(3, 11))
    fifty = verify_witness(50, spec125)
    assert fifty.conditions["unique_representation"] is False
    assert not fifty.verified


def test_verify_witness_m125_10():
    spec = GapPrimeSpec(g=1, family=FAMILY_M125, avoid_primes=(3, 11))
    witness = verify_witness(10, spec)
    assert witness.verified
    assert witness.representation.pair == (1, 2)


def representation_verify(value, spec):
    """The Representation-based verification: every query sorted into
    Representation objects.  The oracle for the pair-level _verify."""
    fam = primeseq._FAMILIES[spec.family]
    all_reps = representations(fam.carrier_form, value)
    prim = [r.pair for r in all_reps if r.primitive]
    representation = None
    unique = False
    if prim:
        canonical = min((abs(x), abs(y)) for x, y in prim)
        cls = primeseq._representation_class(canonical, fam.allow_swap)
        unique = all(r.pair in cls for r in all_reps)
        representation = Representation(*canonical)
    neighbours = [value + k for k in range(-spec.g, spec.g + 1) if k and value + k >= 0]
    gap_clear = not any(primitive_representations(fam.gap_form, n) for n in neighbours)
    excluded = not primitive_representations(fam.excluded_form, value)
    return primeseq.GapPrimeWitness(
        value=value,
        representation=representation,
        conditions={
            "unique_representation": unique,
            "neighbors_unrepresented": gap_clear,
            "excluded_form_missed": excluded,
        },
    )


_VERIFY_VALUES = (
    [0, 1, 2, 3, 4, 12, 13, 49, 50, 241]
    + list(range(5, 400, 7))                        # mostly composite
    + [2 * p for p in range(2, 600) if is_prime(p)]  # 2 * prime
    + [4 * 13, 9 * 241, 10**6, 10**9 + 7, 2 * (10**9 + 7)]
)


@pytest.mark.parametrize("family", [FAMILY_M004, FAMILY_M125])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_pair_level_verify_matches_representation_verify(family, g):
    spec = GapPrimeSpec(g=g, family=family, avoid_primes=default_avoid_primes(family, g))
    found = [w.value for w in gap_prime_sequence(spec, 2).witnesses]
    seen = set()
    for value in _VERIFY_VALUES + found:
        got = verify_witness(value, spec)
        assert _same_witness(got, representation_verify(value, spec)), value
        assert got.representation is None or type(got.representation) is Representation
        seen |= set(got.conditions.items())
    # every condition both holds and fails somewhere among the values
    assert len(seen) == 6


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_witness_matches_the_engine_on_and_off_the_progression(data):
    # the neighbours that an inert avoid prime divides are decided by
    # that division, the others by the engine; the oracle asks the engine
    # about every neighbour.  Values f*t for t in the progression have
    # every neighbour on its avoid prime, values a few units off it have
    # some neighbours on theirs and some not, and values up to g have
    # neighbours at or below 0
    family = data.draw(st.sampled_from((FAMILY_M004, FAMILY_M125)))
    fam = primeseq._FAMILIES[family]
    factor, d0 = fam.value_factor, fam.gap_form.discriminant()
    g = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        avoid = default_avoid_primes(family, g)
    else:
        pool = [q for q in range(2, 100) if is_prime(q) and primeseq._inert(d0, q)]
        avoid = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=2 * g,
                                         max_size=2 * g, unique=True)))
    spec = GapPrimeSpec(g=g, family=family, avoid_primes=avoid)
    n0, modulus = progression(spec)
    on = factor * (n0 + modulus * data.draw(st.integers(0, 30)))
    value = data.draw(st.one_of(
        st.just(on),
        st.integers(-g - 1, g + 1).map(lambda delta: max(0, on + delta)),
        st.integers(0, g),
        st.integers(0, 10**12),
    ))
    witness = verify_witness(value, spec)
    assert _same_witness(witness, representation_verify(value, spec))
    if value > 0:
        assert _same_witness(verify_witness(value, spec, factorize(value)), witness)


@pytest.mark.parametrize("family", [FAMILY_M004, FAMILY_M125])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_neighbours_on_their_avoid_primes_need_no_engine_query(monkeypatch, family, g):
    factor = primeseq._FAMILIES[family].value_factor
    spec = GapPrimeSpec(g=g, family=family, avoid_primes=default_avoid_primes(family, g))
    n0, modulus = progression(spec)
    queried = []
    real = primeseq._primitively_represented
    monkeypatch.setattr(primeseq, "_primitively_represented",
                        lambda form, n: queried.append(n) or real(form, n))
    for t in range(n0, n0 + 20 * modulus, modulus):
        assert verify_witness(factor * t, spec).conditions["neighbors_unrepresented"]
    assert queried == []
    # one unit off the progression every neighbour misses its avoid
    # prime (each exceeds 2), so the engine decides the first of them
    off = factor * n0 + 1
    verify_witness(off, spec)
    assert queried[0] == off - g


def test_gap_prime_sequence_m004_g1():
    spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
    search = gap_prime_sequence(spec, 3, cap=10**4)
    assert [w.value for w in search.witnesses] == [241, 2221, 3541]
    assert not search.truncated
    for w in search.witnesses:
        assert w.value % 12 == 1
        assert _same_witness(w, verify_witness(w.value, spec))


def test_gap_prime_sequence_m125_g1():
    spec = GapPrimeSpec(g=1, family=FAMILY_M125, avoid_primes=(3, 11))
    search = gap_prime_sequence(spec, 4, cap=10**3)
    assert [w.value for w in search.witnesses] == [10, 274, 538, 802]
    for w in search.witnesses:
        assert w.value % 4 == 2
        assert is_prime(w.value // 2)
        assert _same_witness(w, verify_witness(w.value, spec))


def test_gap_prime_sequence_truncation_flag():
    spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
    search = gap_prime_sequence(spec, 50, cap=10**4)
    assert search.truncated
    assert 0 < len(search.witnesses) < 50


def test_gap_prime_sequence_count_zero_verifies_nothing(monkeypatch):
    calls = []
    real = primeseq.verify_witness
    monkeypatch.setattr(
        primeseq, "verify_witness", lambda v, *rest: calls.append(v) or real(v, *rest)
    )
    spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
    search = gap_prime_sequence(spec, 0, cap=10**7)
    assert search.witnesses == () and not search.truncated
    assert calls == []


@pytest.mark.parametrize("family, g, count", [
    (FAMILY_M004, 1, 5),
    (FAMILY_M125, 1, 5),
    (FAMILY_M004, 2, 2),
    (FAMILY_M125, 3, 1),
])
def test_gap_prime_sequence_verifies_each_prime_once_from_its_factorization(
    monkeypatch, family, g, count
):
    # one verify_witness call per prime of the progression up to the
    # last witness, each given f's primes and {p: 1} by the scan
    calls = []
    real = primeseq.verify_witness

    def spy(value, spec, factors=None):
        calls.append((value, factors))
        return real(value, spec, factors)

    monkeypatch.setattr(primeseq, "verify_witness", spy)
    factor = primeseq._FAMILIES[family].value_factor
    spec = GapPrimeSpec(g=g, family=family, avoid_primes=default_avoid_primes(family, g))
    search = gap_prime_sequence(spec, count)
    assert len(search.witnesses) == count
    n0, modulus = search.progression
    last = search.witnesses[-1].value // factor
    primes = [p for p in range(n0, last + 1, modulus) if is_prime(p)]
    assert calls == [(factor * p, factorize(factor * p)) for p in primes]


def test_gap_prime_sequence_stops_at_the_last_witness(monkeypatch):
    # 241 is the first term of the progression and the first witness:
    # no later term may be tested for primality
    spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
    tested = []
    monkeypatch.setattr(primeseq, "is_prime", lambda n: tested.append(n) or is_prime(n))
    search = gap_prime_sequence(spec, 1, cap=10**6)
    assert [w.value for w in search.witnesses] == [241]
    assert tested == [241]


def test_gap_prime_sequence_never_factors(monkeypatch):
    # the scan's primality test decides each candidate's factorization,
    # so no value is factored again, however deep the search
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(primeseq, "factorize", refuse)
    for family, g, count, cap in ((FAMILY_M004, 1, 3, 10**4),
                                  (FAMILY_M125, 1, 4, 10**3),
                                  (FAMILY_M004, 6, 1, 10**40),
                                  (FAMILY_M125, 6, 1, 10**40)):
        spec = GapPrimeSpec(g=g, family=family,
                            avoid_primes=default_avoid_primes(family, g))
        assert len(gap_prime_sequence(spec, count, cap=cap).witnesses) == count
    # the public entry still factors the value, so the patch is live
    with pytest.raises(AssertionError, match="factorize"):
        verify_witness(241, spec)


def _same_witness(a, b):
    # conditions is compare=False, so == alone would not see it
    return a == b and a.conditions == b.conditions


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_search_matches_verify_witness_over_the_progression(data):
    # oracle: every prime p of the progression, in order, verified from
    # scratch by verify_witness; the search must report the first count
    # verified ones, witness for witness, and flag a shortfall
    family, factor, (res, mod) = data.draw(st.sampled_from((
        (FAMILY_M004, 1, (5, 6)),
        (FAMILY_M125, 2, (3, 4)),
    )))
    g = data.draw(st.integers(1, 2))
    pool = [q for q in range(2, 300) if q % mod == res and is_prime(q)]
    avoid = data.draw(st.lists(st.sampled_from(pool), min_size=2 * g,
                               max_size=2 * g, unique=True))
    count = data.draw(st.integers(0, 3))
    spec = GapPrimeSpec(g=g, family=family, avoid_primes=tuple(avoid))
    try:
        n0, modulus = crt_solve(build_congruences(spec))
        search = gap_prime_sequence(spec, count, cap=factor * (n0 + 60 * modulus))
    except EmptyProgressionError:
        # an avoid prime dividing its own shift: no term is prime
        assert math.gcd(n0, modulus) > 1
        return
    expected = [
        w for w in (verify_witness(factor * p, spec)
                    for p in range(n0, n0 + 61 * modulus, modulus) if is_prime(p))
        if w.verified
    ][:count]
    assert len(search.witnesses) == len(expected)
    assert all(map(_same_witness, search.witnesses, expected))
    assert search.truncated == (len(expected) < count)
    assert search.progression == crt_solve(build_congruences(spec))
    for w in search.witnesses:
        assert w.value % factor == 0 and w.value // factor % modulus == n0


def test_golden_g2_witness_reverifies():
    golden = json.loads((DATA / "m004_gap2_witness.json").read_text())
    spec = GapPrimeSpec(
        g=golden["g"],
        family=golden["family"],
        avoid_primes=tuple(golden["avoid_primes"]),
    )
    n0, modulus = crt_solve(build_congruences(spec))
    assert (n0, modulus) == (golden["residue"], golden["modulus"])
    witness = verify_witness(golden["value"], spec)
    assert witness.verified
    assert list(witness.representation.pair) == golden["representation"]


def _hex_primitive(n: int) -> bool:
    """Class-number-one criterion: x^2+xy+y^2 = n has a primitive
    solution exactly when n has no prime factor 2 mod 3 and 9 does not
    divide n."""
    return n % 9 != 0 and all(p % 3 != 2 for p in factorize(n))


def test_hex_primitive_criterion_matches_value_set():
    values = set(primitive_value_set(IntQuadForm(1, 1, 1), 2000).values)
    assert {n for n in range(1, 2001) if _hex_primitive(n)} == values


def test_golden_g4_g5_witnesses():
    golden = json.loads((DATA / "m004_gap4_witness.json").read_text())
    assert golden["family"] == FAMILY_M004
    for entry in golden["searches"]:
        g, values = entry["g"], [w["value"] for w in entry["witnesses"]]
        spec = GapPrimeSpec(g=g, family=FAMILY_M004,
                            avoid_primes=tuple(entry["avoid_primes"]))
        assert spec.avoid_primes == default_avoid_primes(FAMILY_M004, g)
        n0, modulus = crt_solve(build_congruences(spec))
        assert (n0, modulus) == (entry["residue"], entry["modulus"])
        # the search finds exactly these, first, below the recorded cap
        search = gap_prime_sequence(spec, len(values), cap=entry["cap"])
        assert not search.truncated
        assert [w.value for w in search.witnesses] == values
        assert [list(w.representation.pair) for w in search.witnesses] == [
            w["representation"] for w in entry["witnesses"]
        ]
        # and each value passes checks that do not touch quadform
        for w in entry["witnesses"]:
            p, (x, y) = w["value"], w["representation"]
            assert factorize(p) == {p: 1} and p % 12 == 1
            assert (p - n0) % modulus == 0 and p <= entry["cap"]
            assert x * x + 12 * y * y == p and math.gcd(x, y) == 1
            for k in range(1, g + 1):
                assert not _hex_primitive(p - k), (p, -k)
                assert not _hex_primitive(p + k), (p, k)
            assert p % 4 != 0  # 4(x^2+xy+y^2) misses p


def test_golden_m125_g4_g5_witnesses():
    golden = json.loads((DATA / "m125_gap4_witness.json").read_text())
    assert golden["family"] == FAMILY_M125
    for entry in golden["searches"]:
        g, values = entry["g"], [w["value"] for w in entry["witnesses"]]
        avoid = tuple(entry["avoid_primes"])
        spec = GapPrimeSpec(g=g, family=FAMILY_M125, avoid_primes=avoid)
        assert avoid == default_avoid_primes(FAMILY_M125, g)
        n0, modulus = crt_solve(build_congruences(spec))
        assert (n0, modulus) == (entry["residue"], entry["modulus"])
        search = gap_prime_sequence(spec, len(values), cap=entry["cap"])
        assert not search.truncated
        assert [w.value for w in search.witnesses] == values
        assert [list(w.representation.pair) for w in search.witnesses] == [
            w["representation"] for w in entry["witnesses"]
        ]
        # checks that do not touch quadform
        for w in entry["witnesses"]:
            v, (x, y) = w["value"], w["representation"]
            p = v // 2
            assert v == 2 * p and v <= entry["cap"]
            assert factorize(p) == {p: 1} and (p - n0) % modulus == 0
            # p = 1 mod 4 is prime, so by Fermat x^2 + y^2 = p has one
            # solution up to order and signs, and 2x^2 + 2y^2 = v too
            assert p % 4 == 1 and x * x + y * y == p and math.gcd(x, y) == 1
            assert 2 * x * x + 2 * y * y == v
            # an odd prime 3 mod 4 dividing n rules out coprime x, y
            # with x^2 + y^2 = n
            for k in range(1, g + 1):
                assert avoid[k - 1] % 4 == 3 and (v - k) % avoid[k - 1] == 0
                assert avoid[g + k - 1] % 4 == 3 and (v + k) % avoid[g + k - 1] == 0
            assert v % 4 == 2  # x^2 + 4y^2 is 0 or 1 mod 4, so misses v



_DEEP = json.loads((DATA / "gap6_9_witnesses.json").read_text())["searches"]


@pytest.mark.parametrize("entry", _DEEP, ids=lambda e: f"{e['family']}-g{e['g']}")
def test_golden_g6_to_g9_witnesses(entry):
    # recorded from the search that factored every neighbour in full;
    # the lazy engine must find the same first witness
    family, g = entry["family"], entry["g"]
    avoid = tuple(entry["avoid_primes"])
    spec = GapPrimeSpec(g=g, family=family, avoid_primes=avoid)
    assert avoid == default_avoid_primes(family, g)
    n0, modulus = crt_solve(build_congruences(spec))
    assert (n0, modulus) == (entry["residue"], entry["modulus"])
    search = gap_prime_sequence(spec, 1, cap=entry["cap"])
    assert not search.truncated
    [w] = entry["witnesses"]
    assert [(s.value, list(s.representation.pair)) for s in search.witnesses] == [
        (w["value"], w["representation"])
    ]
    # the search verified from the scan's factorization; the public entry
    # factors the value itself and must agree on every condition
    assert _same_witness(search.witnesses[0], verify_witness(w["value"], spec))
    # checks that do not touch quadform: v = f*p with p a prime of the
    # progression, carried by Q1 on a coprime pair, each shift divisible
    # by its avoid prime, which is inert for Q0 (2 mod 3 for
    # x^2+xy+y^2, 3 mod 4 for x^2+y^2), and v is outside the values of Q2
    v, (x, y) = w["value"], w["representation"]
    f = 1 if family == FAMILY_M004 else 2
    p = v // f
    assert v == f * p <= entry["cap"] and is_prime(p) and (p - n0) % modulus == 0
    assert math.gcd(x, y) == 1
    if family == FAMILY_M004:
        assert p % 12 == 1 and x * x + 12 * y * y == v
        assert all(q % 3 == 2 for q in avoid)
        assert v % 4 != 0  # 4(x^2+xy+y^2) misses v
    else:
        assert p % 4 == 1 and 2 * x * x + 2 * y * y == v
        assert all(q % 4 == 3 for q in avoid)
        assert v % 4 == 2  # x^2 + 4y^2 is 0 or 1 mod 4, so misses v
    for k in range(1, g + 1):
        assert (v - k) % avoid[k - 1] == 0 and (v + k) % avoid[g + k - 1] == 0


def test_gap_prime_sequence_cap_bounds_value_not_prime():
    spec = GapPrimeSpec(g=1, family=FAMILY_M125, avoid_primes=(3, 7))
    # the first candidate prime is 17, whose witness value is 34
    capped = gap_prime_sequence(spec, 1, cap=20)
    assert capped.witnesses == () and capped.truncated
    at_cap = gap_prime_sequence(spec, 1, cap=34)
    assert [w.value for w in at_cap.witnesses] == [34]
    assert not at_cap.truncated


def test_gap_prime_sequence_refuses_negative_count_and_cap():
    spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
    for count, cap in ((-1, 10**6), (1, -1)):
        with pytest.raises(ValueError, match="count and cap must be nonnegative"):
            gap_prime_sequence(spec, count, cap=cap)


def test_gap_prime_sequence_refuses_prime_free_progression():
    # 3 divides its own shift (2p - 3), so every candidate p is a
    # multiple of 3
    spec = GapPrimeSpec(g=3, family=FAMILY_M125,
                        avoid_primes=(7, 11, 3, 19, 23, 31))
    for count in (1, 0):
        with pytest.raises(EmptyProgressionError, match="holds no prime"):
            gap_prime_sequence(spec, count, cap=10**15)
