"""Representation enumeration and gap analysis against brute-force oracles."""

from __future__ import annotations

import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_arith import eager_factorize
from volrigid import arith, quadform
from volrigid.arith import factorize, prime_powers
from volrigid.quadform import (
    MAX_GAP_RHO_STEPS,
    MAX_GAP_STEPS,
    MAX_GAP_VALUE,
    MAX_SQUARE_ROOTS,
    IntQuadForm,
    _all_pairs,
    _primitive_pairs,
    _sqrt_count,
    _sqrt_mod_prime,
    _sqrt_mod_prime_power,
    primitive_representations,
    primitive_value_set,
    representations,
    two_sided_gap,
)

X2_12Y2 = IntQuadForm(1, 0, 12)
HEX = IntQuadForm(1, 1, 1)
SUM_SQ = IntQuadForm(1, 0, 1)


def brute_representations(form: IntQuadForm, m: int) -> set[tuple[int, int]]:
    bound = math.isqrt(4 * form.a * m // -form.discriminant()) + form.a * m + 2
    hits = set()
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if form.evaluate(x, y) == m:
                hits.add((x, y))
    return hits


def walk_representations(form: IntQuadForm, m: int) -> set[tuple[int, int]]:
    """The O(sqrt m) ellipse walk: for each y with |D|*y**2 <= 4*a*m,
    solve a*x**2 + b*y*x + (c*y**2 - m) = 0 for integer x."""
    a, b = form.a, form.b
    d = form.discriminant()
    hits = set()
    ymax = math.isqrt(4 * a * m // -d) + 1
    for y in range(-ymax, ymax + 1):
        disc = d * y * y + 4 * a * m
        if disc < 0:
            continue
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        for root in (-b * y - s, -b * y + s):
            if root % (2 * a) == 0:
                hits.add((root // (2 * a), y))
    return hits


def walk_two_sided_gap(form: IntQuadForm, q0: int, limit: int) -> int:
    """The whole primitive value set up to limit, then the nearest other
    value: the full-ellipse gap scan, O(limit / sqrt|D|) points.  The
    value set it reads is itself checked against a brute-force box."""
    if limit <= q0:
        raise ValueError("scan limit must exceed q0")
    vals = primitive_value_set(form, limit).values
    if q0 not in vals:
        raise ValueError(f"{q0} has no primitive representation by {form}")
    gap = limit - q0
    for v in vals:
        if v != q0:
            gap = min(gap, abs(v - q0))
    return gap


def brute_primitive_values(form: IntQuadForm, lo: int, hi: int) -> set[int]:
    """Values in lo..hi on coprime pairs, from a box that holds Q <= hi."""
    d = -form.discriminant()
    ybound = math.isqrt(4 * form.a * max(hi, 0) // d) + 1
    xbound = math.isqrt(4 * form.c * max(hi, 0) // d) + 1
    return {
        v
        for x in range(-xbound, xbound + 1)
        for y in range(-ybound, ybound + 1)
        if math.gcd(x, y) == 1 and lo <= (v := form.evaluate(x, y)) <= hi
    }


# (1,1,1) and (1,0,1) have proper automorphism groups of order 6 and 4;
# (4,4,4) and (2,0,2) are their imprimitive multiples.
SPECIAL_FORMS = (HEX, SUM_SQ, IntQuadForm(4, 4, 4), IntQuadForm(2, 0, 2), X2_12Y2)


@st.composite
def forms(draw, max_coeff: int = 8):
    """Positive definite forms: special ones, random reduced or not, and
    random ones moved away from reduction by x -> x + t*y and swaps."""
    if draw(st.booleans()):
        form = draw(st.sampled_from(SPECIAL_FORMS))
        a, b, c = form.a, form.b, form.c
    else:
        a = draw(st.integers(1, max_coeff))
        c = draw(st.integers(1, max_coeff))
        b = draw(st.integers(-max_coeff, max_coeff))
        assume(b * b < 4 * a * c)
    for t in draw(st.lists(st.integers(-2, 2), max_size=3)):
        a, b, c = c, -b, a
        a, b, c = a, b + 2 * a * t, a * t * t + b * t + c
    return IntQuadForm(a, b, c)


def structured_values(form: IntQuadForm, limit: int):
    """Values up to limit built from high powers of 2, of 3 and of the
    primes dividing the discriminant, times a small cofactor."""
    d_primes = sorted(factorize(-form.discriminant()))
    primes = st.sampled_from(sorted({2, 3, *d_primes}))
    parts = st.lists(st.tuples(primes, st.integers(1, 16)), max_size=3)
    cofactor = st.integers(1, 60)
    def build(spec):
        parts, k = spec
        m = k
        for p, e in parts:
            m *= p**e
        return m
    return st.one_of(
        st.integers(0, limit),
        st.tuples(parts, cofactor).map(build).filter(lambda m: m <= limit),
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_matches_brute_force(data):
    form = data.draw(forms(max_coeff=6))
    m = data.draw(st.integers(0, 24))
    brute = brute_representations(form, m)
    assert walk_representations(form, m) == brute
    reps = representations(form, m)
    assert {r.pair for r in reps} == brute
    assert [r.pair for r in primitive_representations(form, m)] == [
        r.pair for r in reps if r.primitive
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_matches_walk_up_to_1e5(data):
    form = data.draw(forms(max_coeff=30))
    m = data.draw(structured_values(form, 10**5))
    reps = representations(form, m)
    assert [r.pair for r in reps] == sorted(
        walk_representations(form, m), key=lambda xy: (xy[1], xy[0])
    )
    assert all(r.primitive == (math.gcd(r.x, r.y) == 1) for r in reps)
    assert [r.pair for r in primitive_representations(form, m)] == [
        r.pair for r in reps if r.primitive
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_all_pairs_are_the_representations_unordered(data):
    # the pair level that witness verification reads: the same solutions
    # as the ordered query, each once, and for small m the walk's
    form = data.draw(forms(max_coeff=30))
    m = data.draw(st.one_of(structured_values(form, 10**5), st.integers(0, 10**12)))
    pairs = _all_pairs(form, m, prime_powers(m))
    assert len(set(pairs)) == len(pairs)
    assert sorted(pairs, key=lambda xy: (xy[1], xy[0])) == [
        r.pair for r in representations(form, m)
    ]
    if m <= 10**5:
        assert set(pairs) == walk_representations(form, m)


_SMALL_PRIMES = [p for p in range(2, 60) if arith.is_prime(p)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_all_pairs_same_on_every_factorization_shape(data):
    # representations hands _all_pairs the lazy stream, verify_witness a
    # dict view, and a tuple is read the same way: squarefree m (every
    # search witness value, one primitive query) and m with square
    # divisors give the walk's solutions, each once, from each shape
    form = data.draw(forms(max_coeff=30))
    if data.draw(st.booleans()):
        m = math.prod(data.draw(st.lists(st.sampled_from(_SMALL_PRIMES), unique=True,
                                         max_size=4)))
    else:
        m = data.draw(st.integers(2, 60)) ** 2 * data.draw(st.integers(1, 60))
    assume(m <= 10**5)
    fac = factorize(m)
    walk = walk_representations(form, m)
    for shape in (prime_powers(m), fac.items(), tuple(fac.items())):
        pairs = _all_pairs(form, m, shape)
        assert len(set(pairs)) == len(pairs) and set(pairs) == walk, (str(form), m)


def test_all_pairs_makes_one_primitive_query_per_square_divisor(monkeypatch):
    queried = []
    primitive_pairs = quadform._primitive_pairs
    monkeypatch.setattr(quadform, "_primitive_pairs", lambda form, m, fac: (
        queried.append(m) or primitive_pairs(form, m, fac)))
    p, q = 13, 37  # 13 = 1 + 12 and 37 = 25 + 12
    # a witness value: a prime, or a squarefree m, is one query
    for m in (p, p * q):
        queried.clear()
        assert _all_pairs(X2_12Y2, m, factorize(m).items())
        assert queried == [m]
    # m = p**2 q: the primitive solutions of m, then p times those of q
    queried.clear()
    assert set(_all_pairs(X2_12Y2, p * p * q, factorize(p * p * q).items())) == (
        walk_representations(X2_12Y2, p * p * q))
    assert queried == [p * p * q, q]


def _divisor_character_sum(m: int, chi) -> int:
    out = 1
    for p, e in factorize(m).items():
        out *= sum(chi(p) ** k for k in range(e + 1))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(0, 17).flatmap(lambda k: st.integers(10**k, 10 ** (k + 1))))
def test_engine_counts_match_divisor_sums_at_large_m(m):
    # r(m) = 6 * sum_{d|m} (d|3) for x^2+xy+y^2 and
    # r(m) = 4 * sum_{d|m} chi_4(d) for x^2+y^2: both have class number 1
    chi3 = lambda p: 0 if p == 3 else (1 if p % 3 == 1 else -1)  # noqa: E731
    chi4 = lambda p: 0 if p == 2 else (1 if p % 4 == 1 else -1)  # noqa: E731
    for form, w, chi in ((HEX, 6, chi3), (SUM_SQ, 4, chi4)):
        reps = representations(form, m)
        assert len(reps) == w * _divisor_character_sum(m, chi), (str(form), m)
        assert all(form.evaluate(*r.pair) == m for r in reps)
    fac = factorize(m)
    hex_primitive = m % 9 != 0 and all(p % 3 != 2 for p in fac)
    assert bool(primitive_representations(HEX, m)) == hex_primitive


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_primitive_pairs_same_on_stream_and_eager_factorization(data):
    # the early exit only drops work: the lazy stream and the whole
    # factorization give the same solutions, on primitive forms and on
    # their multiples by 2 and 4
    base = data.draw(forms(max_coeff=30))
    k = data.draw(st.sampled_from((1, 2, 4)))
    form = IntQuadForm(k * base.a, k * base.b, k * base.c)
    m = data.draw(st.one_of(
        structured_values(form, 10**9),
        st.integers(1, 10**18),
        st.tuples(st.integers(1, 10**9), st.sampled_from((1, 2, 4, 8, 16))).map(math.prod),
    ))
    assume(m >= 1)
    lazy = _primitive_pairs(form, m, prime_powers(m))
    eager = _primitive_pairs(form, m, eager_factorize(m).items())
    assert sorted(lazy) == sorted(eager)
    assert all(form.evaluate(x, y) == m and math.gcd(x, y) == 1 for x, y in lazy)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_imprimitivity_exit_matches_walk(data):
    # m shares a prime l with D: the values at which the engine may
    # return [] because every root B makes the form (m, B, C) divisible
    # by l.  Half of them are values Q(x, y) at coprime points, where the
    # exit must not fire; the others are l**j times a cofactor, with j
    # near the power of l in D, where the root counts change.  Forms with
    # content 2, 3 and 4 are drawn too, with m a multiple of it or not
    base = data.draw(forms(max_coeff=30))
    k = data.draw(st.sampled_from((1, 1, 2, 3, 4)))
    form = IntQuadForm(k * base.a, k * base.b, k * base.c)
    d_primes = factorize(-base.discriminant())
    ell = data.draw(st.sampled_from(sorted(d_primes)))
    if data.draw(st.booleans()):
        x, y = data.draw(st.tuples(st.integers(-300, 300), st.integers(-300, 300)))
        assume(math.gcd(x, y) == 1)
        m = form.evaluate(x, y)
        assume(m % ell == 0)
    else:
        j = data.draw(st.integers(max(1, d_primes[ell] - 3), d_primes[ell] + 3))
        m = data.draw(st.sampled_from((1, k))) * ell**j * data.draw(st.integers(1, 200))
    assume(m <= 10**8)
    pairs = _primitive_pairs(form, m, prime_powers(m))
    walk = {(x, y) for x, y in walk_representations(form, m) if math.gcd(x, y) == 1}
    assert len(pairs) == len(walk) and set(pairs) == walk


def reduced_primitive_forms(max_disc: int):
    """Every reduced primitive form with |D| < max_disc, with |D|."""
    for dd in range(3, max_disc):
        for a in range(1, math.isqrt(dd // 3) + 1):
            for b in range(-a + 1, a + 1):
                c, rest = divmod(b * b + dd, 4 * a)
                if rest or c < a or (a == c and b < 0) or math.gcd(a, b, c) > 1:
                    continue
                yield IntQuadForm(a, b, c), dd


def test_imprimitivity_exit_matches_walk_on_every_small_form():
    # every reduced primitive form with |D| < 400, at every m < 300 that
    # shares a prime with D.  An exit taken at twice as many roots mod
    # l**(e + 1), not l times as many, answers 90 of these queries with
    # [] wrongly, among them x^2 + 18y^2 = 99 = 9^2 + 18
    for form, dd in reduced_primitive_forms(400):
        for m in range(1, 300):
            if math.gcd(m, dd) > 1:
                walk = {(x, y) for x, y in walk_representations(form, m)
                        if math.gcd(x, y) == 1}
                assert set(_primitive_pairs(form, m, prime_powers(m))) == walk


def test_mirrored_roots_match_walk_on_every_small_form():
    # one reduction serves the roots B and 2m - B; every reduced
    # primitive form with |D| < 200 at every m < 200.  The mirror of a
    # form reduced to (g0, g1, g2) with g1 = g0 or g0 = g2, as for
    # (1,1,1), (2,1,2) and (2,2,3), is not reduced, and its root is
    # reduced on its own
    for form, _ in reduced_primitive_forms(200):
        for m in range(1, 200):
            pairs = _primitive_pairs(form, m, prime_powers(m))
            walk = {(x, y) for x, y in walk_representations(form, m) if math.gcd(x, y) == 1}
            assert len(pairs) == len(walk) and set(pairs) == walk, (str(form), m)


def walk_primitive_pairs_below(form: IntQuadForm, limit: int) -> dict[int, set]:
    """Every coprime (x, y) with Q(x, y) < limit, by value: one walk over
    the rows of the ellipse Q < limit, as in primitive_value_set."""
    a, b, c = form
    d = form.discriminant()
    pairs: dict[int, set] = {}
    ymax = math.isqrt(4 * a * limit // -d) + 1
    for y in range(-ymax, ymax + 1):
        disc = d * y * y + 4 * a * limit
        if disc < 0:
            continue
        s = math.isqrt(disc)
        for x in range(-((b * y + s) // (2 * a)) - 1, (-b * y + s) // (2 * a) + 2):
            v = form.evaluate(x, y)
            if v < limit and math.gcd(x, y) == 1:
                pairs.setdefault(v, set()).add((x, y))
    return pairs


def test_residue_exit_matches_walk_on_every_small_form():
    # every reduced primitive form with |D| < 400 and its multiples by
    # 2, 3 and 4, at every m < 300: the residue tables are built from the
    # form with its content divided out, and m is looked up after the
    # content is divided out of it too
    for form, _ in reduced_primitive_forms(400):
        for k in (1, 2, 3, 4):
            multiple = IntQuadForm(k * form.a, k * form.b, k * form.c)
            walk = walk_primitive_pairs_below(multiple, 300)
            for m in range(1, 300):
                pairs = _primitive_pairs(multiple, m, prime_powers(m))
                assert len(pairs) == len(walk.get(m, ())), (str(multiple), m)
                assert set(pairs) == walk.get(m, set()), (str(multiple), m)


def _unreached_classes(form: IntQuadForm) -> list[tuple[int, int]]:
    """(q, r) for each r mod q that Q / content takes at no pair mod q
    that p does not divide both of, q the largest power of p <= 32, for
    the primes p < 32 of 2D."""
    content = math.gcd(*form)
    a, b, c = (coeff // content for coeff in form)
    d = form.discriminant() // content**2
    classes = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if 2 * d % p == 0:
            q = p ** int(math.log(32, p) + 1e-9)
            reached = {(a * x * x + b * x * y + c * y * y) % q
                       for x in range(q) for y in range(q) if x % p or y % p}
            classes += [(q, r) for r in range(q) if r not in reached]
    return classes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_residue_exit_reads_no_factorization(data):
    # n up to 10^40 in a class mod a power of a prime of 2D that no
    # coprime pair reaches (mod 2^5, 3^3, 5^2 or p for larger p): the
    # engine answers [] before it reads the factorization stream, so
    # also past the point where rho would refuse n
    base = data.draw(forms(max_coeff=30))
    k = data.draw(st.sampled_from((1, 2, 3, 4)))
    form = IntQuadForm(k * base.a, k * base.b, k * base.c)
    classes = _unreached_classes(form)
    assume(classes)
    q, r = data.draw(st.sampled_from(classes))
    n = math.gcd(*form) * (r + q * data.draw(st.integers(0, 10**40 // q)))
    assume(n >= 1)

    def unread(m, *budget):
        raise AssertionError(f"the query read the factorization of {m}")
        yield

    with mock.patch.object(quadform, "prime_powers", unread):
        assert primitive_representations(form, n) == []
        assert not quadform._primitively_represented(form, n, [0])


def test_excluded_form_query_ends_at_the_prime_two():
    # x^2 + 4y^2 at 2p, p odd: 4m = 8p and D = -16 has 2 roots mod 8 and
    # 4 mod 16, so every B makes (2p, B, (B^2 + 16)/8p) even.  The query
    # is [] from the prime 2 alone, and the stream is not read past it
    p = 10**30 + 57
    assert arith.is_prime(p)

    def stream():
        yield 2, 1
        raise AssertionError("the query read past the prime 2")

    assert _primitive_pairs(IntQuadForm(1, 0, 4), 2 * p, stream()) == []
    assert primitive_representations(IntQuadForm(1, 0, 4), 2 * p) == []


def _recorded_stream(monkeypatch):
    """Patch the engine's factorization stream and rho to record what
    one query reads: the prime powers taken and the rho calls made."""
    taken, rho_calls = [], []
    stream, rho = quadform.prime_powers, arith._pollard_rho

    def recording(n, *budget):
        for pe in stream(n, *budget):
            taken.append(pe)
            yield pe

    monkeypatch.setattr(quadform, "prime_powers", recording)
    monkeypatch.setattr(
        arith, "_pollard_rho", lambda n, *budget: rho_calls.append(n) or rho(n, *budget)
    )
    return taken, rho_calls


def _hex_obstruction(p: int, e: int) -> bool:
    """D = -3 has no square root modulo p**e (times 4 for p = 2)."""
    return p % 3 == 2 or (p == 3 and e >= 2)


def _hex_residue_excluded(n: int) -> bool:
    """x^2 + xy + y^2 at a coprime pair is odd and 0 or 1 mod 3, and a
    multiple of 3 among its values is 3 mod 9."""
    return n % 2 == 0 or n % 3 == 2 or n % 9 in (0, 6)


@pytest.mark.parametrize("v, g, rho_budget", [
    # first default m004 witnesses at g = 9 and g = 12; the 24th avoid
    # prime of g = 12 is 227, past the trial-division bound, so rho finds it
    (690784655558503585697241258125581, 9, 0),
    (105198585777923501373769305855152416405923653461, 12, 1),
])
def test_neighbour_queries_stop_at_first_prime_without_root(monkeypatch, v, g, rho_budget):
    assert 227 > arith._TRIAL_BOUND
    taken, rho_calls = _recorded_stream(monkeypatch)
    excluded = 0
    for n in [v + k for k in range(-g, g + 1) if k]:
        taken.clear()
        assert primitive_representations(HEX, n) == [], n
        if _hex_residue_excluded(n):
            # decided by the residue tables mod 2 and 9 alone
            assert taken == [], n
            excluded += 1
            continue
        # the stream stops at its first obstruction, well before n
        *before, last = taken
        assert _hex_obstruction(*last) and not any(_hex_obstruction(*pe) for pe in before)
        assert math.prod(p**e for p, e in taken) < n
    assert excluded == (15, 18)[rho_budget]
    assert len(rho_calls) == rho_budget
    if rho_budget:
        assert (v + 12) % 227 == 0 and taken == [(227, 1)]


def test_engine_pinned_large_value():
    # the first default m004 g = 4 witness; the walk would take ~1e6 rows
    reps = representations(X2_12Y2, 2281690066141)
    assert [r.pair for r in reps] == [
        (-1150007, -282721), (1150007, -282721),
        (-1150007, 282721), (1150007, 282721),
    ]
    assert all(r.primitive for r in reps)


def test_form_validation():
    with pytest.raises(ValueError):
        IntQuadForm(0, 0, 1)
    with pytest.raises(ValueError):
        IntQuadForm(1, 2, 1)  # discriminant 0
    with pytest.raises(ValueError):
        IntQuadForm(1, 3, 1)  # indefinite
    assert IntQuadForm(2, 1, 3).discriminant() == -23


def test_representations_match_brute_force_small():
    rng = random.Random(3)
    forms = [X2_12Y2, HEX, SUM_SQ, IntQuadForm(2, 0, 2), IntQuadForm(4, 4, 4)]
    for _ in range(60):
        form = rng.choice(forms)
        m = rng.randrange(1, 120)
        got = {r.pair for r in representations(form, m)}
        assert got == brute_representations(form, m), (str(form), m)


def test_representations_ordering_and_flags():
    reps = representations(X2_12Y2, 13)
    assert [r.pair for r in reps] == [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    assert all(r.primitive for r in reps)
    reps4 = representations(X2_12Y2, 4)
    assert [r.pair for r in reps4] == [(-2, 0), (2, 0)]
    assert not any(r.primitive for r in reps4)


def test_primitive_representations_filter():
    assert primitive_representations(X2_12Y2, 4) == []
    prim = primitive_representations(SUM_SQ, 25)
    assert {r.pair for r in prim} == {(3, 4), (-3, 4), (3, -4), (-3, -4),
                                      (4, 3), (-4, 3), (4, -3), (-4, -3)}


def test_primitive_value_set_pinned():
    vs = primitive_value_set(X2_12Y2, 15)
    assert vs.values == (1, 12, 13)
    hexvals = primitive_value_set(HEX, 30)
    assert hexvals.values == (1, 3, 7, 13, 19, 21)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_primitive_value_set_matches_brute_force(data):
    form = data.draw(
        st.one_of(st.sampled_from((X2_12Y2, HEX, SUM_SQ, IntQuadForm(3, 2, 5))), forms())
    )
    limit = data.draw(st.integers(0, 300))
    assert primitive_value_set(form, limit).values == tuple(
        sorted(brute_primitive_values(form, 1, limit))
    )


def test_two_sided_gap_pinned():
    assert two_sided_gap(HEX, 13, 100) == 6
    assert two_sided_gap(X2_12Y2, 1, 100) == 11
    # nearest primitive neighbor of 241 is 237 = Q(15, 1)
    assert two_sided_gap(X2_12Y2, 241, 10**4) == 4


def test_two_sided_gap_capped_by_limit():
    # 13 is the largest primitive value of x^2+12y^2 up to 20, so the
    # upward side is capped at limit - q0.
    assert two_sided_gap(X2_12Y2, 13, 20) == 1
    assert two_sided_gap(X2_12Y2, 13, 14) == 1


def test_two_sided_gap_rejects_bad_center():
    with pytest.raises(ValueError):
        two_sided_gap(X2_12Y2, 5, 100)  # 5 not primitively represented
    with pytest.raises(ValueError):
        two_sided_gap(X2_12Y2, 50, 50)  # limit must exceed q0


def _gap_or_error(gap_fn, form: IntQuadForm, q0: int, limit: int):
    try:
        return gap_fn(form, q0, limit)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_two_sided_gap_matches_full_scan(data):
    # large-c forms put the next value far away, so the outward scan has
    # to double its radius many times or run into the cap
    form = data.draw(st.one_of(
        forms(),
        st.sampled_from((IntQuadForm(1, 0, 10**4), IntQuadForm(3, 1, 2000))),
    ))
    values = primitive_value_set(form, 3000).values
    if data.draw(st.booleans()):
        q0 = data.draw(st.sampled_from(values[:40]))
    else:
        q0 = data.draw(st.integers(-3, 400))  # mostly non-values, some <= 0
    limit = data.draw(st.one_of(
        st.integers(q0 + 1, q0 + 12), st.integers(q0 + 1, q0 + 2500),
    ))
    assert _gap_or_error(two_sided_gap, form, q0, limit) == _gap_or_error(
        walk_two_sided_gap, form, q0, limit
    )


def test_two_sided_gap_cost_does_not_depend_on_limit():
    # the full scan would visit ~1e15 lattice points here
    assert two_sided_gap(X2_12Y2, 241, 10**15) == 4
    # next to 1, the nearest primitive value of x^2 + 10^4 y^2 is Q(0, 1)
    assert two_sided_gap(IntQuadForm(1, 0, 10**4), 1, 10**15) == 10**4 - 1


def window_primitive_values(form: IntQuadForm, lo: int, hi: int) -> set[int]:
    """Values in lo..hi on coprime pairs, for 1 <= lo <= hi.

    Walks every row y of the ellipse Q <= hi.  With u = 2ax + by,
    4a*Q = u**2 - D*y**2, so the row's points with lo <= Q <= hi have
    |u| between isqrt(4a*(lo - 1) + D*y**2) and isqrt(4a*hi + D*y**2);
    the x of each side are taken with a margin of one and each value is
    checked against lo..hi.
    """
    a, b, c = form.a, form.b, form.c
    d = form.discriminant()
    values: set[int] = set()
    ymax = math.isqrt(4 * a * hi // -d) + 1
    for y in range(-ymax, ymax + 1):
        outer = 4 * a * hi + d * y * y
        if outer < 0:
            continue
        s = math.isqrt(outer)
        t = math.isqrt(max(4 * a * (lo - 1) + d * y * y, 0))
        for ulo, uhi in ((-s, -t), (t, s)):
            for x in range((ulo - b * y) // (2 * a) - 1, (uhi - b * y) // (2 * a) + 2):
                v = a * x * x + b * x * y + c * y * y
                if lo <= v <= hi and math.gcd(x, y) == 1:
                    values.add(v)
    return values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_two_sided_gap_matches_a_window_walk_up_to_1e10(data):
    # q0 = Q(x, y) on a coprime pair, up to 10**10; the gap's window
    # q0 - k..q0 + k is walked row by row, without the engine
    form = data.draw(forms(max_coeff=30))
    size = 10 ** data.draw(st.integers(0, 10))
    bound = max(1, math.isqrt(size // (form.a + abs(form.b) + form.c)))
    x, y = data.draw(st.tuples(st.integers(-bound, bound), st.integers(-bound, bound)))
    assume(math.gcd(x, y) == 1)
    q0 = form.evaluate(x, y)
    assert q0 <= 10**10
    limit = q0 + data.draw(st.one_of(st.integers(1, 40), st.integers(1, 10**6)))
    k = two_sided_gap(form, q0, limit)
    window = window_primitive_values(form, max(1, q0 - k), q0 + k)
    assert q0 in window
    assert not [v for v in window if 0 < abs(v - q0) < k]
    assert k == limit - q0 or any(abs(v - q0) == k for v in window)


def test_gap_scan_refuses_too_many_steps():
    # Q(3*10**8 + 1, 1) = q0; the nearest other values of x^2 + 10^17 y^2
    # are the neighbouring squares plus 10**17, about 6e8 away.  Rho on
    # the neighbours that the residue tables mod 32 and 25 leave open
    # spends the scan's budget before 10**4 steps
    form = IntQuadForm(1, 0, 10**17)
    q0 = 19 * 10**16 + 6 * 10**8 + 1
    assert form.evaluate(3 * 10**8 + 1, 1) == q0
    message = (
        f"form 1,0,{10**17} has no primitive value within 8871 of {q0}; "
        "gap scans are refused past 1048576 steps of Pollard's rho"
    )
    assert MAX_GAP_STEPS == 10**4 and MAX_GAP_RHO_STEPS == 2**20
    with pytest.raises(ValueError) as exc:
        two_sided_gap(form, q0, 10**18)
    assert str(exc.value) == message
    # the sparse form x^2 + 10^12 y^2 has the gap 10**12 - 1 at q0 = 1;
    # a cap the bound reaches first is no refusal
    sparse = IntQuadForm(1, 0, 10**12)
    with pytest.raises(ValueError, match="within 10000 of 1; gap scans are refused"):
        two_sided_gap(sparse, 1, 10**13)
    assert two_sided_gap(sparse, 1, 10**4 + 2) == 10**4 + 1
    # a step is the form's content: 9999 steps of 4 on 4x^2 + 4*10^4 y^2
    assert two_sided_gap(IntQuadForm(4, 0, 4 * 10**4), 4, 10**15) == 4 * (10**4 - 1)


def test_gap_scan_refuses_a_large_q0(monkeypatch):
    # the refusal comes before any query, so q0 need not be represented
    with monkeypatch.context() as patch:
        patch.setattr(quadform, "_primitive_pairs", None)
        with pytest.raises(ValueError) as exc:
            two_sided_gap(X2_12Y2, MAX_GAP_VALUE + 1, 10 * MAX_GAP_VALUE)
    assert str(exc.value) == (
        "gap scans are refused for q0 above 1e+19, where factoring a "
        "neighbour of q0 can take seconds"
    )
    # the first m004 filling past the old row budget: q0 = 10**18 + 12,
    # and 10**18 + 9 = Q(977930203, 60313430)
    assert two_sided_gap(X2_12Y2, 10**18 + 12, 10**19) == 3
    assert X2_12Y2.evaluate(977930203, 60313430) == 10**18 + 9


def test_gap_neighborhood_is_really_empty():
    rng = random.Random(17)
    for _ in range(40):
        form = rng.choice([X2_12Y2, HEX, SUM_SQ])
        limit = 400
        values = primitive_value_set(form, limit).values
        q0 = rng.choice(values[: len(values) // 2 + 1])
        gap = two_sided_gap(form, q0, limit)
        window = set(values) & set(range(q0 - gap + 1, q0 + gap))
        assert window == {q0}, (str(form), q0, gap)
        # maximality: some neighbor at distance exactly `gap` is hit,
        # unless the cap limit - q0 stopped the growth first
        if gap < limit - q0:
            assert (q0 - gap in values) or (q0 + gap in values)


def test_value_set_members_have_primitive_representations():
    for form in (X2_12Y2, SUM_SQ, HEX):
        values = set(primitive_value_set(form, 150).values)
        for m in values:
            assert primitive_representations(form, m), (str(form), m)


def test_inert_prime_factors_rule_out_primitive_representations():
    # 5 and 11 are inert for discriminant -48, so no multiple of either
    # is primitively represented by x^2+12y^2.
    for m in (5, 10, 11, 22, 55, 240, 242):
        assert primitive_representations(X2_12Y2, m) == [], m


def test_sqrt_count_matches_residue_scan():
    # every residue class of d, as a negative and a nonnegative integer,
    # modulo every power up to 2048 of the primes up to 13
    for p in (2, 3, 5, 7, 11, 13):
        q, e = p, 1
        while q <= 2048:
            squares = Counter(x * x % q for x in range(q))
            for d in range(-q, q):
                count = squares[d % q]
                assert _sqrt_count(d, p, e) == count, (d, p, e)
                assert len({r % q for r in _sqrt_mod_prime_power(d, p, e)}) == count
            q, e = q * p, e + 1


def test_sqrt_mod_prime_matches_residue_scan():
    # every nonzero d, as a negative and a positive integer, modulo every
    # odd prime below 2000: each of the three branches (p = 3 mod 4,
    # p = 5 mod 8, p = 1 mod 8) must find both roots of a residue and
    # none of a non-residue
    for p in filter(arith.is_prime, range(3, 2000, 2)):
        roots = {}
        for x in range(1, p):
            roots.setdefault(x * x % p, []).append(x)
        for d in range(1, p):
            expected = roots.get(d, [])
            assert sorted(_sqrt_mod_prime(d, p)) == expected, (d, p)
            assert sorted(_sqrt_mod_prime(d - p, p)) == expected, (d - p, p)


def test_sqrt_mod_prime_on_deep_tonelli_shanks_loops():
    # p - 1 = 2**s * q with s = 8, 9 and 16, where the loop runs longest
    rng = random.Random(22)
    for p in (257, 7681, 65537):
        squares = {x * x % p for x in range(1, p)}
        for d in rng.sample(range(1, p), 256):
            got = _sqrt_mod_prime(d, p)
            if d in squares:
                assert len(got) == 2 and all(r * r % p == d for r in got), (d, p)
                assert got[0] + got[1] == p
            else:
                assert got == [], (d, p)


def test_sqrt_mod_prime_where_the_least_non_residue_is_large():
    # the least primes p = 1 (mod 8) whose least non-residue is each of
    # 29 .. 89: Tonelli-Shanks must step over every residue below it
    rng = random.Random(23)
    for z, p in ((29, 87481), (47, 3818929), (53, 9257329), (67, 48473881),
                 (79, 427733329), (83, 898716289), (89, 8114538721)):
        assert arith.is_prime(p) and p % 8 == 1
        assert next(y for y in range(2, p) if pow(y, (p - 1) // 2, p) == p - 1) == z
        for x in rng.sample(range(1, p), 32):
            d = x * x % p
            assert sorted(_sqrt_mod_prime(d, p)) == sorted((x, p - x)), (d, p)
            assert _sqrt_mod_prime(d * z, p) == [], (d * z, p)


def test_sqrt_mod_prime_power_is_every_root():
    # the root list is exactly the residue scan's, also where p divides d
    for p in (2, 3, 5, 7):
        q, e = p, 1
        while q <= 3**7:
            roots = {}
            for x in range(q):
                roots.setdefault(x * x % q, []).append(x)
            for d in range(-q, q):
                assert sorted(_sqrt_mod_prime_power(d, p, e)) == roots.get(d % q, []), (d, p, e)
            q, e = q * p, e + 1
    # the 2**20 roots of 0 mod 2**39 are the multiples of 2**20, and the
    # 2 * 3**6 roots of 3**12 * 7 mod 3**20 are 3**6 * (y + t * 3**8)
    assert _sqrt_mod_prime_power(0, 2, 39) == list(range(0, 2**39, 2**20))
    roots = _sqrt_mod_prime_power(3**12 * 7, 3, 20)
    assert len(set(roots)) == 2 * 3**6 == _sqrt_count(3**12 * 7, 3, 20)
    assert all(x * x % 3**20 == 3**12 * 7 for x in roots)


def test_point_query_refuses_too_many_square_roots(monkeypatch):
    # 2**40 and D = -2**42 share 2**42, which leaves 2**21 roots mod 4m;
    # the refusal comes from the count, before any root is built
    form = IntQuadForm(1, 0, 2**40)
    with monkeypatch.context() as patch:
        patch.setattr(quadform, "_sqrt_mod_prime_power", None)
        for query in (representations, primitive_representations):
            with pytest.raises(ValueError, match="has 2097152 square roots"):
                query(form, 2**40)
    assert 2**21 > MAX_SQUARE_ROOTS
    # a prime of m with no root of D decides the query before the count
    # matters: 3 is inert for D = -2**42
    assert representations(form, 3 * 2**40) == []
    assert [r.pair for r in representations(form, 2**20)] == [(-(2**10), 0), (2**10, 0)]


def test_value_set_scales_quadratically():
    # spot check the enumeration bound: values of the scaled form are
    # exactly 3 * values of the base form
    base = primitive_value_set(HEX, 60).values
    scaled = primitive_value_set(IntQuadForm(3, 3, 3), 180).values
    assert tuple(3 * v for v in base) == scaled
