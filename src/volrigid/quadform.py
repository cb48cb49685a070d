"""Positive definite integral binary quadratic forms.

A form (a, b, c) stands for Q(x, y) = a*x**2 + b*x*y + c*y**2 with
integer coefficients, a > 0 and discriminant D = b**2 - 4*a*c < 0.  A
representation Q(x, y) = m is primitive when gcd(x, y) = 1; note that
gcd(x, 0) = |x|, so (2, 0) is not primitive while (1, 0) and (0, 1) are.

Point queries, the solutions of Q(x, y) = m, come from one exact
engine, which also decides whether m is represented at all.  The square
roots of D modulo 4m are found prime power by prime power
(Tonelli-Shanks and Hensel lifting) and combined by the Chinese
remainder theorem, and each candidate form (m, B, (B**2 - D)/4m) is
Gauss-reduced and compared with the reduced Q (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, sections 1.5 and 5.3;
Buell, Binary Quadratic Forms, 1989).  Before it factors anything, the
engine looks m up in one residue table mod p**k for each small prime p
of 2D: the classes that Q reaches at pairs mod p**k that p does not
divide both of.  A coprime solution reduces to such a pair, so an m
outside a table has none, and the answer is [] from m mod p**k alone.
This is genus theory (Cox, Primes of the Form x^2 + ny^2, 1989, section
3): x**2 + 12y**2 reaches 44 of the 288 classes mod 2**5 * 3**2, and
x**2 + xy + y**2 no n = 2 (mod 3).  Past the tables, the engine reads
the prime powers of m from the lazy stream arith.prime_powers and
counts the roots of D at each one as it arrives.  It returns [] at
once, and never factors the rest of m, at the first of two local
obstructions:
  - a prime power with no root: D is not a square mod 4m.  This is the
    common case among the neighbours of a gap-prime witness, each of
    which carries a small prime q with (D|q) = -1;
  - a prime l of both m and D, with l**e exactly dividing 4m, such that
    D has l times as many roots mod l**(e + 1) as mod l**e.  Then every
    root lifts, so l divides m, B and (B**2 - D)/4m for every root B,
    and no candidate form is primitive.  The m125 family's excluded
    query x**2 + 4y**2 at 2p ends this way at l = 2, before p is read.
A query for all representations, primitive or not, needs the square
divisors of m and so reads the whole factorization.  The cost is one
factorization, or a prefix of one, plus one reduction per pair of roots
B and -B, not a walk over the O(sqrt m) rows of the ellipse Q = m; that
walk lives on in the tests as the oracle the engine is checked against.
The number of roots is known from the factorization before any is
computed, and a query with more than MAX_SQUARE_ROOTS of them is refused
once m is fully factored.

A value set up to a limit walks the lattice points of the ellipse
Q <= limit: the admissible y satisfy |D|*y**2 <= 4*a*limit, and for each
y the x values form one interval.  It is refused up front above
MAX_VALUE_SET_POINTS points.  A two-sided gap around q0 is a run of
point queries, q0 - k and q0 + k for k = c, 2c, ... where c is the
form's content, up to the first one represented; its cost is that of
factoring the neighbours of q0 as far as the engine reads them, so it
depends on q0 and the gap, not on the scan limit.  A gap scan is refused
for q0 above MAX_GAP_VALUE, once it has taken MAX_GAP_STEPS steps, and
once Pollard's rho has taken MAX_GAP_RHO_STEPS steps on its neighbours.
"""

from __future__ import annotations

import functools
import itertools
import math
from decimal import Decimal
from typing import Iterable, NamedTuple

from .arith import _RhoRefusal, prime_powers

__all__ = [
    "IntQuadForm",
    "Representation",
    "ValueSet",
    "representations",
    "primitive_representations",
    "primitive_value_set",
    "two_sided_gap",
    "MAX_VALUE_SET_POINTS",
    "MAX_GAP_STEPS",
    "MAX_GAP_VALUE",
    "MAX_GAP_RHO_STEPS",
    "MAX_SQUARE_ROOTS",
]

# primitive_value_set walks the 2*pi*limit/sqrt(|D|) lattice points of
# the ellipse Q <= limit, at roughly 0.4 us each; a walk longer than
# this many points is refused instead of running for hours.
MAX_VALUE_SET_POINTS = 3 * 10**7

# two_sided_gap factors two neighbours of q0 per step, as far as the
# engine reads them; a scan is refused after this many steps, and for q0
# above MAX_GAP_VALUE, where one factorization can take seconds.  Rho
# is most of a long scan's time, so its steps on all the neighbours
# count against one budget, as large as one factorization's; it runs out
# in about 0.6 s (2-core x86-64, Python 3.11).  The gaps in the tests
# take rho a few hundred steps at most.
MAX_GAP_STEPS = 10**4
MAX_GAP_VALUE = 10**19
MAX_GAP_RHO_STEPS = 2**20

# A point query runs over every square root of D modulo 4m.  There are at
# most a few per prime factor of m unless m and D share a high prime
# power p**e, which leaves about p**(e/2) of them, at about 2 us each:
# representations((1, 0, 2**37), 2**37) runs over 524288 roots in about
# 0.9 s (2-core x86-64, Python 3.11).
# A query with more roots than this is refused before any is computed.
MAX_SQUARE_ROOTS = 10**6


class _Coefficients(NamedTuple):
    a: int
    b: int
    c: int


class IntQuadForm(_Coefficients):
    """Coefficients (a, b, c) of a positive definite integral form."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> "IntQuadForm":
        if a <= 0 or b * b - 4 * a * c >= 0:
            raise ValueError(f"form {(a, b, c)} is not positive definite")
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "IntQuadForm":
        # namedtuple's own _make (which _replace calls) skips __new__
        return cls(*iterable)

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c}"


class Representation(NamedTuple):
    """A solution Q(x, y) = m; primitive when gcd(x, y) = 1."""

    x: int
    y: int

    @property
    def primitive(self) -> bool:
        return math.gcd(self.x, self.y) == 1

    @property
    def pair(self) -> tuple[int, int]:
        return (self.x, self.y)


class ValueSet(NamedTuple):
    """Primitively represented values of a form up to a limit."""

    form: IntQuadForm
    limit: int
    values: tuple[int, ...]


def _sqrt_mod_prime(d: int, p: int) -> list[int]:
    """Square roots of d modulo an odd prime p not dividing d.

    Empty when d is a non-residue.  One exponentiation finds the root
    for p = 3 (mod 4), r = d**((p + 1)/4), and for p = 5 (mod 8) by
    Atkin's formula: with v = (2d)**((p - 5)/8) and i = 2d*v**2, r =
    d*v*(i - 1).  Either r squares to d or d is a non-residue.  For
    p = 1 (mod 8), Tonelli-Shanks starts from x = d**((q - 1)/2), where
    p - 1 = q * 2**s with q odd: then r = x*d and t = x*r = d**q, and
    Euler's criterion is t**(2**(s - 1)) = 1, read off by squaring t
    (Cohen, GTM 138, 1.5.1; Mueller, Des. Codes Cryptogr. 31, 2004).
    """
    d %= p
    if p % 4 == 3:
        r = pow(d, (p + 1) // 4, p)
    elif p % 8 == 5:
        d2 = 2 * d
        v = pow(d2, (p - 5) // 8, p)
        r = d * v * (d2 * v * v - 1) % p
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        x = pow(d, (q - 1) // 2, p)
        r = x * d % p
        t = x * r % p
        t2 = t
        for _ in range(s - 1):
            t2 = t2 * t2 % p
        if t2 != 1:
            return []
        # The least non-residue z is prime, and 2 is a residue mod
        # p = 1 (mod 8), so z is odd.  By reciprocity, as p = 1 (mod 4),
        # (z | p) = (p mod z | z) for an odd prime z: Euler's criterion
        # mod z, a small number.  primes holds the odd primes below z,
        # all residues, so a z that none of them divides is prime.
        z, primes = 3, []
        while True:
            if all(map(z.__mod__, primes)):
                if pow(p % z, (z - 1) // 2, z) == z - 1:
                    break
                primes.append(z)
            z += 2
        c = pow(z, q, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (s - i - 1), p)
            s, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return [r, p - r]
    return [r, p - r] if r * r % p == d else []


def _sqrt_mod_prime_power(d: int, p: int, e: int) -> list[int]:
    """All x mod p**e with x**2 = d (mod p**e).

    For d = 0 mod p**e the roots are the multiples of p**ceil(e/2).
    Otherwise d = p**j * u with p not dividing u and j < e, and as
    _sqrt_count says, the roots are p**(j/2) * (y + t * p**(e - j)) for
    even j, the roots y of u mod p**(e - j) and t < p**(j/2).  The y are
    lifted from roots mod p one p-adic digit at a time: y + t*p**i
    squares to y**2 + 2*y*t*p**i (mod p**(i+1)), so t is unique (Hensel)
    for odd p, and for p = 2 every t or none works; there are at most
    four y.
    """
    j = 0
    if d % p == 0:
        pe = p**e
        d %= pe
        if d == 0:
            return list(range(0, pe, p ** ((e + 1) // 2)))
        while d % p == 0:
            d //= p
            j += 1
        if j % 2:
            return []
    roots = [1] if p == 2 else _sqrt_mod_prime(d, p)
    q = p
    for _ in range(e - j - 1):
        lifted = []
        for r in roots:
            k = (r * r - d) // q % p
            if p > 2:
                lifted.append(r + (-k * pow(2 * r, -1, p) % p) * q)
            elif k == 0:
                lifted += [r, r + q]
        roots = lifted
        q *= p
    if not j:
        return roots
    # x = h*y + t*h*q for t < h, where h*h*q = p**e
    h = p ** (j // 2)
    return [x for y in roots for x in range(h * y, pe, h * q)]


def _sqrt_count(d: int, p: int, e: int) -> int:
    """Number of x mod p**e with x**2 = d (mod p**e), p prime.

    For d = 0 mod p**e the roots are the multiples of p**ceil(e/2).
    Otherwise write d = p**j * u with p not dividing u and j < e: a root
    is p**(j/2) * y with y a root of u mod p**(e - j), so j must be even,
    and each such y mod p**(e - j) gives p**(j/2) roots x.  u has 2 roots
    mod odd p**(e - j) when it is a residue mod p, and 1, 2 or 4 roots
    mod 2**(e - j) for e - j = 1, 2 or >= 3 when u = 1 mod 2, 4 or 8.
    """
    d %= p**e
    if d == 0:
        return p ** (e // 2)
    j = 0
    while d % p == 0:
        d //= p
        j += 1
    if j % 2:
        return 0
    f = e - j
    if p > 2:
        units = 2 if pow(d, (p - 1) // 2, p) == 1 else 0
    elif f == 1:
        units = 1
    elif f == 2:
        units = 2 if d % 4 == 1 else 0
    else:
        units = 4 if d % 8 == 1 else 0
    return units * p ** (j // 2)


def _reduce(
    a: int, b: int, c: int, r: int = 0, s: int = 1
) -> tuple[tuple[int, int, int], int, int]:
    """Gauss reduction of a positive definite form, with one row of its transform.

    Returns the reduced form (|b| <= a <= c, and b >= 0 when |b| = a or
    a = c) and the row (r, s) * M, where M in SL2(Z) has
    f(M (x, y)) = reduced(x, y): M's second row by default, and its
    first row from (r, s) = (1, 0).
    """
    while True:
        if not -a < b <= a:
            # f(x + t*y, y): b -> b + 2at, c -> c + (at + b)t
            t = (a - b) // (2 * a)
            c += (a * t + b) * t
            b += 2 * a * t
            s += r * t
        if a > c or (a == c and b < 0):
            # f(-y, x) = (c, -b, a)
            a, b, c = c, -b, a
            r, s = s, -r
            continue
        return (a, b, c), r, s


# Generators (p, q, r, s) of the proper automorphism groups of the two
# reduced primitive forms whose group is larger than {I, -I}.
_ROTATIONS = {(1, 0, 1): (0, -1, 1, 0), (1, 1, 1): (0, -1, 1, 1)}


# The primes of 2D for which a point query looks m up in a residue table
# mod p**k before it reads the factorization, and the cap on p**k; see
# _residue_tables.
_TABLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_TABLE_MODULUS_CAP = 32


def _residue_tables(
    a: int, b: int, c: int, d: int
) -> tuple[tuple[int, frozenset[int]], ...]:
    """(q, residues) for each prime p < _TABLE_MODULUS_CAP of 2D whose
    table rules out some class: the residues mod q = p**k of
    a*x**2 + b*x*y + c*y**2 over the pairs (x, y) mod q that p does not
    divide both of.

    A coprime solution of Q(x, y) = m reduces to such a pair mod q, so an
    m outside the table has none.  The classes that a table rules out
    stop growing at k = v_p(D) + 1 (checked on every reduced form with
    |D| < 400, for p <= 7 and p**k <= 256), so k is that, lowered until
    q <= _TABLE_MODULUS_CAP: a table enumerates at most 32**2 pairs, and
    the tables of x**2 + 12y**2 (mod 32 and 9) take about 0.2 ms to
    build.  p and its multiplicity in D are found by division alone, so
    a form such as x**2 + 10**17 y**2 costs no factorization of D.
    """
    tables = []
    for p in _TABLE_PRIMES:
        if 2 * d % p:
            continue
        q = p
        while d % q == 0 and q * p <= _TABLE_MODULUS_CAP:
            q *= p
        residues = frozenset(
            (a * x * x + b * x * y + c * y * y) % q
            for x in range(q) for y in range(q) if x % p or y % p
        )
        if len(residues) < q:
            tables.append((q, residues))
    return tuple(tables)


@functools.lru_cache(maxsize=64)
def _form_constants(form: IntQuadForm) -> tuple:
    """What a point query needs of Q, worked out once per form.

    (content, D, reduced, mirrored, M, rotation, tables): D and the
    reduced form of Q / content, the reduced form at (x, -y), the matrix
    M = (p, q, r, s) with Q(M (x, y)) = content * reduced(x, y), the
    generator of the reduced form's proper automorphisms, and the
    residue tables of Q / content (see _residue_tables).
    """
    content = math.gcd(form.a, form.b, form.c)
    a, b, c = form.a // content, form.b // content, form.c // content
    d = b * b - 4 * a * c
    reduced, p0, q0 = _reduce(a, b, c, 1, 0)
    _, r0, s0 = _reduce(a, b, c)
    ra, rb, rc = reduced
    return (
        content, d, reduced, (ra, -rb, rc), (p0, q0, r0, s0),
        _ROTATIONS.get(reduced, (-1, 0, 0, -1)), _residue_tables(a, b, c, d),
    )


# Root lists of D modulo a power of a prime of 2D are kept only up to
# this length; longer ones are rebuilt per query.
_SHORT_ROOT_LIST = 64


@functools.lru_cache(maxsize=256)
def _local_roots(d: int, p: int, e: int) -> tuple[int, bool, tuple[int, ...] | None]:
    """(count, all_lift, roots) for the square roots of d mod p**e, p | 2d.

    all_lift: each root mod p**e lifts to p roots mod p**(e + 1).  roots
    is None above _SHORT_ROOT_LIST of them, so a count that a query
    refuses builds none.
    """
    count = _sqrt_count(d, p, e)
    all_lift = _sqrt_count(d, p, e + 1) == p * count
    short = count <= _SHORT_ROOT_LIST
    return count, all_lift, tuple(_sqrt_mod_prime_power(d, p, e)) if short else None


def _primitive_pairs(
    form: IntQuadForm, m: int, fac: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The primitive solutions of Q(x, y) = m >= 1, unordered.

    fac is the factorization of m as (prime, exponent) pairs, each prime
    once; it may be a lazy stream, and is read only as far as needed.
    Every primitive solution (x, y) is the first column of some M in
    SL2(Z), and Q(M (x, y)) is a form (m, B, C) with B**2 = D (mod 4m),
    B unique mod 2m.  So the solutions are found by running over the
    square roots B of D mod 4m, keeping those whose form
    (m, B, (B**2 - D)/4m) reduces to the reduced Q, and taking each
    one's images under the proper automorphisms of Q.  Three exits
    answer [] early.  The residue-class exit comes first, once the
    content is divided out of m and before fac is read: m mod q lies
    outside the residue table of Q / content mod q, for some q in
    _residue_tables.  Then, a prime power of 4m modulo which D has no
    square root leaves no B at all, and a prime of m and D at which
    every B is forced to make the form imprimitive leaves no B that can
    match Q; either way the answer is [] as soon as the stream reaches
    that prime.

    The roots come in pairs B, 2m - B, and one reduction serves both.
    The form of 2m - B is (m, -B, C) at (x + y, y), which fixes the
    solution e1, and (m, -B, C) is f(x, -y) for f = (m, B, C).  So if f
    reduces by [[p, q], [r, s]] to (g0, g1, g2), then (m, -B, C) reduces
    by [[p, -q], [-r, s]] to (g0, -g1, g2), with the solution (s, r) in
    place of (s, -r).  That form is reduced unless g1 > 0 and g1 = g0
    or g0 = g2; it is then equivalent to g, and 2m - B is reduced on its
    own when g is the reduced Q.
    """
    content, d, reduced, mirrored, (p0, q0, r0, s0), (u, v, w, z), tables = (
        _form_constants(form)
    )
    if m % content:
        return []
    m //= content
    for q, residues in tables:
        if m % q not in residues:
            return []
    # The factorization of 4m: m's with the content divided out and two
    # more 2s, the latter added at the end when m's stream holds no 2.
    # A prime that does not divide 2D has at most two roots, found
    # directly; the others are counted before their roots are built, and
    # both depend on D, p and e alone, so _local_roots keeps them.
    fac4, total = {}, 1
    for p, e in itertools.chain(fac, [(2, 0)]):
        if p in fac4:
            continue
        k = content
        while k % p == 0:
            k //= p
            e -= 1
        if p == 2:
            e += 2
        if not e:
            continue
        if 2 * d % p:
            roots = _sqrt_mod_prime_power(d, p, e)
            count = len(roots)
        else:
            count, all_lift, roots = _local_roots(d, p, e)
            # When p | m and every lift of every root mod p**e is a root
            # mod p**(e + 1), p divides B, m and C = (B**2 - D)/4m for
            # each B: every candidate form is imprimitive, so none is
            # equivalent to the primitive Q.  (p | B as p | D: for odd D
            # and even m both counts at 2 are 4, and the test fails.)
            if all_lift and m % p == 0:
                return []
        if not count:
            return []
        fac4[p] = e, roots
        total *= count
    if total > MAX_SQUARE_ROOTS:
        raise ValueError(
            f"{d} has {total} square roots modulo {4 * m}; point "
            f"queries on form {form} are refused above {MAX_SQUARE_ROOTS:.0e} roots"
        )
    residues, modulus = [0], 1
    for p, (e, roots) in fac4.items():
        pe = p**e
        inv = pow(modulus, -1, pe)
        if roots is None:
            roots = _sqrt_mod_prime_power(d, p, e)
        residues = [x + modulus * ((r - x) * inv % pe) for x in residues for r in roots]
        modulus *= pe
    m2, m4 = 2 * m, 4 * m
    # reduced(M^-1 e1) = m, and M^-1 = [[s, -q], [-r, p]]
    starts = []
    for big_b in {x % m2 for x in residues}:
        if big_b > m:
            continue
        g, r, s = _reduce(m, big_b, (big_b * big_b - d) // m4)
        if g == reduced:
            starts.append((s, -r))
        if 0 < big_b < m:
            g0, g1, g2 = g
            if g1 > 0 and (g1 == g0 or g0 == g2):
                if g == reduced:
                    b2 = m2 - big_b
                    _, r, s = _reduce(m, b2, (b2 * b2 - d) // m4)
                    starts.append((s, -r))
            elif g == mirrored:
                starts.append((s, r))
    out = []
    for start in starts:
        x, y = start
        while True:
            out.append((p0 * x + q0 * y, r0 * x + s0 * y))
            x, y = u * x + v * y, w * x + z * y
            if (x, y) == start:
                break
    return out


def _in_order(pairs: list[tuple[int, int]]) -> list[Representation]:
    return [Representation(x, y) for x, y in sorted(pairs, key=lambda xy: (xy[1], xy[0]))]


def _all_pairs(
    form: IntQuadForm, m: int, fac: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The solutions of Q(x, y) = m, primitive or not, unordered.

    fac is the factorization of m as (prime, exponent) pairs; see
    representations.
    """
    if m < 0:
        raise ValueError("a positive definite form only represents m >= 0")
    if m == 0:
        return [(0, 0)]
    square_divisors = [(1, {})]
    for p, e in fac:
        square_divisors = [
            (k * p**j, {**sub, p: e - 2 * j} if e > 2 * j else sub)
            for k, sub in square_divisors
            for j in range(e // 2 + 1)
        ]
    pairs = []
    for k, sub in square_divisors:
        pairs += [(k * x, k * y) for x, y in _primitive_pairs(form, m // (k * k), sub.items())]
    return pairs


def representations(form: IntQuadForm, m: int) -> list[Representation]:
    """All integer solutions of Q(x, y) = m, primitive or not.

    Sorted lexicographically by (y, x).  m < 0 is a domain error; m = 0
    has the single solution (0, 0).  A solution with gcd(x, y) = k is k
    times a primitive solution for m / k**2, so this is the union of the
    primitive solutions over the square divisors of m, all read off one
    factorization of m.
    """
    return _in_order(_all_pairs(form, m, prime_powers(m)))


def primitive_representations(form: IntQuadForm, m: int) -> list[Representation]:
    """The primitive solutions of Q(x, y) = m, in (y, x) order.

    m is factored lazily, and not past the first prime power of 4m
    modulo which D has no square root.
    """
    if m < 0:
        raise ValueError("a positive definite form only represents m >= 0")
    if m == 0:
        return []
    return _in_order(_primitive_pairs(form, m, prime_powers(m)))


def _primitively_represented(
    form: IntQuadForm, m: int, rho_budget: list[int] | None = None
) -> bool:
    """Whether Q(x, y) = m has a coprime solution; m <= 0 never has.

    m is factored only up to the engine's first obstruction, with rho
    drawing on rho_budget when one is given (see arith.prime_powers).
    """
    return m > 0 and bool(_primitive_pairs(form, m, prime_powers(m, rho_budget)))


def primitive_value_set(form: IntQuadForm, limit: int) -> ValueSet:
    """All values <= limit taken by the form on coprime pairs.

    Walks every lattice point inside the ellipse Q <= limit once, so the
    cost is proportional to limit / sqrt(|D|); a limit whose ellipse
    holds more than MAX_VALUE_SET_POINTS lattice points raises
    ValueError up front.  As 4a*Q = (2ax + by)**2 - D*y**2, row y holds
    the x with |2ax + by| <= isqrt(4a*limit + D*y**2).
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    points = Decimal(limit) * Decimal(2 * math.pi / math.sqrt(-form.discriminant()))
    if points > MAX_VALUE_SET_POINTS:
        raise ValueError(
            f"limit {limit} puts about {points:.2e} lattice points in the "
            f"ellipse of form {form}; value sets are refused above "
            f"{MAX_VALUE_SET_POINTS:.0e} points"
        )
    a, b, c = form.a, form.b, form.c
    d = form.discriminant()
    values: set[int] = set()
    ymax = math.isqrt(4 * a * limit // -d) + 1
    for y in range(-ymax, ymax + 1):
        disc = d * y * y + 4 * a * limit
        if disc < 0:
            continue
        s = math.isqrt(disc)
        for x in range(-((b * y + s) // (2 * a)), (-b * y + s) // (2 * a) + 1):
            if math.gcd(x, y) == 1:
                values.add(a * x * x + b * x * y + c * y * y)
    return ValueSet(form, limit, tuple(sorted(values)))


def two_sided_gap(form: IntQuadForm, q0: int, limit: int) -> int:
    """Distance from q0 to the nearest other primitive value, capped.

    Returns the largest g such that every primitively represented value
    s with |s - q0| < g equals q0.  The scan only sees values <= limit,
    so the result is capped at limit - q0; q0 itself must be primitively
    represented.

    Every value of the form is a multiple of its content c, so the scan
    asks the engine about q0 - k and q0 + k for k = c, 2c, ... and stops
    at the first k where either is primitively represented, or at
    limit - q0.  Its cost is set by q0 and the gap, not by limit.  A q0
    above MAX_GAP_VALUE raises ValueError before any query, and so does
    a scan that reaches its (MAX_GAP_STEPS + 1)-th step, or whose
    neighbours take Pollard's rho past MAX_GAP_RHO_STEPS steps in all.
    """
    return _gap_and_count(form, q0, limit)[0]


def _gap_and_count(form: IntQuadForm, q0: int, limit: int) -> tuple[int, int]:
    """two_sided_gap(form, q0, limit), and the number of primitive
    solutions of Q(x, y) = q0, from the one query on q0 that checks it
    is primitively represented."""
    if limit <= q0:
        raise ValueError("scan limit must exceed q0")
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if q0 > MAX_GAP_VALUE:
        raise ValueError(
            f"gap scans are refused for q0 above {MAX_GAP_VALUE:.0e}, where "
            f"factoring a neighbour of q0 can take seconds"
        )
    count = len(_primitive_pairs(form, q0, prime_powers(q0))) if q0 > 0 else 0
    if not count:
        raise ValueError(f"{q0} has no primitive representation by {form}")
    step = math.gcd(form.a, form.b, form.c)
    budget = [MAX_GAP_RHO_STEPS]  # rho steps left to the whole scan
    for k in range(step, limit - q0, step):
        if k > MAX_GAP_STEPS * step:
            raise ValueError(
                f"form {form} has no primitive value within {k - step} of "
                f"{q0}; gap scans are refused above {MAX_GAP_STEPS:.0e} steps"
            )
        try:
            if (_primitively_represented(form, q0 - k, budget)
                    or _primitively_represented(form, q0 + k, budget)):
                return k, count
        except _RhoRefusal:
            raise ValueError(
                f"form {form} has no primitive value within {k - step} of "
                f"{q0}; gap scans are refused past {MAX_GAP_RHO_STEPS} steps "
                f"of Pollard's rho"
            ) from None
    return limit - q0, count
