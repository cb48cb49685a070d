"""Primes whose quadratic-form representations sit in a two-sided gap.

The searches here produce values v (a prime p, or twice a prime) such
that, verified from scratch in exact arithmetic:

  (i)   v is represented by the family's carrier form Q1, the
        representation is primitive, and every integer representation
        lies in one sign class (for the m004 family) or sign-and-swap
        class (for the m125 family);
  (ii)  none of v - g .. v + g other than v itself is primitively
        represented by the family's companion form Q0;
  (iii) v has no primitive representation by the excluded form Q2.

Candidates are primes p with witness value v = f*p, f the family's
value factor (1 for m004, 2 for m125).  A congruence system on p makes
each shifted value v +- k divisible by a designated "avoid" prime,
which kills primitive representability by Q0, and a base congruence
on p (1 mod 12, or 1 mod 4) forces the wanted representation behaviour.
The system is solved by the Chinese remainder theorem and the resulting
arithmetic progression is walked for primes p <= cap / f.  The
congruences only make conditions likely by design; every reported
witness is re-verified directly, so a bug in the construction can cost
completeness but never soundness.

The scan's primality test is the only primality decision made per
candidate.  It also decides v's factorization: f's primes and p once,
as p = 1 mod 4 is odd and f is 1 or 2.  The search hands that
factorization to verify_witness, which checks conditions (i) and (iii)
from it with the same exact engine, instead of factoring v again and
re-running the same test on p.  For condition (ii), a spec admits only
avoid primes inert for Q0, decided by Euler's criterion when it is
built; a neighbour that its avoid prime divides is then unrepresented
by that one division, and any other neighbour goes to the engine.  The
brute-force ellipse walk over Q = v lives on in the tests as the oracle
the engine is checked against.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, NamedTuple

from .arith import factorize, is_prime
from .quadform import (
    IntQuadForm,
    Representation,
    _all_pairs,
    _primitive_pairs,
    _primitively_represented,
)

__all__ = [
    "GapPrimeSpec",
    "GapPrimeWitness",
    "GapPrimeSearch",
    "EmptyProgressionError",
    "FAMILY_M004",
    "FAMILY_M125",
    "DEFAULT_SEARCH_CAP",
    "crt_solve",
    "default_avoid_primes",
    "progression_modulus",
    "build_congruences",
    "progression",
    "verify_witness",
    "gap_prime_sequence",
]

FAMILY_M004 = "m004-family"
FAMILY_M125 = "m125-family"

DEFAULT_SEARCH_CAP = 10**15


class EmptyProgressionError(ValueError):
    """The arithmetic progression contains no primes at all."""


def crt_solve(congruences: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Smallest nonnegative solution and combined modulus of n = r (mod m).

    Each modulus must be at least 2 and coprime to the moduli before it,
    so the moduli are pairwise coprime; the check is the modular inverse
    each step takes anyway, in one pass over the congruences.
    """
    n0, modulus = 0, 1
    for r, m in congruences:
        if m < 2:
            raise ValueError(f"modulus {m} must be at least 2")
        try:
            inverse = pow(modulus, -1, m)
        except ValueError:
            raise ValueError(
                f"modulus {m} shares a factor with the moduli before it"
            ) from None
        n0 += modulus * ((r - n0 % m) * inverse % m)
        modulus *= m  # 0 <= n0 < modulus throughout
    return n0, modulus


def _primes(n0: int, modulus: int, cap: int) -> Iterator[int]:
    """The primes among n0, n0 + modulus, ... up to cap, lazily.

    When gcd(n0, modulus) > 1 every term shares that divisor, so the
    progression holds no prime but perhaps n0 itself.  A search's n0 is
    never such a prime: it lies in the family's base class, and an avoid
    prime, inert for the gap form, lies outside it (by quadratic
    reciprocity it is 5 mod 6, or 3 mod 4).  So a shared divisor raises
    EmptyProgressionError, at the call: this is not a generator, and a
    scan that is never stepped refuses it too.
    """
    if math.gcd(n0, modulus) != 1:
        raise EmptyProgressionError(
            f"the progression {n0} mod {modulus} holds no prime: every term is "
            f"divisible by gcd({n0}, {modulus}) = {math.gcd(n0, modulus)}"
        )
    return filter(is_prime, range(n0, cap + 1, modulus))


class _Family(NamedTuple):
    gap_form: IntQuadForm        # Q0, must miss the shifted values
    carrier_form: IntQuadForm    # Q1, must hit the value essentially once
    excluded_form: IntQuadForm   # Q2, must miss the value
    allow_swap: bool             # representation class includes (b, a)
    value_factor: int            # the witness value is value_factor * p
    base: tuple[int, int]        # base congruence (r, m) on the prime p
    value_factorization: dict[int, int]  # factorize(value_factor), written out


_FAMILIES = {
    FAMILY_M004: _Family(
        gap_form=IntQuadForm(1, 1, 1),
        carrier_form=IntQuadForm(1, 0, 12),
        excluded_form=IntQuadForm(4, 4, 4),
        allow_swap=False,
        value_factor=1,
        base=(1, 12),
        value_factorization={},
    ),
    FAMILY_M125: _Family(
        gap_form=IntQuadForm(1, 0, 1),
        carrier_form=IntQuadForm(2, 0, 2),
        excluded_form=IntQuadForm(1, 0, 4),
        allow_swap=True,
        value_factor=2,
        base=(1, 4),
        value_factorization={2: 1},
    ),
}


class _SpecFields(NamedTuple):
    g: int
    family: str
    avoid_primes: tuple[int, ...]


class GapPrimeSpec(_SpecFields):
    """Parameters of a gap-prime search.

    g is the half-width of the wanted gap; avoid_primes lists 2*g
    distinct primes, each inert for the family's gap form (by quadratic
    reciprocity, 5 mod 6 for the m004 family and 3 mod 4 for the m125
    family), one per shift: for i = 1..g, the i-th is to divide v - i
    and the (g + i)-th v + i (see _shifts).
    """

    __slots__ = ()

    def __new__(cls, g: int, family: str, avoid_primes: tuple[int, ...]) -> "GapPrimeSpec":
        if g < 1:
            raise ValueError("gap half-width g must be at least 1")
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if len(avoid_primes) != 2 * g:
            raise ValueError(f"need exactly {2 * g} avoid primes")
        if len(set(avoid_primes)) != len(avoid_primes):
            raise ValueError("avoid primes must be distinct")
        form = _FAMILIES[family].gap_form
        d0 = form.discriminant()
        for q in avoid_primes:
            if not is_prime(q):
                raise ValueError(f"avoid value {q} is not prime")
            if not _inert(d0, q):
                raise ValueError(f"avoid prime {q} is not inert for the gap form {form}: "
                                 f"{d0} is a square mod {q}")
        return tuple.__new__(cls, (g, family, avoid_primes))

    @classmethod
    def _make(cls, iterable: Iterable) -> "GapPrimeSpec":
        # namedtuple's own _make (which _replace calls) skips __new__
        return cls(*iterable)


def _inert(d: int, q: int) -> bool:
    """Whether the prime q is odd and (d | q) = -1, by Euler's criterion: then
    no n that q divides is primitively represented by a form of discriminant d."""
    return q % 2 == 1 and pow(d, (q - 1) // 2, q) == q - 1


def default_avoid_primes(family: str, g: int) -> tuple[int, ...]:
    """The 2*g smallest primes inert for the family's gap form."""
    inert = functools.partial(_inert, _FAMILIES[family].gap_form.discriminant())
    primes = filter(is_prime, itertools.count(3, 2))
    return tuple(itertools.islice(filter(inert, primes), 2 * g))


def progression_modulus(family: str, avoid_primes: Iterable[int]) -> int:
    """The modulus of the progression that a spec with these avoid primes scans.

    It is the product of the moduli of build_congruences: the avoid
    primes and the family's base modulus.  So it is known before the
    congruence system is solved, or even validated.
    """
    return math.prod(avoid_primes, start=_FAMILIES[family].base[1])


@functools.lru_cache(maxsize=64)
def _shifts(spec: GapPrimeSpec) -> tuple[tuple[int, int], ...]:
    """(k, q) for each shift k = -g..-1, 1..g, with q the avoid prime
    that is to divide v + k: the i-th avoid prime divides v - i, the
    (g + i)-th divides v + i."""
    g, avoid = spec.g, spec.avoid_primes
    return tuple(zip([*range(-g, 0), *range(1, g + 1)], avoid[g - 1::-1] + avoid[g:]))


def build_congruences(spec: GapPrimeSpec) -> tuple[tuple[int, int], ...]:
    """Congruences (r, m), 0 <= r < m, whose solutions are the candidates.

    A candidate prime p has the witness value v = f*p, f the family's
    value factor.  For each shift (k, q) of _shifts, v + k must be
    divisible by q, that is p = -k * f**-1 (mod q); then comes the
    family's base congruence on p (1 mod 12 for m004, 1 mod 4 for m125).
    """
    fam = _FAMILIES[spec.family]
    return tuple(
        (-k * pow(fam.value_factor, -1, q) % q, q) for k, q in _shifts(spec)
    ) + (fam.base,)


def progression(spec: GapPrimeSpec) -> tuple[int, int]:
    """The (residue, modulus) of the progression that holds the spec's
    candidate primes, solved from its congruences by the CRT."""
    return crt_solve(build_congruences(spec))


class GapPrimeWitness(NamedTuple):
    """A verified (or failed) candidate with its condition report."""

    value: int
    representation: Representation | None
    conditions: dict[str, bool]

    @property
    def verified(self) -> bool:
        return all(self.conditions.values())


def verify_witness(
    value: int, spec: GapPrimeSpec, factors: dict[int, int] | None = None
) -> GapPrimeWitness:
    """From-scratch check of the three gap conditions for one value.

    Only conditions (i)-(iii) are checked: neither the primality of
    value / f nor membership in the search's progression is.  factors,
    the factorization of value (factored here when None), serves the
    carrier and the excluded form.  A neighbour v + k that its inert
    avoid prime q divides is settled by that one division; any other
    goes to the engine, which factors it only until its first local
    obstruction.  Failed conditions are reported in the result, never
    raised; a negative value raises ValueError.
    """
    if factors is None:
        # 0 has no factorization, and the queries answer 0 without one
        factors = factorize(value) if value > 0 else {}
    fam = _FAMILIES[spec.family]
    # The solutions lie in one class exactly when they have one
    # (|x|, |y|), taken in either order when the family allows the swap.
    sizes = {(abs(x), abs(y)) for x, y in _all_pairs(fam.carrier_form, value, factors.items())}
    prim = [xy for xy in sizes if math.gcd(*xy) == 1]
    if fam.allow_swap:
        sizes = {(min(xy), max(xy)) for xy in sizes}
    gap_clear = not any(
        (value + k) % q and _primitively_represented(fam.gap_form, value + k)
        for k, q in _shifts(spec)
    )
    excluded = value < 1 or not _primitive_pairs(fam.excluded_form, value, factors.items())
    return GapPrimeWitness(
        value=value,
        representation=Representation(*min(prim)) if prim else None,
        conditions={
            "unique_representation": bool(prim) and len(sizes) == 1,
            "neighbors_unrepresented": gap_clear,
            "excluded_form_missed": excluded,
        },
    )


class GapPrimeSearch(NamedTuple):
    """Verified witnesses, a cap-exhausted flag and the scanned progression."""

    witnesses: tuple[GapPrimeWitness, ...]
    truncated: bool
    progression: tuple[int, int]


def gap_prime_sequence(
    spec: GapPrimeSpec,
    count: int,
    cap: int = DEFAULT_SEARCH_CAP,
) -> GapPrimeSearch:
    """First `count` fully verified witnesses from the congruence search.

    The spec's progression of candidate primes is solved once, reported
    in the result, and scanned once, in ascending order.  Each
    candidate's witness value f*p is verified from scratch by
    verify_witness, given the factorization (f's primes and {p: 1}) that
    the scan's primality test decided; the scan stops at the count-th
    witness, so count = 0 verifies nothing.  Only witness values up to
    `cap` are considered; running out before `count` witnesses are found
    returns a truncated result rather than raising.  A progression that holds no prime
    raises EmptyProgressionError up front.
    """
    if count < 0 or cap < 0:
        raise ValueError("count and cap must be nonnegative")
    fam = _FAMILIES[spec.family]
    solved = progression(spec)
    scan = _primes(*solved, cap // fam.value_factor)
    if count == 0:
        return GapPrimeSearch((), False, solved)
    found: list[GapPrimeWitness] = []
    for p in scan:
        witness = verify_witness(fam.value_factor * p, spec, {**fam.value_factorization, p: 1})
        if witness.verified:
            found.append(witness)
            if len(found) == count:
                break
    return GapPrimeSearch(tuple(found), len(found) < count, solved)
