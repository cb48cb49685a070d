"""Primes whose quadratic-form representations sit in a two-sided gap.

The searches here produce values v (a prime p, or twice a prime) such
that, verified from scratch by the exact engine in quadform:

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
as p = 1 mod 4 is odd and f is 1 or 2.  The search verifies conditions
(i)-(iii) from that factorization with the same exact engine, instead
of factoring v again and re-running the same test on p.  The
brute-force ellipse walk over Q = v lives on in the tests as the oracle
the engine is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .arith import factorize, is_prime
from .quadform import (
    IntQuadForm,
    Representation,
    _primitive_representations,
    _representations,
    primitive_representations,
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
    "build_congruences",
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
    prime lies in the avoid class, which is disjoint from it.  So a
    shared divisor raises EmptyProgressionError, at the call: this is
    not a generator, and a scan that is never stepped refuses it too.
    """
    if math.gcd(n0, modulus) != 1:
        raise EmptyProgressionError(
            f"the progression {n0} mod {modulus} holds no prime: every term is "
            f"divisible by gcd({n0}, {modulus}) = {math.gcd(n0, modulus)}"
        )
    return filter(is_prime, range(n0, cap + 1, modulus))


@dataclass(frozen=True)
class _Family:
    gap_form: IntQuadForm        # Q0, must miss the shifted values
    carrier_form: IntQuadForm    # Q1, must hit the value essentially once
    excluded_form: IntQuadForm   # Q2, must miss the value
    avoid_residue: tuple[int, int]   # required residue class of avoid primes
    allow_swap: bool             # representation class includes (b, a)
    value_factor: int            # the witness value is value_factor * p
    base: tuple[int, int]        # base congruence (r, m) on the prime p
    # factorize(value_factor), taken once: a candidate's witness value
    # factors as this plus {p: 1}
    value_factorization: dict[int, int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "value_factorization", factorize(self.value_factor))


_FAMILIES = {
    FAMILY_M004: _Family(
        gap_form=IntQuadForm(1, 1, 1),
        carrier_form=IntQuadForm(1, 0, 12),
        excluded_form=IntQuadForm(4, 4, 4),
        avoid_residue=(5, 6),
        allow_swap=False,
        value_factor=1,
        base=(1, 12),
    ),
    FAMILY_M125: _Family(
        gap_form=IntQuadForm(1, 0, 1),
        carrier_form=IntQuadForm(2, 0, 2),
        excluded_form=IntQuadForm(1, 0, 4),
        avoid_residue=(3, 4),
        allow_swap=True,
        value_factor=2,
        base=(1, 4),
    ),
}


@dataclass(frozen=True)
class GapPrimeSpec:
    """Parameters of a gap-prime search.

    g is the half-width of the wanted gap; avoid_primes lists 2*g
    distinct primes in the family's mandatory residue class (5 mod 6 for
    the m004 family, 3 mod 4 for the m125 family), one per shift
    v - g .. v - 1, v + 1 .. v + g.
    """

    g: int
    family: str
    avoid_primes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError("gap half-width g must be at least 1")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.avoid_primes) != 2 * self.g:
            raise ValueError(f"need exactly {2 * self.g} avoid primes")
        if len(set(self.avoid_primes)) != len(self.avoid_primes):
            raise ValueError("avoid primes must be distinct")
        res, mod = _FAMILIES[self.family].avoid_residue
        for p in self.avoid_primes:
            if not is_prime(p):
                raise ValueError(f"avoid value {p} is not prime")
            if p % mod != res:
                raise ValueError(f"avoid prime {p} is not {res} mod {mod}")


def default_avoid_primes(family: str, g: int) -> tuple[int, ...]:
    """The 2*g smallest primes in the family's mandatory residue class."""
    res, mod = _FAMILIES[family].avoid_residue
    out = []
    p = 2
    while len(out) < 2 * g:
        if p % mod == res and is_prime(p):
            out.append(p)
        p += 1
    return tuple(out)


def build_congruences(spec: GapPrimeSpec) -> tuple[tuple[int, int], ...]:
    """Congruences (r, m), 0 <= r < m, whose solutions are the candidates.

    A candidate prime p has the witness value v = f*p, f the family's
    value factor.  For i = 1..g, v - i must be divisible by the i-th
    avoid prime q and v + i by the (g+i)-th, that is p = i * f**-1 and
    p = -i * f**-1 modulo those primes; then comes the family's base
    congruence on p (1 mod 12 for m004, 1 mod 4 for m125).
    """
    fam = _FAMILIES[spec.family]
    g, avoid = spec.g, spec.avoid_primes
    congruences = []
    for i in range(1, g + 1):
        for shift, q in ((i, avoid[i - 1]), (-i, avoid[g + i - 1])):
            congruences.append((shift * pow(fam.value_factor, -1, q) % q, q))
    congruences.append(fam.base)
    return tuple(congruences)


@dataclass(frozen=True)
class GapPrimeWitness:
    """A verified (or failed) candidate with its condition report."""

    value: int
    representation: Representation | None
    verified_gap: int
    conditions: dict[str, bool] = field(compare=False)

    @property
    def verified(self) -> bool:
        return all(self.conditions.values())


def _representation_class(rep: tuple[int, int], allow_swap: bool) -> set[tuple[int, int]]:
    x, y = rep
    cls = {(x, y), (-x, y), (x, -y), (-x, -y)}
    if allow_swap:
        cls |= {(y, x), (-y, x), (y, -x), (-y, -x)}
    return cls


def verify_witness(value: int, spec: GapPrimeSpec) -> GapPrimeWitness:
    """From-scratch check of the three gap conditions for one value.

    Only conditions (i)-(iii) are checked: neither the primality of
    value / f nor membership in the search's progression is.  A
    search's candidates are prime because its scan tests them, and the
    search verifies each one from the factorization that test implies
    rather than through this function, which factors the value itself.
    Failed conditions are reported in the result, never raised.
    """
    # 0 has no factorization, and the queries answer 0 and below without one
    return _verify(value, spec, factorize(value) if value > 0 else {})


def _verify(value: int, spec: GapPrimeSpec, fac: dict[int, int]) -> GapPrimeWitness:
    """verify_witness(value, spec), read off the factorization fac of value.

    The value's prime powers serve both the carrier and the excluded
    form; each neighbour is factored only until its first prime at
    which the gap form's discriminant has no square root.
    """
    fam = _FAMILIES[spec.family]
    all_reps = _representations(fam.carrier_form, value, fac.items())
    prim = [r.pair for r in all_reps if r.primitive]
    representation = None
    unique = False
    if prim:
        canonical = min((abs(x), abs(y)) for x, y in prim)
        cls = _representation_class(canonical, fam.allow_swap)
        unique = all(r.pair in cls for r in all_reps)
        representation = Representation(*canonical)
    neighbours = [value + k for k in range(-spec.g, spec.g + 1) if k and value + k >= 0]
    gap_clear = not any(primitive_representations(fam.gap_form, n) for n in neighbours)
    excluded = not _primitive_representations(fam.excluded_form, value, fac.items())
    return GapPrimeWitness(
        value=value,
        representation=representation,
        verified_gap=spec.g,
        conditions={
            "unique_representation": unique,
            "neighbors_unrepresented": gap_clear,
            "excluded_form_missed": excluded,
        },
    )


@dataclass(frozen=True)
class GapPrimeSearch:
    """Verified witnesses plus a flag for a cap-exhausted search."""

    witnesses: tuple[GapPrimeWitness, ...]
    truncated: bool


def gap_prime_sequence(
    spec: GapPrimeSpec,
    count: int,
    cap: int = DEFAULT_SEARCH_CAP,
) -> GapPrimeSearch:
    """First `count` fully verified witnesses from the congruence search.

    The progression of candidate primes is scanned once, in ascending
    order, and each candidate's witness value f*p is verified from
    scratch, from the factorization (f's primes and {p: 1}) that the
    scan's primality test decided; the scan stops at the count-th
    witness, so count = 0 verifies nothing.  Only witness values up to
    `cap` are considered; running out before `count` witnesses are
    found returns a truncated result rather than raising.  A progression that holds no prime raises
    EmptyProgressionError up front.
    """
    if count < 0 or cap < 0:
        raise ValueError("count and cap must be nonnegative")
    fam = _FAMILIES[spec.family]
    n0, modulus = crt_solve(build_congruences(spec))
    scan = _primes(n0, modulus, cap // fam.value_factor)
    if count == 0:
        return GapPrimeSearch((), truncated=False)
    found: list[GapPrimeWitness] = []
    for p in scan:
        witness = _verify(fam.value_factor * p, spec, {**fam.value_factorization, p: 1})
        if witness.verified:
            found.append(witness)
            if len(found) == count:
                break
    return GapPrimeSearch(tuple(found), truncated=len(found) < count)
