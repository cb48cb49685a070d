"""Cyclic binary words, their cusp graphs, and mutant census counts.

A word b_0 .. b_(n-1) of length n >= 3, read cyclically, encodes one
member of a family of chain-link complements that all share the volume
4*n*V_OCT.  The letters sit at n crossing circles (1 = extra half
twist), and the word's structure determines the cusp data:

  * zeros cut the word into k maximal runs of ones of lengths i_1..i_k
    (k + sum i_j = n); each run gives a knotted cusp of modulus
    4*(i_j + 1);
  * the all-ones word is special: no zeros, two knotted cusps of
    modulus 2*n each;
  * one apex cusp of modulus n sits over everything;
  * 2n small cusps of modulus 1 or 2 come from the crossing circles.

The cusp graph records what a geometric invariant can see: the apex
label, the cyclically ordered knot labels, and whether the word was
all ones.  Two words produce isometric members exactly when one is a
rotation or reflection of the other, which is exactly when their cusp
graphs are isomorphic; the census counters below rely on that.

Moduli of the small cusps are not pinned down by the word alone: the
letter-controlled circle has modulus 1 over a one and 2 over a zero,
while the n remaining first-stage circles default to modulus 1 here
(matching the all-ones description) and are configurable.  Nothing in
the classification reads them; they only feed the horoball area report
(area 4*m for modulus m > 2, area 2 for the small cusps).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple

__all__ = [
    "ALL_ONES",
    "CYCLE",
    "CyclicWord",
    "SubwordDecomposition",
    "CuspGraph",
    "MutantCensusReport",
    "decompose",
    "cusp_graph",
    "canonical_form",
    "enumerate_classes",
    "bracelet_count",
    "horoball_areas",
    "census_report",
    "COMPARISON_GROWTH_RATE",
]

ALL_ONES = "all-ones"
CYCLE = "cycle"

# Published growth-rate constant of another known census, reported next
# to this family's ln(2)/(4*V_OCT) for comparison.
COMPARISON_GROWTH_RATE = 0.0287706

MAX_WORD_LENGTH = 30

# enumerate_classes emits one string per class, and the class count,
# about 2**n/(2n), doubles with each step of n.  A spawned `mutant
# classes -n N` takes 0.22 s, 0.76 MB of JSON and 22 MB peak RSS at
# N = 20, 1.5 s, 11.3 MB and 90 MB at N = 24, and 3.7 s, 22.3 MB and
# 159 MB at N = 25 with the cap raised (2-core x86-64, Python 3.11).
# Longer lists are refused; census_report counts by Burnside and keeps
# MAX_WORD_LENGTH.
MAX_CLASS_WORD_LENGTH = 24

class _Letters(NamedTuple):
    letters: str


class CyclicWord(_Letters):
    """A cyclic binary word of length at least 3, held as its letters."""

    __slots__ = ()

    def __new__(cls, letters: str) -> "CyclicWord":
        if not isinstance(letters, str) or not set(letters) <= {"0", "1"}:
            raise ValueError(f"{letters!r} is not a binary word")
        if len(letters) < 3:
            raise ValueError("cyclic words must have length at least 3")
        return tuple.__new__(cls, (letters,))

    @classmethod
    def _make(cls, iterable: Iterable) -> "CyclicWord":
        # namedtuple's own _make (which _replace calls) skips __new__
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


class SubwordDecomposition(NamedTuple):
    """Runs of ones between consecutive zeros, cyclically."""

    kind: str
    i_sequence: tuple[int, ...]


def decompose(word: CyclicWord) -> SubwordDecomposition:
    """Cut the word at its zeros.

    Each of the k zeros starts a (cyclic) subword 0 1^i 0 sharing its
    closing zero with the next subword; the all-ones word has no zeros
    and is its own special case.  Split at its zeros, the word's pieces
    between two zeros are the runs in order; the piece after the last
    zero and the one before the first make up the last run.
    """
    pieces = word.letters.split("0")
    if len(pieces) == 1:
        return SubwordDecomposition(ALL_ONES, ())
    runs = (*map(len, pieces[1:-1]), len(pieces[-1]) + len(pieces[0]))
    return SubwordDecomposition(CYCLE, runs)


class _Graph(NamedTuple):
    apex_label: int
    cycle_labels: tuple[int, ...]
    special_triangle: bool


class CuspGraph(_Graph):
    """Apex label, cyclically ordered knot labels, all-ones marker."""

    __slots__ = ()

    def __new__(
        cls, apex_label: int, cycle_labels: tuple[int, ...], special_triangle: bool
    ) -> "CuspGraph":
        if apex_label < 3:
            raise ValueError("apex label is the word length, at least 3")
        if not special_triangle and (
            min(cycle_labels, default=4) < 3
            or any(map(operator.mod, cycle_labels, itertools.repeat(4)))
        ):
            raise ValueError("knot labels must be multiples of 4")
        return tuple.__new__(cls, (apex_label, cycle_labels, special_triangle))

    @classmethod
    def _make(cls, iterable: Iterable) -> "CuspGraph":
        # namedtuple's own _make (which _replace calls) skips __new__
        return cls(*iterable)


def cusp_graph(
    word: CyclicWord, dec: SubwordDecomposition | None = None
) -> CuspGraph:
    """Invariant graph: apex joined to the cycle of knot labels.

    dec, if given, is decompose(word).
    """
    if dec is None:
        dec = decompose(word)
    if dec.kind == ALL_ONES:
        return CuspGraph(word.n, (2 * word.n, 2 * word.n), True)
    return CuspGraph(word.n, tuple([4 * i + 4 for i in dec.i_sequence]), False)


def _least_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation of seq.

    Booth, "Lexicographically least circular substrings", IPL 10(4),
    1980: a failure function over seq + seq, as in Knuth-Morris-Pratt,
    moves the candidate start k past every rotation it beats, so the
    cost is linear in len(seq).
    """
    s = seq + seq
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = f[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if i == -1 and c != s[k]:
            if c < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return seq[k:] + seq[:k]


def _dihedral_min(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest rotation of seq or of its reversal."""
    return min(_least_rotation(seq), _least_rotation(seq[::-1]))


def canonical_form(
    word: CyclicWord, dec: SubwordDecomposition | None = None
) -> CyclicWord:
    """Lexicographically smallest rotation or reflected rotation.

    It is found from the runs, not the letters.  A word with k >= 1
    zeros is 0 1^i_1 0 1^i_2 .. 0 1^i_k read from one of its zeros, and
    its least rotation starts with a zero.  Two rotations that start with
    a zero first differ where one run ends and the other goes on, and the
    shorter run puts the smaller letter there: such rotations are in the
    order of their run sequences, rotated alike.  The reversed word is,
    read from a zero, the reversed run sequence.  So the canonical form
    is the word whose runs are the least rotation of i_1..i_k or of its
    reversal, and Booth's algorithm runs over k runs instead of n
    letters.  The all-ones word is its own canonical form.  dec, if
    given, is decompose(word).
    """
    if dec is None:
        dec = decompose(word)
    if dec.kind == ALL_ONES:
        return word
    runs = map("1".__mul__, _dihedral_min(dec.i_sequence))
    return CyclicWord("0" + "0".join(runs))


def _check_word_length(n: int) -> None:
    if not 3 <= n <= MAX_WORD_LENGTH:
        raise ValueError(f"word length must be in 3..{MAX_WORD_LENGTH}")


def enumerate_classes(n: int) -> list[str]:
    """Letters of the canonical representatives of all length-n words, sorted.

    Sawada's generator ("Generating bracelets in constant amortized
    time", SIAM J. Comput. 31(1), 2001) emits the words that are least
    among their rotations and reflected rotations, in lexicographic
    order, at constant amortized cost per word.  It extends a prefix
    a[1..t] letter by letter as the necklace generator of Fredricksen,
    Kessler and Maiorana does (p is the period of the prefix's longest
    Lyndon prefix) and prunes prefixes whose reversal is smaller: u is
    the length of the leading run of a[1]s and v that of the current
    trailing one; when they match, check_rev compares the prefix with its
    reversal, and for a prefix equal to its reversal, r and rs track the
    comparison of a[r+1..n] with its reversal.  The list has
    bracelet_count(n) words, about 2**n/(2n), so n is capped at
    MAX_CLASS_WORD_LENGTH.
    """
    _check_word_length(n)
    if n > MAX_CLASS_WORD_LENGTH:
        raise ValueError(
            f"class lists are refused above word length {MAX_CLASS_WORD_LENGTH}: "
            f"length {n} has {bracelet_count(n)} classes; mutant census counts "
            f"classes up to length {MAX_WORD_LENGTH}"
        )
    # the letters are the characters "0" < "1", so a finished a[1..n]
    # joins into its class's text
    a = ["0"] * (n + 1)
    out: list[str] = []

    def check_rev(t: int, i: int) -> int:
        # 0: the prefix a[1..t] beats its reversal, 1: they tie, -1: the
        # reversal is smaller and no extension is a representative
        for j in range(i + 1, (t + 1) // 2 + 1):
            if a[j] < a[t - j + 1]:
                return 0
            if a[j] > a[t - j + 1]:
                return -1
        return 1

    def gen(t: int, p: int, r: int, u: int, v: int, rs: bool) -> None:
        if t - 1 > (n - r) // 2 + r:
            if a[t - 1] > a[n - t + 2 + r]:
                rs = False
            elif a[t - 1] < a[n - t + 2 + r]:
                rs = True
        if t > n:
            if not rs and n % p == 0:
                out.append("".join(a[1:]))
            return
        a[t] = a[t - p]
        v = v + 1 if a[t] == a[1] else 0
        if u == -1 and a[t - 1] != a[1]:
            u = r = t - 2
        if u != -1 and t == n and a[n] == a[1]:
            pass  # moving the last letter to the front gives a smaller word
        elif u == v:
            rev = check_rev(t, u)
            if rev == 0:
                gen(t + 1, p, r, u, v, rs)
            elif rev == 1:
                gen(t + 1, p, t, u, v, False)
        else:
            gen(t + 1, p, r, u, v, rs)
        if a[t - p] == "0":
            # raising a[t] to 1 makes a[1..t] a Lyndon word of period t;
            # u, r and rs carry over unchanged
            a[t] = "1"
            gen(t + 1, t, r, u, 0, rs)

    gen(1, 1, 1, -1, 0, False)
    return out


def bracelet_count(n: int) -> int:
    """Number of binary bracelets of length n, by Burnside's lemma.

    Rotation by k fixes 2^gcd(k, n) words, so rotations contribute the
    sum of those over k = 0..n-1; reflections contribute
    n*2^((n+1)/2) for odd n and (n/2)*(2^(n/2+1) + 2^(n/2)) for even n;
    divide the lot by 2n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rotations = sum(2 ** math.gcd(k, n) for k in range(n))
    if n % 2:
        reflections = n * 2 ** ((n + 1) // 2)
    else:
        reflections = (n // 2) * (2 ** (n // 2 + 1) + 2 ** (n // 2))
    return (rotations + reflections) // (2 * n)


def horoball_areas(
    word: CyclicWord, first_stage_modulus: int = 1, graph: CuspGraph | None = None
) -> tuple[tuple[int, int], ...]:
    """Sorted (modulus, area) pairs over all cusps of the member.

    Cusps of modulus m > 2 have maximal horoball area 4*m; the 2n small
    cusps (moduli 1 and 2) have area 2.  Letter circles contribute
    modulus 1 over a one and 2 over a zero; the n first-stage circles
    take the configured modulus.  graph, if given, is cusp_graph(word).
    """
    if first_stage_modulus not in (1, 2):
        raise ValueError("first-stage circle modulus is 1 or 2")
    if graph is None:
        graph = cusp_graph(word)
    # the 2n small cusps, all of area 2, sort before the apex and knot
    # cusps, whose moduli are at least 3: they are counted, not sorted
    n = word.n
    ones = word.letters.count("1")
    if first_stage_modulus == 1:
        ones += n
    small = ((1, 2),) * ones + ((2, 2),) * (2 * n - ones)
    moduli = sorted((n, *graph.cycle_labels))
    return small + tuple(zip(moduli, map((4).__mul__, moduli)))


class MutantCensusReport(NamedTuple):
    """Counts and growth numbers for the length-n slice of the family."""

    n: int
    class_count: int
    lower_bound: Fraction
    volume: float
    log_growth: float
    asymptotic_constant: float
    comparison_constant: float


def census_report(n: int) -> MutantCensusReport:
    """Isometry classes at length n against the shared volume 4*n*V_OCT.

    class_count is the bracelet count by Burnside (bracelet_count);
    enumeration is the test cross-check.  n is held to the same
    3..MAX_WORD_LENGTH range as enumerate_classes.  2**n/(2n)
    lower-bounds the count, and ln(class_count)/volume approaches
    ln(2)/(4*V_OCT) ~ 0.0473 from below.
    """
    # Imported here, not at the top: nzvolume brings cusplattice,
    # quadform and arith, which no other function of this module needs,
    # so `mutant graph` and `mutant classes` load none of them.
    from .nzvolume import V_OCT

    _check_word_length(n)
    count = bracelet_count(n)
    volume = 4 * n * V_OCT
    return MutantCensusReport(
        n=n,
        class_count=count,
        lower_bound=Fraction(2**n, 2 * n),
        volume=volume,
        log_growth=math.log(count) / volume,
        asymptotic_constant=math.log(2) / (4 * V_OCT),
        comparison_constant=COMPARISON_GROWTH_RATE,
    )
