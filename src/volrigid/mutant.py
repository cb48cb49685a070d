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

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .nzvolume import V_OCT

__all__ = [
    "ALL_ONES",
    "CYCLE",
    "CyclicWord",
    "SubwordDecomposition",
    "CuspGraph",
    "MutantCensusReport",
    "decompose",
    "knot_cusp_moduli",
    "cusp_graph",
    "graphs_isomorphic",
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

# enumerate_classes emits one word per class, and the class count,
# about 2**n/(2n), doubles with each step of n.  `mutant classes -n N`
# takes 0.35 s, 0.76 MB of JSON and 30 MB peak RSS at N = 20, 3.0 s,
# 11.3 MB and 203 MB at N = 24, and 5.5 s, 22.3 MB and 403 MB at N = 25
# (one run each, 2-core x86-64, Python 3.11).  Longer lists are refused;
# census_report counts by Burnside and keeps MAX_WORD_LENGTH.
MAX_CLASS_WORD_LENGTH = 24

# letter value -> its digit, for printing words through bytes.translate,
# and back, for parsing them
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_LETTERS = bytes.maketrans(b"01", b"\x00\x01")


class _Bits(NamedTuple):
    bits: tuple[int, ...]


class CyclicWord(_Bits):
    """A cyclic binary word of length at least 3."""

    __slots__ = ()

    def __new__(cls, bits: tuple[int, ...]) -> "CyclicWord":
        if len(bits) < 3:
            raise ValueError("cyclic words must have length at least 3")
        if not set(bits) <= {0, 1}:
            raise ValueError("cyclic words are binary")
        return tuple.__new__(cls, (bits,))

    @classmethod
    def _make(cls, iterable: Iterable) -> "CyclicWord":
        # namedtuple's own _make (which _replace calls) skips __new__
        return cls(*iterable)

    @classmethod
    def from_string(cls, text: str) -> "CyclicWord":
        if not set(text) <= {"0", "1"}:
            raise ValueError(f"{text!r} is not a binary word")
        return cls(tuple(text.encode().translate(_LETTERS)))

    @property
    def n(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        # a True letter is the byte 1 and prints as "1"
        return bytes(self.bits).translate(_DIGITS).decode("ascii")


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
    pieces = bytes(word.bits).split(b"\x00")
    if len(pieces) == 1:
        return SubwordDecomposition(ALL_ONES, ())
    runs = (*map(len, pieces[1:-1]), len(pieces[-1]) + len(pieces[0]))
    return SubwordDecomposition(CYCLE, runs)


def knot_cusp_moduli(word: CyclicWord) -> tuple[int, ...]:
    """Multiset (sorted) of knotted-cusp moduli: 4*(i_j + 1), or twice 2n."""
    return tuple(sorted(cusp_graph(word).cycle_labels))


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
        if not special_triangle and any(
            lbl < 3 or lbl % 4 != 0 for lbl in cycle_labels
        ):
            raise ValueError("knot labels must be multiples of 4")
        return tuple.__new__(cls, (apex_label, cycle_labels, special_triangle))

    @classmethod
    def _make(cls, iterable: Iterable) -> "CuspGraph":
        # namedtuple's own _make (which _replace calls) skips __new__
        return cls(*iterable)


def cusp_graph(word: CyclicWord) -> CuspGraph:
    """Invariant graph: apex joined to the cycle of knot labels."""
    return _cusp_graph(word, decompose(word))


def _cusp_graph(word: CyclicWord, dec: SubwordDecomposition) -> CuspGraph:
    """cusp_graph(word), given decompose(word)."""
    if dec.kind == ALL_ONES:
        return CuspGraph(word.n, (2 * word.n, 2 * word.n), True)
    return CuspGraph(
        word.n, tuple(4 * (i + 1) for i in dec.i_sequence), False
    )


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


def graphs_isomorphic(g1: CuspGraph, g2: CuspGraph) -> bool:
    """Isomorphism respecting the apex and the special marker.

    For ordinary graphs the label cycles must match up to rotation and
    reflection; the special triangles are determined by the apex alone.
    """
    if g1.special_triangle != g2.special_triangle:
        return False
    if g1.apex_label != g2.apex_label:
        return False
    if g1.special_triangle:
        return sorted(g1.cycle_labels) == sorted(g2.cycle_labels)
    if len(g1.cycle_labels) != len(g2.cycle_labels):
        return False
    return _dihedral_min(g1.cycle_labels) == _dihedral_min(g2.cycle_labels)


def canonical_form(word: CyclicWord) -> CyclicWord:
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
    letters.  The all-ones word is its own canonical form.
    """
    return _canonical_form(word, decompose(word))


def _canonical_form(word: CyclicWord, dec: SubwordDecomposition) -> CyclicWord:
    """canonical_form(word), given decompose(word)."""
    if dec.kind == ALL_ONES:
        return word
    runs = map(b"\x01".__mul__, _dihedral_min(dec.i_sequence))
    return CyclicWord(tuple(b"\x00" + b"\x00".join(runs)))


def _check_word_length(n: int) -> None:
    if not 3 <= n <= MAX_WORD_LENGTH:
        raise ValueError(f"word length must be in 3..{MAX_WORD_LENGTH}")


def enumerate_classes(n: int) -> list[CyclicWord]:
    """Canonical representatives of all length-n words, sorted.

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
    a = [0] * (n + 1)
    out: list[CyclicWord] = []

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
                out.append(CyclicWord(tuple(a[1:])))
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
        if a[t - p] == 0:
            # raising a[t] to 1 makes a[1..t] a Lyndon word of period t;
            # u, r and rs carry over unchanged
            a[t] = 1
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
    word: CyclicWord, first_stage_modulus: int = 1
) -> tuple[tuple[int, int], ...]:
    """Sorted (modulus, area) pairs over all cusps of the member.

    Cusps of modulus m > 2 have maximal horoball area 4*m; the 2n small
    cusps (moduli 1 and 2) have area 2.  Letter circles contribute
    modulus 1 over a one and 2 over a zero; the n first-stage circles
    take the configured modulus.
    """
    return _horoball_areas(word, cusp_graph(word), first_stage_modulus)


def _horoball_areas(
    word: CyclicWord, graph: CuspGraph, first_stage_modulus: int
) -> tuple[tuple[int, int], ...]:
    """horoball_areas(word, first_stage_modulus), given cusp_graph(word)."""
    if first_stage_modulus not in (1, 2):
        raise ValueError("first-stage circle modulus is 1 or 2")
    # the 2n small cusps, all of area 2, sort before the apex and knot
    # cusps, whose moduli are at least 3: they are counted, not sorted
    n = word.n
    ones = word.bits.count(1)
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
