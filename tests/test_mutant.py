"""Cyclic words, cusp graphs, bracelet counts, and the census report."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrigid.mutant import (
    ALL_ONES,
    CYCLE,
    COMPARISON_GROWTH_RATE,
    MAX_CLASS_WORD_LENGTH,
    MAX_WORD_LENGTH,
    CuspGraph,
    CyclicWord,
    SubwordDecomposition,
    _dihedral_min,
    bracelet_count,
    canonical_form,
    census_report,
    cusp_graph,
    decompose,
    enumerate_classes,
    horoball_areas,
)
from volrigid.nzvolume import V_OCT

from mutant_oracles import graphs_isomorphic, knot_cusp_moduli


def dihedral_images(seq: tuple) -> list[tuple]:
    """Every rotation of seq and of its reversal."""
    return [s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(seq))]


def _reverse_bits(w: int, n: int) -> int:
    return int(f"{w:0{n}b}"[::-1], 2)


def _canonical_int(w: int, n: int) -> int:
    """Smallest n-bit value over all rotations and reflections."""
    mask = (1 << n) - 1
    best = w
    for start in (w, _reverse_bits(w, n)):
        x = start
        if x < best:
            best = x
        for _ in range(n - 1):
            x = ((x << 1) & mask) | (x >> (n - 1))
            if x < best:
                best = x
    return best


def scan_classes(n: int) -> list[str]:
    """The class list by brute force: canonicalise all 2**n words, sort."""
    reps = {_canonical_int(w, n) for w in range(1 << n)}
    return [f"{w:0{n}b}" for w in sorted(reps)]


def test_word_validation():
    with pytest.raises(ValueError, match="length at least 3"):
        CyclicWord("01")
    # the letters are checked before the length
    for letters in ("0121", "0a", ["0", "1", "1"], ("0", 0, 1), (2, 0, 1)):
        with pytest.raises(ValueError, match="binary"):
            CyclicWord(letters)
    assert CyclicWord("0101").n == 4
    assert str(CyclicWord("101")) == "101"


def test_decompose_examples():
    d = decompose(CyclicWord("001"))
    assert d.kind == CYCLE
    assert d.i_sequence == (0, 1)
    assert decompose(CyclicWord("111")).kind == ALL_ONES
    assert decompose(CyclicWord("111")).i_sequence == ()
    assert decompose(CyclicWord("00101")).i_sequence == (0, 1, 1)
    assert decompose(CyclicWord("0000")).i_sequence == (0, 0, 0, 0)


def test_decompose_runs_sum_to_length():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(3, 20)
        bits = "".join(rng.choice("01") for _ in range(n))
        word = CyclicWord(bits)
        d = decompose(word)
        if d.kind == ALL_ONES:
            assert "0" not in bits
        else:
            k = len(d.i_sequence)
            assert k == bits.count("0")
            assert k + sum(d.i_sequence) == n


def test_knot_cusp_moduli():
    assert knot_cusp_moduli(CyclicWord("001")) == (4, 8)
    assert knot_cusp_moduli(CyclicWord("111")) == (6, 6)
    assert knot_cusp_moduli(CyclicWord("00101")) == (4, 8, 8)
    assert knot_cusp_moduli(CyclicWord("0000")) == (4, 4, 4, 4)


def test_cusp_graph_shapes():
    g = cusp_graph(CyclicWord("001"))
    assert g.apex_label == 3
    assert g.cycle_labels == (4, 8)
    assert not g.special_triangle
    special = cusp_graph(CyclicWord("1111"))
    assert special.special_triangle
    assert special.apex_label == 4
    assert special.cycle_labels == (8, 8)


def test_canonical_form_is_class_invariant():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randrange(3, 16)
        bits = [rng.choice("01") for _ in range(n)]
        word = CyclicWord("".join(bits))
        rot = rng.randrange(n)
        rotated = CyclicWord("".join(bits[rot:] + bits[:rot]))
        reflected = CyclicWord("".join(reversed(bits)))
        canon = canonical_form(word)
        assert canonical_form(rotated) == canon
        assert canonical_form(reflected) == canon
        assert canonical_form(canon) == canon


_BITS = st.sampled_from("01")
# random words, and words made of one short block repeated, where many
# rotations tie
_WORDS = st.one_of(
    st.text(_BITS, min_size=3, max_size=200),
    st.builds(
        lambda block, reps: block * reps,
        st.text(_BITS, min_size=1, max_size=8),
        st.integers(1, 40),
    ).filter(lambda bits: len(bits) >= 3),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(bits=_WORDS)
def test_canonical_form_is_dihedral_minimum(bits):
    assert canonical_form(CyclicWord(bits)).letters == min(dihedral_images(bits))


def canonical_by_letters(word: CyclicWord) -> CyclicWord:
    """canonical_form as it was: Booth over the letters.  Oracle."""
    return CyclicWord(_dihedral_min(word.letters))


def decompose_by_zeros(word: CyclicWord) -> SubwordDecomposition:
    """decompose as it was: the gaps between the zeros' positions.  Oracle."""
    zeros = [i for i, b in enumerate(word.letters) if b == "0"]
    if not zeros:
        return SubwordDecomposition(ALL_ONES, ())
    n = word.n
    return SubwordDecomposition(CYCLE, tuple(
        (zeros[(j + 1) % len(zeros)] - zeros[j] - 1) % n for j in range(len(zeros))
    ))


def areas_by_sorting(word: CyclicWord, first_stage_modulus: int) -> tuple:
    """horoball_areas as it was: all 2n + k + 1 pairs, sorted.  Oracle."""
    cusps = [(m, 4 * m) for m in (word.n, *cusp_graph(word).cycle_labels)]
    cusps += [(1 if b == "1" else 2, 2) for b in word.letters]
    cusps += [(first_stage_modulus, 2)] * word.n
    return tuple(sorted(cusps))


def assert_run_paths_match_oracles(word: CyclicWord) -> None:
    assert canonical_form(word) == canonical_by_letters(word), word
    assert decompose(word) == decompose_by_zeros(word), word
    for modulus in (1, 2):
        assert horoball_areas(word, modulus) == areas_by_sorting(word, modulus), word
    assert CyclicWord(str(word)) == word


def test_run_paths_match_oracles_on_every_short_word():
    for n in range(3, 15):
        for w in range(1 << n):
            assert_run_paths_match_oracles(CyclicWord(f"{w:0{n}b}"))


def _seeded_word(n: int, seed: int, density: float) -> str:
    rng = random.Random(seed)
    return "".join("01"[rng.random() < density] for _ in range(n))


# long words of any density, long periodic words, the all-ones word and
# words with a single zero
_LONG_WORDS = st.one_of(
    st.builds(_seeded_word, st.integers(3, 3000), st.integers(0, 2**32), st.floats(0, 1)),
    st.builds(
        lambda block, reps: block * reps,
        st.text(_BITS, min_size=1, max_size=12),
        st.integers(1, 300),
    ).filter(lambda bits: len(bits) >= 3),
    st.integers(3, 3000).map(lambda n: "1" * n),
    st.tuples(st.integers(3, 3000), st.integers(0, 2999)).map(
        lambda nk: "".join("01"[i != nk[1] % nk[0]] for i in range(nk[0]))
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bits=_LONG_WORDS)
def test_run_paths_match_oracles_on_long_words(bits):
    assert_run_paths_match_oracles(CyclicWord(bits))


def test_canonical_form_orders_by_runs():
    # read from its first zero, 0110111010 has runs (2, 3, 1, 0); the
    # least rotation of those and of their reversal (0, 1, 3, 2) is
    # (0, 1, 3, 2), the word 0 0 1 0 111 0 11
    assert decompose(CyclicWord("0110111010")).i_sequence == (2, 3, 1, 0)
    assert str(canonical_form(CyclicWord("0110111010"))) == "0010111011"
    # one zero: the word is 0 1^(n-1) read from its zero
    assert str(canonical_form(CyclicWord("11011"))) == "01111"
    assert str(canonical_form(CyclicWord("11111"))) == "11111"


def test_enumerate_classes_small():
    assert enumerate_classes(4) == [
        "0000",
        "0001",
        "0011",
        "0101",
        "0111",
        "1111",
    ]


def test_enumerate_classes_word_length_range():
    with pytest.raises(ValueError, match=f"must be in 3..{MAX_WORD_LENGTH}"):
        enumerate_classes(2)
    # refused up front: the list at n = 30 would hold 17920860 classes
    refusal = f"refused above word length {MAX_CLASS_WORD_LENGTH}"
    for n in (MAX_CLASS_WORD_LENGTH + 1, MAX_WORD_LENGTH):
        with pytest.raises(ValueError, match=refusal):
            enumerate_classes(n)
    assert MAX_CLASS_WORD_LENGTH < MAX_WORD_LENGTH


def test_bracelet_count_oracle():
    # direct orbit count over the dihedral group
    for n in range(3, 13):
        assert bracelet_count(n) == len(scan_classes(n)), n


def test_bracelet_count_pinned():
    assert [bracelet_count(n) for n in (3, 4, 5, 6, 10)] == [4, 6, 8, 13, 78]


@pytest.mark.parametrize("n", range(3, 17))
def test_generator_matches_scan(n):
    # every n of the range, not a sample: the domain is this small
    assert enumerate_classes(n) == scan_classes(n)


def test_class_count_matches_bracelet_count():
    for n in range(3, 15):
        assert len(enumerate_classes(n)) == bracelet_count(n), n


def test_cusp_graph_biconditional_exhaustive():
    # equivalent words have isomorphic labelled graphs, and distinct
    # classes are separated by their graphs, for every length up to 9
    for n in range(3, 10):
        classes = enumerate_classes(n)
        graphs = [cusp_graph(CyclicWord(w)) for w in classes]
        for i, gi in enumerate(graphs):
            for j, gj in enumerate(graphs):
                assert graphs_isomorphic(gi, gj) == (i == j), (n, i, j)


def test_cusp_graph_respects_dihedral_moves():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(3, 18)
        bits = [rng.choice("01") for _ in range(n)]
        word = CyclicWord("".join(bits))
        rot = rng.randrange(n)
        other = CyclicWord("".join(bits[rot:] + bits[:rot]))
        if rng.random() < 0.5:
            other = CyclicWord(str(other)[::-1])
        assert graphs_isomorphic(cusp_graph(word), cusp_graph(other))


_LABELS = st.lists(st.sampled_from((4, 8, 12, 16)), min_size=1, max_size=30)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    labels=_LABELS,
    other=_LABELS,
    use_image=st.booleans(),
    reflect=st.booleans(),
    shift=st.integers(0, 29),
)
def test_graphs_isomorphic_matches_dihedral_matching(
    labels, other, use_image, reflect, shift
):
    labels = tuple(labels)
    if use_image:
        # a rotation, maybe reflected, of the first cycle
        seq = labels[::-1] if reflect else labels
        shift %= len(seq)
        other = seq[shift:] + seq[:shift]
    other = tuple(other)
    expected = other in dihedral_images(labels)
    g1, g2 = CuspGraph(7, labels, False), CuspGraph(7, other, False)
    assert graphs_isomorphic(g1, g2) == expected
    assert graphs_isomorphic(g2, g1) == expected


def test_horoball_areas_001():
    areas = horoball_areas(CyclicWord("001"))
    assert areas == (
        (1, 2), (1, 2), (1, 2), (1, 2), (2, 2), (2, 2), (3, 12), (4, 16), (8, 32),
    )


def test_horoball_areas_modulus_rule():
    for bits in ("0101", "0011", "11111"):
        word = CyclicWord(bits)
        for modulus, area in horoball_areas(word):
            assert area == (4 * modulus if modulus > 2 else 2), (bits, modulus)


def test_horoball_areas_first_stage_modulus_config():
    ones = sum(1 for ch in "00101" if ch == "1")
    default = horoball_areas(CyclicWord("00101"))
    doubled = horoball_areas(CyclicWord("00101"), first_stage_modulus=2)
    assert len(default) == len(doubled)
    assert sum(1 for m, _ in default if m == 1) >= 5  # n first-stage + letter 1s
    assert ones == 2


def test_census_report_n3():
    report = census_report(3)
    assert report.n == 3
    assert report.class_count == 4
    assert report.volume == pytest.approx(4 * 3 * V_OCT, rel=1e-15)
    assert report.lower_bound == Fraction(2**3, 2 * 3)
    assert report.comparison_constant == COMPARISON_GROWTH_RATE
    assert report.asymptotic_constant == pytest.approx(
        math.log(2) / (4 * V_OCT), rel=1e-12
    )


def test_census_report_word_length_range():
    for n in (2, MAX_WORD_LENGTH + 1):
        with pytest.raises(ValueError, match=f"word length must be in 3..{MAX_WORD_LENGTH}"):
            census_report(n)
    assert census_report(MAX_WORD_LENGTH).class_count == bracelet_count(MAX_WORD_LENGTH)


def test_census_growth_constant_value():
    report = census_report(8)
    assert abs(report.asymptotic_constant - 0.0472962) < 1e-6
    assert report.asymptotic_constant > report.comparison_constant


def test_census_lower_bound_below_class_count():
    for n in range(3, 15):
        report = census_report(n)
        assert report.lower_bound <= report.class_count
