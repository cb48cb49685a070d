"""Output checkers that recompute each claim apart from the program.

Every checker takes an operation (``workloads.Op``) and the text the CLI
printed for it, and raises ``CheckError`` naming the first claim that
does not hold.  None of them imports ``volrigid``: primality, CRT and
factorization come from sympy, and value enumerations, canonical words
and cluster truths are the benchmark's own.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

from sympy import divisors, factorint, isprime, totient
from sympy.ntheory.modular import crt

import workloads

# Volume of the regular ideal octahedron (closed form 8*Lobachevsky(pi/4)).
V_OCT = 3.663862376708876
COMPARISON_GROWTH_RATE = 0.0287706
DEFAULT_C2 = 7.05
REGIME_Q_MIN = 57.5041
REL_TOL = 1e-10  # the CLI prints floats at 12 significant digits

FAMILY_TAGS = {"m004": "m004-family", "m125": "m125-family"}

# name: (integer carrier form, scale, order of the induced symmetry group)
CUSPS = {
    "m003": ((4, 4, 4), 2 * math.sqrt(3), 4),
    "m004": ((1, 0, 12), 2 * math.sqrt(3), 4),
    "m125": ((2, 0, 2), 2.0, 4),
    "m129": ((1, 0, 4), 2.0, 2),
}


class CheckError(AssertionError):
    """An output claim that the independent recomputation refutes."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _close(x: float, y: float, what: str) -> None:
    _expect(math.isclose(x, y, rel_tol=REL_TOL, abs_tol=1e-300), f"{what}: {x} != {y}")


# ---------------------------------------------------------------------------
# prime-seq


def _eisenstein_primitive(n: int) -> bool:
    """n = x^2+xy+y^2 with gcd(x, y) = 1: no prime factor 2 mod 3, 9 does not divide n."""
    return n >= 1 and n % 9 != 0 and all(p % 3 != 2 for p in factorint(n))


def _gaussian_primitive(n: int) -> bool:
    """n = x^2+y^2 with gcd(x, y) = 1: no prime factor 3 mod 4, 4 does not divide n."""
    return n >= 1 and n % 4 != 0 and all(p % 4 != 3 for p in factorint(n))


def _is_witness(family: str, g: int, value: int) -> bool:
    """The three gap conditions, decided by class-number-one criteria.

    m004: v = p prime, p = 1 mod 12, so x^2+12y^2 = p has exactly the
    four sign-related solutions and 4(x^2+xy+y^2) misses odd p; no
    neighbour v +- k (k <= g) is primitive for x^2+xy+y^2.
    m125: v = 2p, p prime, p = 1 mod 4, so x^2+y^2 = p has one solution
    up to signs and swap and x^2+4y^2 misses 2 mod 4; no neighbour is
    primitive for x^2+y^2.
    """
    if family == "m004":
        if not (value % 12 == 1 and isprime(value)):
            return False
        hit = _eisenstein_primitive
    else:
        if not (value % 2 == 0 and (value // 2) % 4 == 1 and isprime(value // 2)):
            return False
        hit = _gaussian_primitive
    return not any(hit(value + s * k) for k in range(1, g + 1) for s in (-1, 1))


def check_prime_seq(op, text: str) -> None:
    m = op.meta
    family, g, avoid, count = m["family"], m["g"], m["avoid"], m["count"]
    out = json.loads(text)
    _expect(out["family"] == FAMILY_TAGS[family], "family echoed")
    _expect(out["g"] == g and out["avoid_primes"] == list(avoid), "spec echoed")
    _expect(out["cap"] == m["cap"], "cap echoed")
    system = workloads.congruences(family, g, avoid)
    residue, modulus = crt([q for _, q in system], [r for r, _ in system])
    _expect((out["residue"], out["modulus"]) == (int(residue), int(modulus)),
            f"CRT solution {(out['residue'], out['modulus'])} != {(residue, modulus)}")
    _expect(out["truncated"] is False, "search reported truncation below its cap")

    # Rescan the progression: the witnesses must be exactly the first
    # `count` terms that pass the gap conditions, none skipped.
    expected = []
    n = int(residue)
    while len(expected) < count:
        value = 2 * n if family == "m125" else n
        _expect(value <= m["cap"], "rescan passed the cap")
        if _is_witness(family, g, value):
            expected.append(value)
        n += int(modulus)
    values = [w["value"] for w in out["witnesses"]]
    _expect(values == expected, f"witnesses {values[:5]}.. != first {count} {expected[:5]}..")

    a, b, c = (1, 0, 12) if family == "m004" else (2, 0, 2)
    for w in out["witnesses"]:
        x, y = w["representation"]
        _expect(a * x * x + b * x * y + c * y * y == w["value"],
                f"representation {x, y} does not give {w['value']}")
        _expect(math.gcd(x, y) == 1 and x >= 0 and y >= 0, "representation not canonical")
        if family == "m125":
            _expect(x <= y, "swap class not reduced to x <= y")
        _expect(w["gap"] == g and w["verified"] is True, "witness not verified at g")
        _expect(w["conditions"] == {
            "unique_representation": True,
            "neighbors_unrepresented": True,
            "excluded_form_missed": True,
        }, "condition report")


# ---------------------------------------------------------------------------
# certify and qf gap


def primitive_value_counts(form, lo: int, hi: int) -> Counter:
    """Primitive representation counts of every value in [lo, hi].

    Walks x (the program walks y) and, for each x, the y interval of the
    ellipse Q <= hi.
    """
    a, b, c = form
    d = b * b - 4 * a * c
    counts: Counter = Counter()
    xmax = math.isqrt(4 * c * hi // -d) + 1
    for x in range(-xmax, xmax + 1):
        disc = d * x * x + 4 * c * hi
        if disc < 0:
            continue
        s = math.isqrt(disc)
        for y in range((-b * x - s) // (2 * c) - 1, (-b * x + s) // (2 * c) + 2):
            v = a * x * x + b * x * y + c * y * y
            if lo <= v <= hi and math.gcd(x, y) == 1:
                counts[v] += 1
    return counts


def _check_gap(form, q0: int, limit: int, gap: int) -> Counter:
    """gap = min(limit - q0, distance to the nearest other primitive value <= limit)."""
    _expect(1 <= gap <= limit - q0, f"gap {gap} outside 1..{limit - q0}")
    counts = primitive_value_counts(form, max(1, q0 - gap), min(limit, q0 + gap))
    _expect(counts[q0] > 0, f"{q0} not primitively represented")
    inside = [v for v in counts if v != q0 and abs(v - q0) < gap]
    _expect(not inside, f"primitive value {inside[:1]} inside gap {gap} of {q0}")
    at_edge = [v for v in counts if v != q0 and abs(v - q0) == gap]
    _expect(gap == limit - q0 or at_edge, f"no primitive value at distance {gap}")
    return counts


def check_certify(op, text: str) -> None:
    m = op.meta
    form, scale, order = CUSPS[m["manifold"]]
    a0, b0 = m["filling"]
    out = json.loads(text)
    _expect(out["manifold"] == m["manifold"] and out["filling"] == [a0, b0], "filling echoed")
    q0 = workloads.evaluate(form, a0, b0)
    _close(out["q0_normalized"], q0 / scale, "q0_normalized")
    gap = round(out["gap_normalized"] * scale)
    _close(out["gap_normalized"], gap / scale, "gap_normalized is not integer/scale")
    counts = _check_gap(form, q0, m["limit"], gap)
    _expect(out["n_q0"] == counts[q0], f"n_q0 {out['n_q0']} != {counts[q0]}")
    _expect(out["symmetry_order"] == order, "symmetry order")
    _expect(Fraction(out["bound"]) * out["symmetry_order"] == out["n_q0"],
            "bound * symmetry_order != n_q0")
    _expect(out["c2"] == DEFAULT_C2, "c2 echoed")
    _expect(out["valid"] == (gap / scale > 2 * DEFAULT_C2), "valid flag")
    _expect(out["regime_verified"] == (q0 / scale >= REGIME_Q_MIN), "regime flag")


def check_qf_gap(op, text: str) -> None:
    m = op.meta
    out = json.loads(text)
    _expect(out["form"] == ",".join(map(str, m["form"])), "form echoed")
    _expect(out["q0"] == m["q0"] and out["limit"] == m["limit"], "q0/limit echoed")
    _check_gap(m["form"], m["q0"], m["limit"], out["gap"])


# ---------------------------------------------------------------------------
# mutant


def burnside_bracelets(n: int) -> int:
    """Binary bracelets of length n: orbits of the dihedral group D_n."""
    rotations = sum(totient(d) * 2 ** (n // d) for d in divisors(n))
    if n % 2:
        reflections = n * 2 ** ((n + 1) // 2)
    else:
        reflections = (n // 2) * (2 ** (n // 2 + 1) + 2 ** (n // 2))
    total = rotations + reflections
    _expect(total % (2 * n) == 0, "Burnside sum not divisible by |D_n|")
    return int(total // (2 * n))


def canonical_word(word: str) -> str:
    """Least rotation of the word or of its reversal."""
    doubled, rdoubled = word + word, word[::-1] * 2
    n = len(word)
    return min(min(doubled[i:i + n], rdoubled[i:i + n]) for i in range(n))


def check_mutant_classes(op, text: str) -> None:
    n = op.meta["n"]
    out = json.loads(text)
    classes = out["classes"]
    expected = burnside_bracelets(n)
    _expect(out["n"] == n, "n echoed")
    _expect(out["count"] == len(classes) == expected,
            f"count {out['count']} / {len(classes)} listed != Burnside {expected}")
    for prev, word in zip([""] + classes, classes):
        _expect(len(word) == n and set(word) <= {"0", "1"}, f"{word!r} is not a length-{n} word")
        _expect(word > prev, f"classes not strictly ascending at {word}")
        _expect(canonical_word(word) == word, f"{word} is not canonical")


def check_mutant_census(op, text: str) -> None:
    n = op.meta["n"]
    out = json.loads(text)
    count = burnside_bracelets(n)
    volume = 4 * n * V_OCT
    _expect(out["n"] == n, "n echoed")
    _expect(out["class_count"] == count and out["bracelet_count"] == count,
            f"class counts {out['class_count']}, {out['bracelet_count']} != {count}")
    _expect(Fraction(out["lower_bound"]) == Fraction(2**n, 2 * n), "lower bound")
    _close(out["volume"], volume, "volume")
    _close(out["log_growth"], math.log(count) / volume, "log growth")
    _close(out["asymptotic_constant"], math.log(2) / (4 * V_OCT), "asymptotic constant")
    _expect(out["comparison_constant"] == COMPARISON_GROWTH_RATE, "comparison constant")


def check_mutant_graph(op, text: str) -> None:
    word, modulus = op.meta["word"], op.meta["modulus"]
    n = len(word)
    out = json.loads(text)
    zeros = [i for i, ch in enumerate(word) if ch == "0"]
    if zeros:
        runs = [(zeros[(j + 1) % len(zeros)] - z - 1) % n for j, z in enumerate(zeros)]
        kind, labels = "cycle", [4 * (r + 1) for r in runs]
        knots = [(4 * (r + 1), 16 * (r + 1)) for r in runs]
    else:
        runs, kind, labels = [], "all-ones", [2 * n, 2 * n]
        knots = [(2 * n, 8 * n)] * 2
    cusps = [(n, 4 * n)] + knots
    cusps += [(1 if ch == "1" else 2, 2) for ch in word] + [(modulus, 2)] * n
    _expect(out["word"] == word, "word echoed")
    _expect(out["canonical"] == canonical_word(word), "canonical form")
    _expect(out["kind"] == kind and out["i_sequence"] == runs, "subword decomposition")
    _expect(out["knot_moduli"] == sorted(labels), "knot moduli")
    _expect(out["apex_label"] == n and out["cycle_labels"] == labels, "cusp graph labels")
    _expect(out["special_triangle"] is (not zeros), "special triangle marker")
    _expect(out["horoball_areas"] == [list(c) for c in sorted(cusps)], "horoball areas")


# ---------------------------------------------------------------------------
# census hist


def check_census_hist(op, text: str) -> None:
    _, planted = workloads.census_table(op.meta)
    expected = sorted(
        (sorted(members, key=lambda r: (r[1], r[0])) for members in planted),
        key=lambda ms: (ms[0][1], ms[0][0]),
    )
    out = json.loads(text)
    _expect(len(out) == len(expected), f"{len(out)} clusters != {len(expected)} planted")
    for got, members in zip(out, expected):
        names = [name for name, _ in members]
        _expect(got["names"] == names and got["count"] == len(names),
                f"cluster {got['names'][:3]} != planted {names[:3]}")
        _close(got["volume"], members[0][1], "cluster volume")


CHECKERS = {
    "prime-seq": check_prime_seq,
    "certify": check_certify,
    "qf-gap": check_qf_gap,
    "mutant-classes": check_mutant_classes,
    "mutant-census": check_mutant_census,
    "mutant-graph": check_mutant_graph,
    "census-hist": check_census_hist,
}


def check(op, text: str) -> None:
    """Raise CheckError unless `text` is a correct output for `op`."""
    try:
        CHECKERS[op.kind](op, text)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
