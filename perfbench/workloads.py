"""Seeded operation lists for the benchmark's three workloads.

Each operation is the argv of one ``volrigid`` CLI call plus what its
checker needs.  Sizes come from stratified log-uniform draws: a size
range is cut into as many equal log-width strata as there are operations
of one kind, and each operation draws its size uniformly (in log) inside
its own stratum.  The seed moves every input, yet the spread of sizes,
and so the cost of a round and its median and tail, barely moves with
it; a plain log-uniform draw of 60 sizes moves the round's cost by tens
of percent from one seed to the next.

Nothing here imports ``volrigid``: the generators derive their inputs
from the paper's constructions with their own arithmetic.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("search", "certify", "census")

# Far above every witness the search ops ask for (the largest is ~1e11),
# so no search stops at its cap.
SEARCH_CAP = 10**15


@dataclass(frozen=True)
class Op:
    """One CLI call: its kind (for the checker), argv and checker inputs."""

    kind: str
    argv: tuple[str, ...]
    size: float
    meta: dict = field(default_factory=dict, compare=False)


def _rng(seed: int, *tag: object) -> random.Random:
    # String seeds are hashed with SHA-512, so this is stable across
    # interpreter runs whatever PYTHONHASHSEED says.
    return random.Random(":".join(str(t) for t in (seed, *tag)))


def stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One log-uniform draw from the central half of each of `count`
    equal log-width strata, so neighbouring strata never trade places."""
    width = math.log(hi / lo) / count
    return [
        lo * math.exp(width * (i + 0.25 + 0.5 * rng.random())) for i in range(count)
    ]


# ---------------------------------------------------------------------------
# arithmetic of the benchmark's own (independent of the program)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3e23)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# search: prime-seq for both families, g = 1..3

# Per family: residue class of the avoid primes, the base congruence on
# the prime p, whether the witness value is 2p, and the ellipse rows the
# brute-force verifier walks per unit sqrt(value) at half-width g
# (carrier form, 2g neighbours on the gap form, excluded form).
FAMILIES = {
    "m004": {
        "avoid_class": (5, 6),
        "base": (1, 12),
        "double": False,
        "rows": lambda g: 2 * (1 / math.sqrt(12) + 2 * g * math.sqrt(4 / 3) + 1 / math.sqrt(3)),
    },
    "m125": {
        "avoid_class": (3, 4),
        "base": (1, 4),
        "double": True,
        "rows": lambda g: 2 * (1 / math.sqrt(2) + 2 * g + 0.5),
    },
}

# One ladder of ellipse-row sizes for the whole round; each stratum goes to
# one (family, g) by a fixed rule, so the seed moves sizes and inputs but
# not which kinds sit at the round's median or tail.  Each (family, g) is
# eligible from the size its smallest progressions need: m004 at g = 3
# starts near 6e5 rows (about 0.15 s), its smallest modulus being 3e8.
# g = 4 stays out: one search takes ~28 s.
SEARCH_OPS = 60
SEARCH_ROWS = (4e3, 2.5e6)
SEARCH_KINDS = (  # (family, g, smallest rows, size of the avoid-prime pool)
    ("m004", 1, 3e3, 8),
    ("m125", 1, 3e3, 8),
    ("m125", 2, 1.5e4, 7),
    ("m004", 2, 3e4, 7),
    ("m125", 3, 1.6e5, 7),
    ("m004", 3, 6e5, 7),
)

_SIZE_TOLERANCE = 0.03
_SEARCH_TRIES = 60


def avoid_pool(family: str, size: int) -> list[int]:
    res, mod = FAMILIES[family]["avoid_class"]
    out, p = [], 2
    while len(out) < size:
        if p % mod == res and is_prime(p):
            out.append(p)
        p += 1
    return out


def congruences(family: str, g: int, avoid: tuple[int, ...]) -> list[tuple[int, int]]:
    """The congruences on the prime p that make v -+ k pick up avoid primes.

    Value v = p (m004) or 2p (m125); the k-th minus shift is divisible by
    avoid[k-1], the k-th plus shift by avoid[g+k-1].
    """
    fam = FAMILIES[family]
    out = []
    for k in range(1, g + 1):
        for q, shift in ((avoid[k - 1], k), (avoid[g + k - 1], -k)):
            if fam["double"]:
                out.append((shift * pow(2, -1, q) % q, q))
            else:
                out.append((shift % q, q))
    out.append(fam["base"])
    return out


def crt(system: list[tuple[int, int]]) -> tuple[int, int]:
    n0, modulus = 0, 1
    for r, m in system:
        n0 += modulus * ((r - n0) * pow(modulus, -1, m) % m)
        modulus *= m
    return n0 % modulus, modulus


def witness_rows(family: str, g: int, value: int) -> float:
    return FAMILIES[family]["rows"](g) * math.sqrt(value)


def _fit_count(family: str, g: int, avoid: tuple[int, ...], target: float):
    """Witness count whose cumulative verifier rows come closest to target."""
    n0, modulus = crt(congruences(family, g, avoid))
    if math.gcd(n0, modulus) > 1:
        # An avoid prime divides its own shift (3 at shift 3): the
        # progression holds no primes and the search would run to its cap.
        return None
    double = FAMILIES[family]["double"]
    best = None
    rows, count, n = 0.0, 0, n0
    while rows <= target * (1 + _SIZE_TOLERANCE):
        if is_prime(n):
            rows += witness_rows(family, g, 2 * n if double else n)
            count += 1
            err = abs(rows / target - 1)
            if best is None or err < best[0]:
                best = (err, count, rows)
        n += modulus
    return best


def search_ops(seed: int) -> list[Op]:
    rng = _rng(seed, "search")
    ops = []
    for k, target in enumerate(stratified(rng, SEARCH_OPS, *SEARCH_ROWS)):
        eligible = [kind for kind in SEARCH_KINDS if kind[2] <= target]
        family, g, _, pool_size = eligible[k % len(eligible)]
        pool = avoid_pool(family, pool_size)
        best = None
        for _ in range(_SEARCH_TRIES):
            avoid = tuple(rng.sample(pool, 2 * g))
            fit = _fit_count(family, g, avoid, target)
            if fit is not None and (best is None or fit[0] < best[0][0]):
                best = (fit, avoid)
            if best is not None and best[0][0] <= _SIZE_TOLERANCE:
                break
        (_, count, rows), avoid = best
        argv = (
            "prime-seq", "--family", family, "-g", str(g),
            "--count", str(count), "--avoid", ",".join(map(str, avoid)),
            "--cap", str(SEARCH_CAP),
        )
        ops.append(Op("prime-seq", argv, rows, {
            "family": family, "g": g, "avoid": avoid,
            "count": count, "cap": SEARCH_CAP,
        }))
    return ops


# ---------------------------------------------------------------------------
# certify: certificates on the four built-in cusps, plus qf gap

# Carrier forms of the built-in cusps (the paper's cusp lattices).
CUSP_FORMS = {
    "m003": (4, 4, 4),
    "m004": (1, 0, 12),
    "m125": (2, 0, 2),
    "m129": (1, 0, 4),
}

GAP_FORMS = (
    (1, 1, 1), (1, 0, 1), (1, 1, 2), (1, 0, 2), (1, 0, 3), (1, 1, 5),
    (2, 2, 3), (2, 1, 3), (2, 0, 3), (1, 0, 12), (3, 2, 5), (2, 1, 4),
)

# Lattice points inside the scan ellipse Q <= limit: 2*pi*limit/sqrt(|D|).
# This range puts the scan limits between ~1e4 and ~1e6 on the cusp forms.
# One ladder for the round; stratum k goes to CERTIFY_KINDS[k % 5], and
# the k-th qf gap call to GAP_FORMS[k].
CERTIFY_OPS = 60
CERTIFY_POINTS = (1.5e4, 9e5)
CERTIFY_KINDS = ("m004", "m125", "qf-gap", "m003", "m129")


def _disc(form: tuple[int, int, int]) -> int:
    a, b, c = form
    return b * b - 4 * a * c


def evaluate(form: tuple[int, int, int], x: int, y: int) -> int:
    a, b, c = form
    return a * x * x + b * x * y + c * y * y


def _limit_for(form: tuple[int, int, int], points: float) -> int:
    return round(points * math.sqrt(-_disc(form)) / (2 * math.pi))


def _coprime_point(rng: random.Random, form, bound: int) -> tuple[int, int]:
    """A coprime pair (x, y), x, y >= 1, with Q(x, y) <= bound."""
    a, b, c = form
    side = max(1, math.isqrt(bound // (a + abs(b) + c)))
    while True:
        x, y = rng.randint(1, side), rng.randint(1, side)
        if math.gcd(x, y) == 1 and evaluate(form, x, y) <= bound:
            return x, y


def certify_ops(seed: int) -> list[Op]:
    rng = _rng(seed, "certify")
    ops = []
    for k, points in enumerate(stratified(rng, CERTIFY_OPS, *CERTIFY_POINTS)):
        kind = CERTIFY_KINDS[k % len(CERTIFY_KINDS)]
        if kind == "qf-gap":
            # By stratum, not by seed: the distinct values a scan keeps
            # grow with |D| at equal points, and the largest scan sets the
            # run's peak memory.
            form = GAP_FORMS[k // len(CERTIFY_KINDS) % len(GAP_FORMS)]
            limit = _limit_for(form, points)
            q0 = evaluate(form, *_coprime_point(rng, form, limit // 40))
            argv = (
                "qf", "gap", "--form", ",".join(map(str, form)),
                "--q0", str(q0), "--limit", str(limit),
            )
            ops.append(Op("qf-gap", argv, points, {
                "form": form, "q0": q0, "limit": limit,
            }))
            continue
        form = CUSP_FORMS[kind]
        limit = _limit_for(form, points)
        a, b = _coprime_point(rng, form, limit // 40)
        argv = (
            "certify", "--manifold", kind, "-a", str(a), "-b", str(b),
            "--scan-limit", str(limit),
        )
        ops.append(Op("certify", argv, points, {
            "manifold": kind, "filling": (a, b), "limit": limit,
        }))
    return ops


# ---------------------------------------------------------------------------
# census: mutant classes / census ladders, mutant graph, census hist

# Enumeration cost doubles with each step of n, so the lengths are a fixed
# ladder: a seeded n would make a round's cost depend on the seed.  n = 18
# (about 2 s per call) would make one round too long for the run length.
CLASSES_N = tuple(range(10, 18))
CENSUS_N = tuple(range(10, 17))
GRAPH_OPS = 33
GRAPH_LENGTH = (6, 3000)
HIST_OPS = 12
HIST_ROWS = (1e3, 3e4)
HIST_EPSILON = (1e-7, 1e-5)


def census_ops(seed: int, workdir: str) -> list[Op]:
    ops = []
    for n in CLASSES_N:
        ops.append(Op("mutant-classes", ("mutant", "classes", "-n", str(n)),
                      2.0**n, {"n": n}))
    for n in CENSUS_N:
        ops.append(Op("mutant-census", ("mutant", "census", "-n", str(n)),
                      2.0**n, {"n": n}))
    rng = _rng(seed, "census", "graph")
    for length in stratified(rng, GRAPH_OPS, *GRAPH_LENGTH):
        n = round(length)
        density = rng.uniform(0.3, 0.9)
        word = "".join("1" if rng.random() < density else "0" for _ in range(n))
        modulus = rng.choice((1, 2))
        argv = ("mutant", "graph", "--word", word,
                "--first-stage-modulus", str(modulus))
        ops.append(Op("mutant-graph", argv, n, {"word": word, "modulus": modulus}))
    rng = _rng(seed, "census", "hist")
    for i, rows in enumerate(stratified(rng, HIST_OPS, *HIST_ROWS)):
        table = {
            "seed": seed, "index": i, "rows": round(rows),
            "epsilon": math.exp(rng.uniform(*map(math.log, HIST_EPSILON))),
        }
        path = os.path.join(workdir, f"census-{i}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(census_table(table)[0])
        argv = ("census", "hist", path, "--epsilon", repr(table["epsilon"]))
        ops.append(Op("census-hist", argv, table["rows"], table))
    return ops


def census_table(table: dict) -> tuple[str, list[list[tuple[str, float]]]]:
    """CSV text of a volume table and its planted clusters.

    About a third of the records sit in planted clusters of 2..6 names
    whose consecutive volumes differ by at most epsilon / 5; cluster
    starts are at least 50 epsilon apart, so chaining at epsilon must
    return exactly the planted clusters.  Pure function of `table`, so
    the checker rebuilds the truth instead of storing it.
    """
    rng = _rng(table["seed"], "table", table["index"])
    eps = table["epsilon"]
    sizes = []
    remaining = table["rows"]
    while remaining > 0:
        size = rng.randint(2, 6) if rng.random() < 0.1 else 1
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    starts = sorted(rng.uniform(0.9, 40.0) for _ in sizes)
    for i in range(1, len(starts)):
        starts[i] = max(starts[i], starts[i - 1] + 50 * eps)
    prefixes = ("L", "K", "m", "s", "v", "t")
    clusters = []
    serial = 0
    for start, size in zip(starts, sizes):
        volume = start
        members = []
        for _ in range(size):
            serial += 1
            name = f"{rng.choice(prefixes)}{serial:06d}{rng.choice('abcdefgh')}"
            members.append((name, volume))
            volume += rng.uniform(0.0, eps / 5)
        clusters.append(members)
    records = [rec for members in clusters for rec in members]
    rng.shuffle(records)
    lines = ["name,volume"] if rng.random() < 0.5 else []
    lines.append(f"# seeded volume table, {table['rows']} rows")
    for i, (name, volume) in enumerate(records):
        if i % 997 == 0:
            lines.append("")
        lines.append(f"{name},{volume!r}")
    return "\n".join(lines) + "\n", clusters


def make_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """The workload's round of operations, in a seeded order."""
    if workload == "search":
        ops = search_ops(seed)
    elif workload == "certify":
        ops = certify_ops(seed)
    elif workload == "census":
        ops = census_ops(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _rng(seed, workload, "order").shuffle(ops)
    return ops
