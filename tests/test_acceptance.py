"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion runs at its stated tolerance and must finish inside its
runtime budget; the budget is asserted, not just wished for.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

from volrigid.arith import factorize
from volrigid.census import cluster_volumes, parse_census
from volrigid.cli import run as cli_run
from volrigid.cusplattice import builtin_record
from volrigid.mutant import CyclicWord, bracelet_count, cusp_graph, enumerate_classes
from volrigid.nzvolume import (
    DEFAULT_C2,
    REGIME_Q_MIN,
    V_FIG8,
    V_OCT,
    builtin_series,
    certify_unique_volume,
    delta_v_explicit,
    delta_v_generic,
    delta_v_polar,
    lower_bound_holds,
    m125_asymmetry,
    series_names,
    wl_taylor_coefficients,
)
from volrigid.primeseq import (
    FAMILY_M004,
    FAMILY_M125,
    GapPrimeSpec,
    build_congruences,
    crt_solve,
    gap_prime_sequence,
    verify_witness,
)
from volrigid.quadform import IntQuadForm, primitive_value_set, representations

from mutant_oracles import graphs_isomorphic

DATA = Path(__file__).parent / "data"
SWEEP_LIMIT = 10**5


def _criterion(number: int, description: str, budget: float, body: Callable[[], None]) -> None:
    start = time.perf_counter()
    try:
        body()
    except AssertionError:
        print(f"criterion {number:2d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS {description} ({elapsed:.2f}s / {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


def test_criterion_01_constants():
    def body() -> None:
        assert abs(V_OCT - 3.663862) < 1e-6
        assert abs(V_FIG8 - 2.029883) < 1e-6

    _criterion(1, "octahedron and figure-eight volume constants", 1.0, body)


def test_criterion_02_unique_representation_sweep():
    def body() -> None:
        form = IntQuadForm(1, 0, 12)
        primes = [p for p in _sieve(SWEEP_LIMIT) if p % 12 == 1]
        assert len(primes) > 2000
        for p in primes:
            positive = [
                r for r in representations(form, p) if r.x > 0 and r.y > 0
            ]
            assert len(positive) == 1, p
            assert positive[0].primitive, p

    _criterion(2, "primes 1 mod 12 have a unique positive representation", 10.0, body)


def test_criterion_03_avoidance_sweeps():
    def body() -> None:
        hex_values = primitive_value_set(IntQuadForm(1, 1, 1), SWEEP_LIMIT - 1).values
        for v in hex_values:
            assert all(p % 6 != 5 for p in factorize(v)), v

        square_values = primitive_value_set(IntQuadForm(1, 0, 1), SWEEP_LIMIT - 1).values
        for v in square_values:
            assert all(p % 4 != 3 for p in factorize(v)), v

        excluded = IntQuadForm(1, 0, 4)
        for n in range(2, SWEEP_LIMIT, 4):
            assert representations(excluded, n) == [], n

    _criterion(3, "divisibility obstructions below 1e5 have no violations", 30.0, body)


def test_criterion_04_m004_pipeline():
    def body() -> None:
        spec = GapPrimeSpec(g=1, family=FAMILY_M004, avoid_primes=(5, 11))
        search = gap_prime_sequence(spec, 1, cap=10**6)
        first = search.witnesses[0]
        assert first.value == 241
        assert first.representation.pair == (7, 4)
        assert first.verified

        golden = json.loads((DATA / "m004_gap2_witness.json").read_text())
        spec2 = GapPrimeSpec(
            g=2, family=FAMILY_M004, avoid_primes=tuple(golden["avoid_primes"])
        )
        assert crt_solve(build_congruences(spec2)) == (
            golden["residue"],
            golden["modulus"],
        )
        found = gap_prime_sequence(spec2, 1, cap=10**8)
        assert not found.truncated
        witness = found.witnesses[0]
        assert witness.value == golden["value"] < 10**8
        assert list(witness.representation.pair) == golden["representation"]
        assert verify_witness(witness.value, spec2).verified

    _criterion(4, "single-gap witness 241 and the recorded double-gap witness", 60.0, body)


def test_criterion_05_m125_pipeline():
    def body() -> None:
        spec = GapPrimeSpec(g=1, family=FAMILY_M125, avoid_primes=(3, 11))
        search = gap_prime_sequence(spec, 1, cap=10**4)
        first = search.witnesses[0]
        assert first.value == 10
        assert first.representation.pair == (1, 2)
        assert verify_witness(10, spec).verified

    _criterion(5, "doubled-prime witness m=10 produced and re-verified", 1.0, body)


def test_criterion_06_route_identities():
    def body() -> None:
        rng = random.Random(123)
        names = series_names()
        points = 0
        while points < 1000:
            a = rng.uniform(-40, 40)
            b = rng.uniform(-40, 40)
            if abs(a) + abs(b) < 1e-2:
                continue
            points += 1
            for name in names:
                g = delta_v_generic(builtin_series(name), a, b)
                e = delta_v_explicit(name, a, b)
                p = delta_v_polar(name, a, b)
                scale = max(abs(g), 1.0)
                assert abs(g - e) <= 1e-10 * scale, (name, a, b)
                assert abs(g - p) <= 1e-10 * scale, (name, a, b)
            m003 = delta_v_explicit("m003", a, b)
            sub = delta_v_explicit("m004", 2 * a + b, b / 2)
            scale = max(abs(m003), 1.0)
            assert abs(m003 - sub) <= 1e-10 * scale, (a, b)
            m129 = delta_v_explicit("m129", a, b)
            wl = delta_v_explicit("WL", a + 2 * b, -b)
            scale = max(abs(m129), 1.0)
            assert abs(m129 - wl) <= 1e-10 * scale, (a, b)

    _criterion(6, "polar, explicit, and substitution identities at 1e-10", 5.0, body)


def test_criterion_07_wl_coefficients():
    def body() -> None:
        coeffs = wl_taylor_coefficients()
        assert abs(coeffs[1] - complex(-2, 2)) < 1e-8
        assert abs(coeffs[3] - complex(0, 1 / 6)) < 1e-8
        assert abs(coeffs[2]) < 1e-8

    _criterion(7, "holonomy series coefficients recovered numerically", 1.0, body)


def test_criterion_08_meyerhoff_cross_check():
    def body() -> None:
        drop = V_FIG8 - delta_v_generic(builtin_series("m004"), 5, 1)
        assert abs(drop - 0.9821) < 0.005
        truncation_error = abs(drop - 0.981368)
        assert 5e-4 < truncation_error < 1e-3

    _criterion(8, "smallest closed volume reproduced to truncation error", 1.0, body)


def test_criterion_09_asymmetry_exhaustive():
    def body() -> None:
        for a in range(2, 301):
            for b in range(1, a):
                assert lower_bound_holds(a, b), (a, b)
                assert m125_asymmetry(a, b) > 0, (a, b)

    _criterion(9, "volume asymmetry positive for all pairs up to 300", 5.0, body)


def test_criterion_10_mutant_census():
    def body() -> None:
        for n in range(3, 17):
            count = len(enumerate_classes(n))
            assert count == bracelet_count(n), n
            assert Fraction(2**n, 2 * n) <= count, n
        for n in range(3, 11):
            classes = enumerate_classes(n)
            graphs = [cusp_graph(CyclicWord(w)) for w in classes]
            for i, gi in enumerate(graphs):
                for j in range(i, len(graphs)):
                    same = graphs_isomorphic(gi, graphs[j])
                    assert same == (i == j), (n, i, j)
        growth = math.log(2) / (4 * V_OCT)
        assert abs(growth - 0.0472962) < 1e-6

    _criterion(10, "class counts, graph biconditional, and growth constant", 60.0, body)


def test_criterion_11_census_fixture_golden(capsys):
    def body() -> None:
        fixture = DATA / "volume_census_sample.csv"
        code = cli_run(["census", "hist", str(fixture)])
        out = capsys.readouterr().out
        assert code == 0
        golden = (DATA / "volume_census_sample_hist.json").read_text(encoding="utf-8")
        assert out == golden
        with open(fixture, encoding="utf-8") as fh:
            report = parse_census(fh)
        _, counts, _ = cluster_volumes(report.records)
        assert sum(counts) == 20

    _criterion(11, "bundled census fixture clusters to its golden bytes", 1.0, body)


def test_criterion_12_certifier_property_suite():
    def body() -> None:
        rng = random.Random(999)
        names = ("m003", "m004", "m125", "m129")
        checked = 0
        while checked < 1000:
            record = builtin_record(rng.choice(names))
            a = rng.randrange(-20, 21)
            b = rng.randrange(-20, 21)
            if math.gcd(a, b) != 1:
                continue
            c2 = rng.choice((DEFAULT_C2, 0.5, 2.0))
            cert = certify_unique_volume(record, a, b, c2=c2)
            assert cert.bound * cert.symmetry_order == cert.n_q0
            assert cert.valid == (cert.gap_normalized > 2 * c2)
            assert cert.regime_verified == (cert.q0_normalized >= REGIME_Q_MIN)
            checked += 1

    _criterion(12, "certificate arithmetic fuzzed over 1000 fillings", 30.0, body)
