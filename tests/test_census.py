"""Volume table parsing and chain clustering."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from volrigid.census import (
    VolumeRecord,
    cluster_volumes,
    clusters_as_dicts,
    histogram,
    parse_census,
)

DATA = Path(__file__).parent / "data"


def test_record_validation():
    with pytest.raises(ValueError):
        VolumeRecord("x", -1.0)
    with pytest.raises(ValueError):
        VolumeRecord("x", 0.0)
    with pytest.raises(ValueError):
        VolumeRecord("x", float("inf"))


def test_parse_basic_and_header():
    report = parse_census(["name,volume", "A,2.029883", "B,2.029883"])
    assert [r.name for r in report.records] == ["A", "B"]
    assert not report.errors
    report = parse_census(["# hdr", "C,2.568970"])
    assert len(report.records) == 1


def test_parse_collects_errors_and_continues():
    lines = [
        "good,1.5",
        "D,-1",
        "no comma here",
        "E,abc",
        ",2.0",
        "tail,3.25",
    ]
    report = parse_census(lines)
    assert [r.name for r in report.records] == ["good", "tail"]
    assert [e.line_number for e in report.errors] == [2, 3, 4, 5]
    assert "positive" in report.errors[0].reason


def test_header_detection_only_on_first_line():
    # a non-numeric volume later in the file is an error, not a header
    report = parse_census(["A,1.0", "name,volume"])
    assert len(report.records) == 1
    assert len(report.errors) == 1


def test_cluster_examples():
    recs = [VolumeRecord("a", 2.029883), VolumeRecord("b", 2.029883),
            VolumeRecord("c", 2.568970)]
    clusters = cluster_volumes(recs, 1e-6)
    assert [c.count for c in clusters] == [2, 1]
    chained = cluster_volumes(
        [VolumeRecord("x", 1.0), VolumeRecord("y", 1.0000005),
         VolumeRecord("z", 1.000001)],
        1e-6,
    )
    assert len(chained) == 1 and chained[0].count == 3
    assert cluster_volumes([], 1e-6) == []


def test_cluster_counts_sum_to_record_count():
    rng = random.Random(19)
    records = [VolumeRecord(f"r{i}", rng.uniform(1, 20)) for i in range(200)]
    clusters = cluster_volumes(records)
    assert sum(c.count for c in clusters) == len(records)


def test_cluster_permutation_invariance():
    rng = random.Random(8)
    base = [VolumeRecord(f"v{i}", rng.uniform(1, 5)) for i in range(60)]
    base += [VolumeRecord(f"w{i}", base[i].volume + 5e-7) for i in range(15)]
    reference = cluster_volumes(base)
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert cluster_volumes(shuffled) == reference


def test_epsilon_monotonicity():
    rng = random.Random(4)
    records = [VolumeRecord(f"r{i}", rng.uniform(1, 2)) for i in range(100)]
    previous = None
    for epsilon in (1e-9, 1e-6, 1e-4, 1e-2, 1.0):
        count = len(cluster_volumes(records, epsilon))
        if previous is not None:
            assert count <= previous, epsilon
        previous = count


@pytest.mark.parametrize("epsilon", [-1e-6, float("nan")])
def test_epsilon_must_be_a_nonnegative_number(epsilon):
    # a nan epsilon would compare false against every gap and merge all
    # records into one cluster
    records = [VolumeRecord("a", 1.0), VolumeRecord("b", 2.0)]
    with pytest.raises(ValueError, match="nonnegative number"):
        cluster_volumes(records, epsilon)


def test_histogram_pairs():
    recs = [VolumeRecord("a", 2.0), VolumeRecord("b", 2.0), VolumeRecord("c", 3.5)]
    assert histogram(cluster_volumes(recs)) == [(2.0, 2), (3.5, 1)]
    assert histogram([]) == []


def test_fixture_parses_clean():
    with open(DATA / "volume_census_sample.csv", encoding="utf-8") as fh:
        report = parse_census(fh)
    assert len(report.records) == 20
    assert not report.errors
    clusters = cluster_volumes(report.records)
    assert [c.count for c in clusters] == [2, 1, 2, 1, 3, 3, 1, 1, 1, 2, 1, 1, 1]
    # the chain cluster spans 1.8e-6 end to end but joins through
    # adjacent gaps of 9e-7
    chain = clusters[5]
    assert chain.names == ("s10", "s11", "s12")


def test_clusters_as_dicts_shape():
    recs = [VolumeRecord("a", 2.0), VolumeRecord("b", 2.0)]
    payload = clusters_as_dicts(cluster_volumes(recs))
    assert payload == [{"volume": 2.0, "count": 2, "names": ["a", "b"]}]
