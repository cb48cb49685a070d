"""Volume table parsing and chain clustering."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrigid.census import (
    ParseError,
    ParseReport,
    cluster_volumes,
    parse_census,
)

DATA = Path(__file__).parent / "data"


def test_report_tuples_have_named_fields():
    error = ParseError(line_number=3, text="x", reason="empty name")
    report = ParseReport(records=(("m004", 2.0298832128),), errors=(error,))
    assert report.errors[0].line_number == 3
    assert report.records == parse_census(["m004,2.0298832128"]).records
    assert type(report.records[0]) is tuple


def _names(report):
    return [name for name, _ in report.records]


def test_parse_basic_and_header():
    report = parse_census(["name,volume", "A,2.029883", "B,2.029883"])
    assert _names(report) == ["A", "B"]
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
    assert _names(report) == ["good", "tail"]
    assert [e.line_number for e in report.errors] == [2, 3, 4, 5]
    assert "positive" in report.errors[0].reason


def test_header_detection_only_on_first_line():
    # a non-numeric volume later in the file is an error, not a header
    report = parse_census(["A,1.0", "name,volume"])
    assert len(report.records) == 1
    assert len(report.errors) == 1


def test_header_is_a_volume_float_refuses_not_an_error_message():
    # the first line's volume -1 is a number, so the line is a bad
    # record, whatever its name says
    report = parse_census(["is not a number,-1", "b,2"])
    assert _names(report) == ["b"]
    assert [(e.line_number, e.text) for e in report.errors] == [(1, "is not a number,-1")]
    # a first line that fails before its volume is read is no header
    report = parse_census(["name,volume,unit", "b,2"])
    assert [e.line_number for e in report.errors] == [1]
    report = parse_census(["name,volume", "b,2"])
    assert _names(report) == ["b"] and not report.errors


def test_one_byte_order_mark_is_dropped_from_the_first_line():
    report = parse_census(["\ufeffm004,2.0298832128", "m003,2.0298832128"])
    assert _names(report) == ["m004", "m003"]
    # before the header, which is then skipped as usual
    report = parse_census(["\ufeffname,volume", "m003,2.0298832128"])
    assert _names(report) == ["m003"] and not report.errors
    report = parse_census(iter(["\ufeff# comment", "a,1"]))
    assert report.records == (("a", 1.0),)
    # only one mark, and only on the first line
    report = parse_census(["\ufeff\ufeffa,1", "\ufeffb,2"])
    assert _names(report) == ["\ufeffa", "\ufeffb"]
    assert parse_census([]) == parse_census(["\ufeff"]) == ParseReport((), ())


def test_cluster_examples():
    recs = [("a", 2.029883), ("b", 2.029883), ("c", 2.568970)]
    assert cluster_volumes(recs, 1e-6) == ([2.029883, 2.568970], [2, 1], [("a", "b"), ("c",)])
    _, counts, _ = cluster_volumes([("x", 1.0), ("y", 1.0000005), ("z", 1.000001)], 1e-6)
    assert counts == [3]
    assert cluster_volumes([], 1e-6) == ([], [], [])


def test_cluster_counts_sum_to_record_count():
    rng = random.Random(19)
    records = [(f"r{i}", rng.uniform(1, 20)) for i in range(200)]
    _, counts, _ = cluster_volumes(records)
    assert sum(counts) == len(records)


def test_cluster_permutation_invariance():
    rng = random.Random(8)
    base = [(f"v{i}", rng.uniform(1, 5)) for i in range(60)]
    base += [(f"w{i}", base[i][1] + 5e-7) for i in range(15)]
    reference = cluster_volumes(base)
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert cluster_volumes(shuffled) == reference


def test_epsilon_monotonicity():
    rng = random.Random(4)
    records = [(f"r{i}", rng.uniform(1, 2)) for i in range(100)]
    previous = None
    for epsilon in (1e-9, 1e-6, 1e-4, 1e-2, 1.0):
        count = len(cluster_volumes(records, epsilon)[0])
        if previous is not None:
            assert count <= previous, epsilon
        previous = count


@pytest.mark.parametrize("epsilon", [-1e-6, float("nan")])
def test_epsilon_must_be_a_nonnegative_number(epsilon):
    # a nan epsilon would compare false against every gap and merge all
    # records into one cluster
    records = [("a", 1.0), ("b", 2.0)]
    with pytest.raises(ValueError, match="nonnegative number"):
        cluster_volumes(records, epsilon)


def test_fixture_parses_clean():
    with open(DATA / "volume_census_sample.csv", encoding="utf-8") as fh:
        report = parse_census(fh)
    assert len(report.records) == 20
    assert not report.errors
    _, counts, names = cluster_volumes(report.records)
    assert counts == [2, 1, 2, 1, 3, 3, 1, 1, 1, 2, 1, 1, 1]
    # the chain cluster spans 1.8e-6 end to end but joins through
    # adjacent gaps of 9e-7
    assert names[5] == ("s10", "s11", "s12")


# ---------------------------------------------------------------------------
# the census as it was when every record and cluster was a frozen
# dataclass, kept as the oracle for the tuple records


@dataclass(frozen=True)
class OracleRecord:
    name: str
    volume: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.volume) or self.volume <= 0:
            raise ValueError(f"volume of {self.name!r} must be finite and positive")


def oracle_parse_line(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("expected exactly one comma: name,volume")
    name, raw = parts
    if not name:
        raise ValueError("empty name")
    try:
        volume = float(raw)
    except ValueError:
        raise ValueError(f"volume {raw!r} is not a number") from None
    return OracleRecord(name, volume)


def oracle_parse_census(lines):
    """(records, errors) with errors as (line_number, text, reason)."""
    records, errors = [], []
    first_data_line = True
    for line_number, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            records.append(oracle_parse_line(text))
        except ValueError as exc:
            # parse_census decides from the failed float() instead; the
            # two differ only on a name holding "is not a number", which
            # _NAME below never draws
            header = (
                first_data_line
                and text.count(",") == 1
                and "is not a number" in str(exc)
            )
            if not header:
                errors.append((line_number, text, str(exc)))
        first_data_line = False
    return records, errors


def oracle_cluster_volumes(records, epsilon):
    """Clusters as (representative, count, names)."""
    ordered = sorted(records, key=lambda r: (r.volume, r.name))
    clusters, chain = [], []
    for record in ordered:
        if chain and record.volume - chain[-1].volume > epsilon:
            clusters.append(chain)
            chain = []
        chain.append(record)
    if chain:
        clusters.append(chain)
    return [(c[0].volume, len(c), tuple(r.name for r in c)) for c in clusters]



_CBA = ("c", "b", "a")
# equal volumes in reverse name order: first met at the first record, after
# two clusters (at 1e-6, the tie starts one), and inside a cluster (at 1e-6,
# 1.0000005 joins x's); later ties follow
_TIED_TABLES = [
    [(name, 1.0) for name in _CBA] + [("x", 2.5)],
    [("z", 0.5), ("y", 0.75)] + [(name, v) for v in (2.5, 1.0, 1.0000005) for name in _CBA],
    [("z", 0.5), ("x", 1.0)] + [(name, v) for v in (1.0000005, 1.0000009, 3.0) for name in _CBA],
]


@pytest.mark.parametrize("epsilon", [0.0, 1e-6])
@pytest.mark.parametrize("table", _TIED_TABLES)
def test_equal_volumes_cluster_in_name_order(table, epsilon):
    # sorted by volume alone, equal volumes keep their reversed input order
    columns = cluster_volumes(table, epsilon)
    oracle = oracle_cluster_volumes([OracleRecord(*row) for row in table], epsilon)
    assert list(zip(*columns)) == oracle


def test_many_equal_volumes_cluster_in_name_order_at_once():
    # one re-sort for all ties: a re-sort per tie would take minutes
    names = [f"r{i:05d}" for i in range(50000)]
    records = [(name, 1.0 + i % 3) for i, name in enumerate(reversed(names))]
    start = time.perf_counter()
    representatives, counts, cells = cluster_volumes(records, 0.0)
    assert time.perf_counter() - start < 1.0
    assert list(zip(representatives, counts)) == [(1.0, 16667), (2.0, 16667), (3.0, 16666)]
    assert sorted(cells[0] + cells[1] + cells[2]) == names
    assert all(list(c) == sorted(c) for c in cells)

# whitespace that str.strip() removes; float() strips all but \x1c-\x1f
_PAD = st.sampled_from(["", " ", "\t", "\u2003", "\xa0", "\x1c", "\x1f"])
_VOLUME_TEXT = (
    st.sampled_from([
        "1", "2.5", "2.5000001", "2.5000002", "1e-7", "nan", "NaN", "inf",
        "-inf", "1e999", "-1e999", "-2.5", "0", "-0.0", "abc", "", "1,5",
        "0x10", "1_000", " 3.25 ", "\t4\t", "1e400", "1_0", "Infinity",
        "\x1c5\x1c",
    ])
    | st.floats().map(repr)
    | st.floats(0.5, 0.5000003).map(repr)
    # many equal volumes, under different names
    | st.sampled_from(["2.0298832128", "2.0298832128", "2.0298833"])
)
_NAME = st.sampled_from(["a", "b", "m004", "name", "#x", " pad ", "", "é"]) | st.text(max_size=5)
_LINE = (
    st.builds(lambda lead, n, sep, v, end: f"{lead}{n}{sep}{v}{end}",
              _PAD | st.just("\ufeff"), _NAME,
              st.sampled_from([",", ",,", ", ", "", " , ", "\x1c,\x1c"]), _VOLUME_TEXT,
              _PAD | st.sampled_from(["\n", ",extra"]))
    | st.sampled_from(["", "\n", "   ", "# comment", "  # indented", "name,volume"])
    | st.text(max_size=8)
)
_HEADER = st.sampled_from([
    [], ["name,volume"], [" name , volume "], ["\ufeffname,volume"], ["name,volume,unit"],
])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(header=_HEADER, lines=st.lists(_LINE, max_size=25),
       epsilon=st.sampled_from([0.0, 1e-7, 1e-6, 0.5]))
def test_census_matches_the_dataclass_census(header, lines, epsilon):
    lines = header + lines
    report = parse_census(lines)
    # parse_census drops one byte-order mark from the first line
    records, errors = oracle_parse_census(
        [line.removeprefix("\ufeff") for line in lines[:1]] + lines[1:]
    )
    assert report.records == tuple((r.name, r.volume) for r in records)
    assert [type(r) for r in report.records] == [tuple] * len(records)
    assert [(e.line_number, e.text, e.reason) for e in report.errors] == errors
    columns = cluster_volumes(report.records, epsilon)
    assert list(zip(*columns)) == oracle_cluster_volumes(records, epsilon)
    # a one-shot iterator gives the same columns
    assert cluster_volumes(iter(report.records), epsilon) == columns
