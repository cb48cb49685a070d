"""Ingesting name,volume tables and clustering equal volumes.

Input is CSV-ish text: one record per line as ``name,volume``, blank
lines and ``#`` comments ignored, an optional leading ``name,volume``
header skipped.  Bad lines are collected into a report instead of
aborting the parse, so one typo does not lose a whole census file.

Clustering is greedy chaining on the sorted volumes: a record joins the
current cluster when its gap to the previous record is at most epsilon.
Two records then share a cluster exactly when they are connected by a
chain of small gaps, which is the right notion for "numerically equal
volume" lists; the representative is the smallest member.  Records are
pre-sorted by (volume, name), so the outcome does not depend on input
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "VolumeRecord",
    "ParseError",
    "ParseReport",
    "VolumeCluster",
    "DEFAULT_EPSILON",
    "parse_census",
    "cluster_volumes",
    "clusters_as_dicts",
]

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class VolumeRecord:
    """One named manifold with a positive finite volume."""

    name: str
    volume: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.volume) or self.volume <= 0:
            raise ValueError(f"volume of {self.name!r} must be finite and positive")


@dataclass(frozen=True)
class ParseError:
    line_number: int
    text: str
    reason: str


@dataclass(frozen=True)
class ParseReport:
    records: tuple[VolumeRecord, ...]
    errors: tuple[ParseError, ...]


def _parse_line(text: str) -> VolumeRecord:
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
    return VolumeRecord(name, volume)


def parse_census(lines: Iterable[str]) -> ParseReport:
    """Parse name,volume lines; malformed lines go to the error report.

    A first line whose volume field is non-numeric is taken to be the
    optional header and skipped silently.
    """
    records: list[VolumeRecord] = []
    errors: list[ParseError] = []
    first_data_line = True
    for line_number, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            records.append(_parse_line(text))
        except ValueError as exc:
            header = (
                first_data_line
                and text.count(",") == 1
                and "is not a number" in str(exc)
            )
            if not header:
                errors.append(ParseError(line_number, text, str(exc)))
        first_data_line = False
    return ParseReport(tuple(records), tuple(errors))


@dataclass(frozen=True)
class VolumeCluster:
    """A maximal chain of records with consecutive gaps <= epsilon."""

    representative: float
    count: int
    names: tuple[str, ...]


def cluster_volumes(
    records: Iterable[VolumeRecord], epsilon: float = DEFAULT_EPSILON
) -> list[VolumeCluster]:
    """Greedy chain clustering of records sorted by (volume, name)."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be a nonnegative number")
    ordered = sorted(records, key=lambda r: (r.volume, r.name))
    clusters: list[VolumeCluster] = []
    chain: list[VolumeRecord] = []
    for record in ordered:
        if chain and record.volume - chain[-1].volume > epsilon:
            clusters.append(_finish(chain))
            chain = []
        chain.append(record)
    if chain:
        clusters.append(_finish(chain))
    return clusters


def _finish(chain: list[VolumeRecord]) -> VolumeCluster:
    return VolumeCluster(
        representative=chain[0].volume,
        count=len(chain),
        names=tuple(r.name for r in chain),
    )


def clusters_as_dicts(clusters: Iterable[VolumeCluster]) -> list[dict]:
    """JSON-ready form: {"volume", "count", "names"} per cluster."""
    return [
        {"volume": c.representative, "count": c.count, "names": list(c.names)}
        for c in clusters
    ]
