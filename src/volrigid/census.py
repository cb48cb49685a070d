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
from operator import itemgetter
from typing import Iterable, NamedTuple

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


class _Record(NamedTuple):
    name: str
    volume: float


class VolumeRecord(_Record):
    """One named manifold with a positive finite volume."""

    __slots__ = ()

    def __new__(cls, name: str, volume: float) -> "VolumeRecord":
        if not 0 < volume < math.inf:  # false for nan
            raise ValueError(f"volume of {name!r} must be finite and positive")
        return tuple.__new__(cls, (name, volume))

    @classmethod
    def _make(cls, iterable: Iterable) -> "VolumeRecord":
        # namedtuple's own _make (which _replace calls) skips __new__
        return cls(*iterable)


class ParseError(NamedTuple):
    line_number: int
    text: str
    reason: str


class ParseReport(NamedTuple):
    records: tuple[VolumeRecord, ...]
    errors: tuple[ParseError, ...]


class _VolumeNotANumber(ValueError):
    """The volume field of a line does not parse as a float."""


def _parse_line(text: str) -> VolumeRecord:
    name, comma, raw = text.partition(",")
    if not comma or "," in raw:
        raise ValueError("expected exactly one comma: name,volume")
    name = name.strip()
    if not name:
        raise ValueError("empty name")
    raw = raw.strip()
    try:
        volume = float(raw)
    except ValueError:
        raise _VolumeNotANumber(f"volume {raw!r} is not a number") from None
    return VolumeRecord(name, volume)


def parse_census(lines: Iterable[str]) -> ParseReport:
    """Parse name,volume lines; malformed lines go to the error report.

    A first line with one comma, a name and a volume field that float()
    refuses is taken to be the optional header and skipped silently.
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
            if not (first_data_line and isinstance(exc, _VolumeNotANumber)):
                errors.append(ParseError(line_number, text, str(exc)))
        first_data_line = False
    return ParseReport(tuple(records), tuple(errors))


class VolumeCluster(NamedTuple):
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
    ordered = sorted(records, key=itemgetter(1, 0))
    if not ordered:
        return []
    clusters: list[VolumeCluster] = []
    names: list[str] = []
    start = previous = ordered[0].volume
    for name, volume in ordered:
        if volume - previous > epsilon:
            clusters.append(VolumeCluster(start, len(names), tuple(names)))
            start, names = volume, []
        names.append(name)
        previous = volume
    clusters.append(VolumeCluster(start, len(names), tuple(names)))
    return clusters


def clusters_as_dicts(clusters: Iterable[VolumeCluster]) -> list[dict]:
    """JSON-ready form: {"volume", "count", "names"} per cluster."""
    return [
        {"volume": volume, "count": count, "names": list(names)}
        for volume, count, names in clusters
    ]
