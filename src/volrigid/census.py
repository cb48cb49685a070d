"""Ingesting name,volume tables and clustering equal volumes.

Input is CSV-ish text: one record per line as ``name,volume``, blank
lines and ``#`` comments ignored, an optional leading ``name,volume``
header skipped, and one UTF-8 byte-order mark (U+FEFF) at the start of
the first line dropped.  Bad lines are collected into a report instead of
aborting the parse, so one typo does not lose a whole census file.

Clustering is greedy chaining on the sorted volumes: a record joins the
current cluster when its gap to the previous record is at most epsilon.
Two records then share a cluster exactly when they are connected by a
chain of small gaps, which is the right notion for "numerically equal
volume" lists; the representative is the smallest member.  Records are
chained in (volume, name) order, so the outcome does not depend on input
order.  They are sorted by volume alone, which is that order unless two
volumes are equal; only when chaining meets two equal volumes are they
sorted again, by (volume, name), and chaining resumes where it met them.
"""

from __future__ import annotations

import itertools
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


def parse_census(lines: Iterable[str]) -> ParseReport:
    """Parse name,volume lines; malformed lines go to the error report.

    A first line with one comma, a name and a volume field that float()
    refuses is taken to be the optional header and skipped silently.
    One U+FEFF (a UTF-8 byte-order mark) at the start of the first line
    is dropped, so it never becomes part of the first name.
    """
    records: list[VolumeRecord] = []
    errors: list[ParseError] = []
    lines = iter(lines)
    first = next(lines, "").removeprefix("\ufeff")
    first_data_line = True
    for line_number, raw in enumerate(itertools.chain((first,), lines), start=1):
        text = raw.strip()
        if not text or text[0] == "#":
            continue
        name, comma, volume_text = text.partition(",")
        # text is stripped: nothing to strip left of the name or right of
        # the volume
        name = name.rstrip()
        volume_text = volume_text.lstrip()
        reason = None
        if not comma or "," in volume_text:
            reason = "expected exactly one comma: name,volume"
        elif not name:
            reason = "empty name"
        else:
            try:
                volume = float(volume_text)
            except ValueError:
                if not first_data_line:  # there, the optional header
                    reason = f"volume {volume_text!r} is not a number"
            else:
                if 0 < volume < math.inf:
                    # the range test of VolumeRecord.__new__, made here
                    records.append(tuple.__new__(VolumeRecord, (name, volume)))
                else:
                    reason = f"volume of {name!r} must be finite and positive"
        if reason is not None:
            errors.append(ParseError(line_number, text, reason))
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
    ordered = sorted(records, key=itemgetter(1))
    if not ordered:
        return []
    clusters: list[VolumeCluster] = []
    names: list[str] = []
    start = previous = ordered[0].volume
    rest: Iterable[VolumeRecord] = ordered
    resorted = False
    while True:
        for name, volume in rest:
            if volume - previous > epsilon:
                clusters.append(tuple.__new__(VolumeCluster, (start, len(names), tuple(names))))
                start, names = volume, []
            elif volume == previous and names and not resorted:
                break
            names.append(name)
            previous = volume
        else:
            clusters.append(tuple.__new__(VolumeCluster, (start, len(names), tuple(names))))
            return clusters
        # two equal volumes, which share a cluster: their names decide
        # their order.  The list is in volume order, so a sort by
        # (volume, name) only reorders runs of equal volumes.  This is the
        # first tie, so the records before the previous one keep their
        # places, and chaining resumes at the previous one's place
        ordered.sort(key=itemgetter(1, 0))
        resorted = True
        names.pop()
        rest = itertools.islice(ordered, sum(map(itemgetter(1), clusters)) + len(names), None)
