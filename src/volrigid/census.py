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
volumes are equal; when two are, they are sorted once more, by
(volume, name).  The clusters come back as three columns, as the writer
prints them: representatives, counts and names.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import eq, itemgetter, lt, sub
from typing import Iterable, NamedTuple

__all__ = [
    "ParseError",
    "ParseReport",
    "DEFAULT_EPSILON",
    "parse_census",
    "cluster_volumes",
]

DEFAULT_EPSILON = 1e-6


class ParseError(NamedTuple):
    line_number: int
    text: str
    reason: str


class ParseReport(NamedTuple):
    # (name, volume) pairs, each volume finite and positive
    records: tuple[tuple[str, float], ...]
    errors: tuple[ParseError, ...]


def parse_census(lines: Iterable[str]) -> ParseReport:
    """Parse name,volume lines; malformed lines go to the error report.

    A first line with one comma, a name and a volume field that float()
    refuses is taken to be the optional header and skipped silently.
    One U+FEFF (a UTF-8 byte-order mark) at the start of the first line
    is dropped, so it never becomes part of the first name.
    """
    records: list[tuple[str, float]] = []
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
                if 0 < volume < math.inf:  # false for nan
                    records.append((name, volume))
                else:
                    reason = f"volume of {name!r} must be finite and positive"
        if reason is not None:
            errors.append(ParseError(line_number, text, reason))
        first_data_line = False
    return ParseReport(tuple(records), tuple(errors))


def cluster_volumes(
    records: Iterable[tuple[str, float]], epsilon: float = DEFAULT_EPSILON
) -> tuple[list[float], list[int], list[tuple[str, ...]]]:
    """Greedy chain clustering of (name, volume) records sorted by
    (volume, name), as three columns with one cell per cluster: its
    representative volume, its count and its names in that order."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be a nonnegative number")
    ordered = sorted(records, key=itemgetter(1))
    if not ordered:
        return [], [], []
    volumes = list(map(itemgetter(1), ordered))
    if any(map(eq, volumes, itertools.islice(volumes, 1, None))):
        # equal volumes, which share a cluster: their names decide their
        # order.  The list is in volume order, so this sort only reorders
        # runs of equal volumes, and volumes stays as it is
        ordered.sort(key=itemgetter(1, 0))
    names = tuple(map(itemgetter(0), ordered))
    gaps = map(sub, itertools.islice(volumes, 1, None), volumes)
    starts = [0, *itertools.compress(
        range(1, len(names)), map(functools.partial(lt, epsilon), gaps)
    )]
    ends = [*itertools.islice(starts, 1, None), len(names)]
    return (
        list(map(volumes.__getitem__, starts)),
        list(map(sub, ends, starts)),
        list(map(names.__getitem__, map(slice, starts, ends))),
    )
