"""Deterministic JSON, CSV and table text of a command's payload.

A payload is JSON-ready: dicts with str keys, lists and tuples (both
printed as JSON arrays, as ``json.dumps`` prints them), str, int, float,
bool and None, nothing else; or a ``Table``.  Every float is printed at
12 significant digits in every format, inside nested csv and table cells
too.  csv and table print a ``Table`` one row per line under a header of
its keys, and a dict as the two-column table of its key,value pairs.

The writer prints a list whose items share one shape column by column,
with no Python call per item: scalars of one type, dicts with one key
list in one order (each key's values a column, each row filled into one
template), and non-empty lists whose elements share one scalar type
(int lists once per run of equal lists).  A list of other items is
printed item by item.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import operator
from typing import Any, Callable, Iterable, NamedTuple, Sequence

__all__ = ["Table", "render"]

_encode_str = json.encoder.encode_basestring_ascii

# exact type -> JSON text of a value of that type.  Lookups use the exact
# type, so a bool is never printed as an int.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: _encode_str,
    float: "{:.12g}".format,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


class Table(NamedTuple):
    """A list of rows with the same keys, rendered column by column.

    It means exactly ``[dict(zip(keys, row)) for row in rows]``.  The
    keys are distinct and there is at least one; each row has one cell
    per key.
    """

    keys: tuple[str, ...]
    rows: Sequence[Sequence[Any]]


def _one_type(values: Iterable[Any]) -> type | None:
    """The values' one type, or None when they are of no type or several."""
    types = set(map(type, values))
    return types.pop() if len(types) == 1 else None


@functools.cache
def _layout(indent: int | None) -> tuple[str, str, str, int | None]:
    """Text before the first item of a container at nesting level
    ``indent``, between items and after the last, and the items' level."""
    if indent is None:
        return "", ",", "", None
    pad = "\n" + "  " * indent
    return pad + "  ", "," + pad + "  ", pad, indent + 1


def _json_text(obj: Any, indent: int | None = 0) -> str:
    """JSON text of a payload, every float at 12 significant digits.

    At nesting level ``indent`` containers are laid out as by
    ``json.dumps(obj, indent=2)``; ``indent=None`` gives the compact
    form of ``json.dumps(obj, separators=(",", ":"))``, which csv and
    table cells use.
    """
    kind = type(obj)
    encode = _SCALARS.get(kind)
    if encode is not None:
        return encode(obj)
    opening, sep, closing, deeper = _layout(indent)
    if kind is dict:
        if not obj:
            return "{}"
        colon = ":" if indent is None else ": "
        parts = [_encode_str(k) + colon + _json_text(v, deeper) for k, v in obj.items()]
        return "{" + opening + sep.join(parts) + closing + "}"
    if kind is Table:
        if not obj.rows:
            return "[]"
        items = _json_records(obj.keys, zip(*obj.rows), deeper)
    elif kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = _json_items(obj, deeper)
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")
    return "[" + opening + sep.join(items) + closing + "]"


def _json_items(items: Sequence[Any], indent: int | None) -> Iterable[str]:
    """The JSON text of each item of a non-empty list, at level ``indent``:
    items of one shape column by column, as the module docstring says,
    items of other shapes and a single container one by one."""
    kind = _one_type(items)
    encode = _SCALARS.get(kind)
    if encode is not None:
        return map(encode, items)
    # one container prints faster on its own than as a column
    many = len(items) > 1
    if kind is dict and many:
        keys = set(map(tuple, items))
        if len(keys) == 1 and () not in keys:
            return _json_records(keys.pop(), zip(*map(dict.values, items)), indent)
    elif many and (kind is list or kind is tuple) and all(items):
        element = _one_type(itertools.chain.from_iterable(items))
        encode = _SCALARS.get(element)
        if encode is not None:
            opening, sep, closing, _ = _layout(indent)
            frame = "[" + opening + "%s" + closing + "]"
            rows, counts = items, None
            if element is int:
                # int lists repeat, as the sorted [modulus, area] pairs of
                # a cusp list do: each run of equal lists is printed once.
                # Floats are never grouped, as 0.0 == -0.0
                runs = [(row, len(list(run))) for row, run in itertools.groupby(items)]
                rows, counts = zip(*runs)
            texts = map(frame.__mod__, map(sep.join, map(functools.partial(map, encode), rows)))
            if counts is None:
                return texts
            return itertools.chain.from_iterable(map(itertools.repeat, texts, counts))
    return [_json_text(v, indent) for v in items]


def _json_records(
    keys: Sequence[str], columns: Iterable[Sequence[Any]], indent: int | None
) -> Iterable[str]:
    """The JSON text of ``dict(zip(keys, row))`` at level ``indent`` for
    each row that the columns hold, all through one template."""
    opening, sep, closing, deeper = _layout(indent)
    texts = [_json_items(cells, deeper) for cells in columns]
    colon = ":" if indent is None else ": "
    template = (
        "{" + opening
        + sep.join(_encode_str(k).replace("%", "%%") + colon + "%s" for k in keys)
        + closing + "}"
    )
    return map(template.__mod__, zip(*texts))


def _text_cells(cells: Sequence[Any]) -> Iterable[str]:
    """csv and table texts of one Table column: a str cell as it is,
    any other cell as compact JSON."""
    texts = _json_items(cells, None)
    if str in set(map(type, cells)):
        return [c if type(c) is str else t for c, t in zip(cells, texts)]
    return texts


def render(payload: Any, fmt: str) -> str:
    """Payload text in the format "json", "csv" or "table"."""
    if fmt == "json":
        return _json_text(payload) + "\n"
    if type(payload) is not Table:
        payload = Table(("key", "value"), tuple(payload.items()))
    elif not payload.rows:
        return "\n" if fmt == "table" else ""
    header = payload.keys
    rows = list(zip(*map(_text_cells, zip(*payload.rows))))
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue()
    widths = [
        max(len(h), max(map(len, map(operator.itemgetter(i), rows)), default=0))
        for i, h in enumerate(header)
    ]
    # one template pads every cell of a row to its column's width
    template = "  ".join(f"%-{w}s" for w in widths)
    lines = [
        (template % header).rstrip(),
        "  ".join("-" * w for w in widths),
        *map(str.rstrip, map(template.__mod__, rows)),
    ]
    return "\n".join(lines) + "\n"
