"""Deterministic JSON, CSV and table text of a command's payload.

A payload is JSON-ready: dicts with str keys, lists and tuples (both
printed as JSON arrays, as ``json.dumps`` prints them), str, int, float,
bool and None, nothing else; or a ``Table``.  A ``Table`` is a list of
records held as columns: its keys and one column of cells per key.  It
means ``[dict(zip(keys, row)) for row in zip(*columns)]``, and every
format reads its columns as they are, with no transposing into rows and
back; columns that are not one per key, or not all of one length, are
refused with a ValueError.  Every float is printed at 12 significant digits in every
format, inside nested csv and table cells too.  csv and table print a
``Table`` one row per line under a header of its keys, and a dict as the
two-column table of its key,value pairs.

The writer prints a list whose items share one shape column by column,
with no Python call per item: scalars of one type, dicts with one key
list in one order (each key's values a column, each row filled into one
template), and non-empty lists whose elements share one scalar type
(int lists once per run of equal lists).  A list of other items is
printed item by item.  The record template prints the cells of some
columns itself, with no text made per cell: floats (``%.12g``), ints
(``%d``), strs that JSON escapes nowhere (``"%s"``), and non-empty lists
of such strs (one ``"%s"`` per row, the names joined between quotes).
Each other column's cells are printed to text first.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from typing import Any, Callable, Iterable, NamedTuple, Sequence

__all__ = ["Table", "render"]

_encode_str = json.encoder.encode_basestring_ascii

# every float is printed through this one format, alone or in a template
_FLOAT_FORMAT = "%.12g"

# exact type -> JSON text of a value of that type.  Lookups use the exact
# type, so a bool is never printed as an int.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: _encode_str,
    float: _FLOAT_FORMAT.__mod__,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


class Table(NamedTuple):
    """A list of rows with the same keys, held column by column.

    It means exactly ``[dict(zip(keys, row)) for row in zip(*columns)]``.
    The keys are distinct and there is at least one; there is one column
    per key, and every column has one cell per row.
    """

    keys: tuple[str, ...]
    columns: Sequence[Sequence[Any]]


def _row_count(table: Table) -> int:
    """The table's number of rows, once its columns are checked to be one
    per key and all of one length."""
    keys, columns = table
    if len(columns) != len(keys):
        raise ValueError(f"a table with {len(keys)} keys has {len(columns)} columns")
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError("the columns of a table differ in length")
    return lengths.pop() if lengths else 0


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
        return f"{{{opening}{sep.join(parts)}{closing}}}"
    if kind is Table:
        if not _row_count(obj):
            return "[]"
        items = _json_records(obj.keys, obj.columns, deeper)
    elif kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = _json_items(obj, deeper)
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")
    # one f-string copies the joined items once, where each + would copy
    # them again
    return f"[{opening}{sep.join(items)}{closing}]"


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
    each row that the columns hold, all through one template, which
    prints the columns that the module docstring names itself."""
    opening, sep, closing, deeper = _layout(indent)
    inner_opening, inner_sep, inner_closing, _ = _layout(deeper)
    fields, texts = [], []
    for cells in columns:
        kind = _one_type(cells)
        if kind is float or kind is int:
            field = _FLOAT_FORMAT if kind is float else "%d"
        elif kind is str and _plain(cells):
            field = '"%s"'
        elif (
            (kind is list or kind is tuple) and all(cells)
            and _one_type(itertools.chain.from_iterable(cells)) is str
            and _plain(itertools.chain.from_iterable(cells))
        ):
            # a one-name list is joined into the same str, not a new one
            field = "[" + inner_opening + '"%s"' + inner_closing + "]"
            cells = map(('"' + inner_sep + '"').join, cells)
        else:
            field, cells = "%s", _json_items(cells, deeper)
        fields.append(field)
        texts.append(cells)
    colon = ":" if indent is None else ": "
    template = (
        "{" + opening
        + sep.join(_encode_str(k).replace("%", "%%") + colon + f for k, f in zip(keys, fields))
        + closing + "}"
    )
    return map(template.__mod__, zip(*texts))


def _plain(strs: Iterable[str]) -> bool:
    """Whether JSON escapes no character of the strs.  Escaping works per
    character, so one encoding of their joined text decides."""
    text = "".join(strs)
    return len(_encode_str(text)) == len(text) + 2


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
        payload = Table(("key", "value"), (list(payload), list(payload.values())))
    elif not _row_count(payload):
        return "\n" if fmt == "table" else ""
    header, columns = payload
    texts = list(map(_text_cells, columns))
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(itertools.chain([header], zip(*texts)))
        return buf.getvalue()
    texts = list(map(list, texts))
    widths = [max(len(h), max(map(len, cells), default=0)) for h, cells in zip(header, texts)]
    # one template pads every cell of a row but the last to its column's
    # width; lines are stripped on the right, so padding the last cell
    # would only make each line as long as the longest last cell
    template = "".join(f"%-{w}s  " for w in widths[:-1]) + "%s"
    lines = [
        (template % header).rstrip(),
        "  ".join("-" * w for w in widths),
        *map(str.rstrip, map(template.__mod__, zip(*texts))),
    ]
    return "\n".join(lines) + "\n"
