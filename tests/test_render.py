"""The writer: JSON text against json.dumps and a recursive oracle,
csv and table text against csv.writer and str.ljust."""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volrigid.render import Table, _json_text, render


def recursive_json_text(obj, indent=0):
    """The writer as it was before exact-type dispatch: one recursive
    call per value and one json.dumps per string.  Oracle for _json_text."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".12g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    deeper = None if indent is None else indent + 1
    if isinstance(obj, dict):
        colon = ":" if indent is None else ": "
        brackets = "{}"
        parts = [
            f"{json.dumps(str(k))}{colon}{recursive_json_text(v, deeper)}"
            for k, v in obj.items()
        ]
    elif isinstance(obj, list):
        brackets = "[]"
        parts = [recursive_json_text(v, deeper) for v in obj]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not parts:
        return brackets
    if indent is None:
        return brackets[0] + ",".join(parts) + brackets[1]
    pad = "\n" + "  " * indent
    return brackets[0] + pad + "  " + f",{pad}  ".join(parts) + pad + brackets[1]


def _payloads(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4)
        | st.dictionaries(st.text(max_size=5), kids, max_size=4),
        max_leaves=12,
    )


_FLOAT_FREE = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=_payloads(_FLOAT_FREE))
def test_writer_matches_stdlib_json_without_floats(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2)
    assert _json_text(payload, None) == json.dumps(payload, separators=(",", ":"))
    cell = payload if isinstance(payload, str) else json.dumps(payload, separators=(",", ":"))
    assert render({"k": payload}, "csv") == text_table(["key", "value"], [["k", cell]])["csv"]


def _at_12_digits(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, list):
        return [_at_12_digits(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _at_12_digits(v) for k, v in obj.items()}
    return obj


def _finite(obj):
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, list):
        return all(map(_finite, obj))
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    return True


def _one_float_each_way(x):
    """x as a lone value and in a float column of records: the writer
    prints the one through _SCALARS and the other through a template."""
    return {"value": x, "records": [{"v": x}, {"v": x}]}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=_payloads(_FLOAT_FREE | _FLOATS))
@example(payload=_one_float_each_way(-0.0))
@example(payload=_one_float_each_way(math.inf))
@example(payload=_one_float_each_way(-math.inf))
@example(payload=_one_float_each_way(math.nan))
@example(payload=_one_float_each_way(5e-324))
@example(payload=_one_float_each_way(1.7976931348623157e308))
def test_writer_prints_every_float_at_12_digits(payload):
    for indent in (0, None):
        text = _json_text(payload, indent)
        # the oracle spells each float as format(x, ".12g")
        assert text == recursive_json_text(payload, indent)
        # JSON has no nan or inf
        if _finite(payload):
            assert json.loads(text) == _at_12_digits(payload)


_ODD_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-7, 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, 123456789012.5,
])
_ANY_FLOAT = st.floats() | _ODD_FLOATS
_TEXT = st.text(max_size=8) | st.text(st.characters(max_codepoint=0x1F), max_size=4)
_SCALAR = st.none() | st.booleans() | st.integers() | _ANY_FLOAT | _TEXT
# lists of one scalar type take the writer's join path; bool and int mixed
# must not, or True would print as an int
_FLAT_LISTS = (
    st.lists(st.booleans() | st.integers(), max_size=6)
    | st.lists(_ANY_FLOAT, max_size=6)
    | st.lists(_TEXT, max_size=6)
    | st.lists(st.none(), max_size=3)
)


_KEY = (
    st.sampled_from(["volume", "count", "names", "%", "%s", "%%", "%(k)s", '"', "é", "Ω", ""])
    | _TEXT
)
# cell strategies that each give one shape to every cell of a column: the
# writer prints such a column in one map, and any other column item by item
_ONE_TYPE_CELLS = [st.none(), st.booleans(), st.integers(), _ANY_FLOAT, _TEXT]
_ARRAY_CELLS = [st.lists(cell, min_size=1, max_size=3) for cell in _ONE_TYPE_CELLS]
_RECORD_CELL = st.tuples(st.integers(), _TEXT | st.none()).map(
    lambda row: dict(zip(("%s", "é"), row))
)
_COLUMN_CELLS = [*_ONE_TYPE_CELLS, *_ARRAY_CELLS, _RECORD_CELL, _SCALAR | _FLAT_LISTS]


def _record_lists(min_keys=1, min_rows=1):
    """Lists of dicts with one key list in one order, each key's values
    drawn from one of _COLUMN_CELLS."""
    return st.lists(_KEY, min_size=min_keys, max_size=3, unique=True).flatmap(
        lambda keys: st.tuples(*[st.sampled_from(_COLUMN_CELLS)] * len(keys)).flatmap(
            lambda cells: st.lists(
                st.tuples(*cells).map(lambda row: dict(zip(keys, row))),
                min_size=min_rows, max_size=5,
            )
        )
    )


def _reorder_last(records):
    return records[:-1] + [dict(reversed(records[-1].items()))]


# lists of non-empty lists of one scalar type
_ARRAYS = st.sampled_from(_ARRAY_CELLS).flatmap(
    lambda cell: st.lists(cell, min_size=1, max_size=5)
)
# shapes one step from a column path, which must be printed item by item:
# a record with its keys in another order, {} records, and inner lists
# that may be empty, None, or hold True beside 1
_NEAR_MISSES = (
    _record_lists(2, 2).map(_reorder_last)
    | st.lists(st.just({}), min_size=1, max_size=3)
    | st.lists(
        st.lists(st.booleans() | st.integers(), max_size=3) | st.none(),
        min_size=1, max_size=5,
    )
)


def assert_same_text_or_error(write, oracle):
    """write() returns the text oracle() returns, or raises the ValueError
    it raises, with the same message: an int past the int-to-str limit."""
    try:
        expected = oracle()
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            write()
        assert str(raised.value) == str(exc)
    else:
        assert write() == expected


# one more digit than str() prints; with the limit off, an int that prints
_PAST_THE_LIMIT = 10 ** (sys.get_int_max_str_digits() or 4300)
# columns of the record template's kinds, one step from its own fields: a
# names column in which one name needs escaping, % in names and str cells,
# a list of names that is empty, and an int that does not print
_RECORD_EXAMPLES = [
    *(
        (("volume", "count", "names"), [(1.5, 2, ["m004", "a"]), (2.5, 1, ["s%d" % i, c])])
        for i, c in enumerate(["é", '"', "\\", "\x1f"])
    ),
    (("name", "%s", "names"), [("%", "%s", ["%", "%s"]), ("%%s", "a%db", ["%(k)s"])]),
    (("count", "names"), [(1, ["a"]), (0, [])]),
    (("count", "n"), [(1, 2), (_PAST_THE_LIMIT, 3)]),
]


def _with_examples(name, payloads):
    """The test with an explicit example for each payload."""
    def decorate(test):
        for payload in reversed(payloads):
            test = example(**{name: payload})(test)
        return test
    return decorate


@settings(max_examples=500, deadline=None, derandomize=True)
@given(payload=_payloads(_SCALAR | _FLAT_LISTS | _record_lists() | _ARRAYS | _NEAR_MISSES))
@_with_examples("payload", [
    [dict(zip(keys, row)) for row in rows] for keys, rows in _RECORD_EXAMPLES
])
def test_writer_matches_the_recursive_writer(payload):
    for indent in (0, None, 3):
        assert_same_text_or_error(
            lambda: _json_text(payload, indent), lambda: recursive_json_text(payload, indent)
        )


# lists drawn from a few int lists, so that equal lists repeat, in runs
# when sorted: of one length or mixed lengths, some with True or False
# beside ints, which must not print as 1 or 0
_INT_LIST_POOLS = st.lists(
    st.lists(st.integers(-3, 3) | st.integers(), max_size=3)
    | st.lists(st.integers(0, 2) | st.booleans(), min_size=1, max_size=3),
    min_size=1, max_size=4,
)
_REPEATED_INT_LISTS = _INT_LIST_POOLS.flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=30)
).flatmap(lambda items: st.sampled_from([items, sorted(items)]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(items=_REPEATED_INT_LISTS)
def test_writer_prints_repeated_int_lists_as_json_does(items):
    for payload in (items, {"k": items}, [{"k": items}, {"k": items[::-1]}]):
        assert _json_text(payload) == json.dumps(payload, indent=2)
        assert _json_text(payload, None) == json.dumps(payload, separators=(",", ":"))
    # as a Table column of tuple cells
    if all(items):
        rows = [(tuple(item), i) for i, item in enumerate(items)]
        meaning = table_meaning(("k", "i"), rows)
        table = Table(("k", "i"), columns_of(("k", "i"), rows))
        assert render(table, "json") == json.dumps(meaning, indent=2) + "\n"


def test_writer_prints_repeated_int_lists_of_each_length():
    for length in (1, 2, 3, 5):
        item = list(range(7, 7 + length))
        payload = [item, item, [1] * length, item]
        assert _json_text(payload) == json.dumps(payload, indent=2)
        assert _json_text(payload, None) == json.dumps(payload, separators=(",", ":"))
    assert _json_text([[1, 2], [1, 2], [True, 2]], None) == "[[1,2],[1,2],[true,2]]"
    assert _json_text([[1, 2], [1, 2, 3], [1, 2]], None) == "[[1,2],[1,2,3],[1,2]]"
    # equal float lists may print apart
    assert _json_text([[0.0], [-0.0], [0.0]], None) == "[[0],[-0],[0]]"


def test_writer_keeps_bool_and_int_apart():
    assert _json_text([True, 1, False, 0], None) == "[true,1,false,0]"
    assert _json_text([1, True], None) == "[1,true]"
    assert _json_text({"a": [True, True], "b": [0, 1]}, None) == (
        '{"a":[true,true],"b":[0,1]}'
    )


@pytest.mark.parametrize("value", [{1, 2}, b"x", 1j, object()])
def test_writer_refuses_other_types(value):
    # the last three take the column paths but for the value
    for payload in (
        value, [value], [1, value], {"k": value},
        [value, value], [{"k": value}, {"k": value}], [[1], [value]],
    ):
        with pytest.raises(TypeError, match="cannot serialize"):
            _json_text(payload)


def test_records_with_a_non_str_key_are_refused_as_one_dict_is():
    with pytest.raises(TypeError) as one:
        _json_text({1: 2})
    for payload in ([{1: 2}, {1: 3}], {"k": [{1: 2}, {1: 3}]}):
        with pytest.raises(TypeError) as records:
            _json_text(payload)
        assert str(records.value) == str(one.value)


def as_lists(obj):
    """The payload with every tuple read as a list, as json.dumps reads it."""
    if isinstance(obj, (list, tuple)):
        return [as_lists(v) for v in obj]
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    return obj


# float-free payloads in which any list may be a tuple, at any depth, with
# the shapes that take a column path: repeated int lists, lists of
# one-type sequences, and records whose cells are tuples
_TUPLE_CELLS = [
    st.lists(cell, min_size=1, max_size=3).map(tuple)
    for cell in (st.none(), st.booleans(), st.integers(), _TEXT)
]
_TUPLE_RECORDS = st.sampled_from(_TUPLE_CELLS).flatmap(
    lambda cell: st.lists(st.fixed_dictionaries({"k": cell, "%s": cell}), min_size=2, max_size=4)
)
_TUPLED = st.recursive(
    _FLOAT_FREE
    | _REPEATED_INT_LISTS.map(lambda items: [tuple(i) for i in items])
    | _REPEATED_INT_LISTS.map(lambda items: tuple(map(tuple, items)))
    | st.sampled_from(_TUPLE_CELLS).flatmap(lambda cell: st.lists(cell, min_size=2, max_size=5))
    | _TUPLE_RECORDS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5), kids, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=_TUPLED)
def test_tuples_print_as_json_dumps_prints_them(payload):
    assert render(payload, "json") == json.dumps(payload, indent=2) + "\n"
    assert _json_text(payload, None) == json.dumps(payload, separators=(",", ":"))


def text_table(header, rows):
    """csv and table text of a header and rows of cells, built cell by
    cell: csv.writer, and str.ljust on each cell.  A str cell is printed
    as it is, any other cell as compact JSON.  Oracle for render's csv and
    table formats."""
    cells = [
        [c if isinstance(c, str) else recursive_json_text(as_lists(c), None) for c in row]
        for row in rows
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(cells)
    widths = [max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(header)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
        *("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells),
    ]
    return {"csv": buf.getvalue(), "table": "\n".join(lines) + "\n"}


def table_meaning(keys, rows):
    return [dict(zip(keys, map(as_lists, row))) for row in rows]


def columns_of(keys, rows):
    """The columns that hold the rows, one per key."""
    return [[row[i] for row in rows] for i in range(len(keys))]


# a column may mix types, and a sequence cell is a list or a tuple
_TABLE_CELLS = [
    *_COLUMN_CELLS,
    *[cell.map(tuple) for cell in _ARRAY_CELLS],
    _SCALAR | _FLAT_LISTS | _FLAT_LISTS.map(tuple),
]
_TABLES = st.lists(_KEY, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.tuples(*[st.sampled_from(_TABLE_CELLS)] * len(keys)).flatmap(
        lambda cells: st.tuples(st.just(tuple(keys)), st.lists(st.tuples(*cells), max_size=5))
    )
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(table=_TABLES)
# a last column of width 0: the rule line keeps its trailing separator
@example(table=(("a", ""), [("x", "")]))
@_with_examples("table", [
    (keys, [tuple(tuple(c) if type(c) is list else c for c in row) for row in rows])
    for keys, rows in _RECORD_EXAMPLES
])
def test_table_renders_as_the_list_of_dicts_it_means(table):
    keys, rows = table
    columns = columns_of(keys, rows)
    assert_same_text_or_error(
        lambda: render(Table(keys, columns), "json"),
        lambda: recursive_json_text(table_meaning(keys, rows)) + "\n",
    )
    for fmt in ("csv", "table"):
        # a table with no rows prints no header
        assert_same_text_or_error(
            lambda: render(Table(keys, columns), fmt),
            lambda: text_table(keys, rows)[fmt] if rows else {"csv": "", "table": "\n"}[fmt],
        )


_CLUSTER_KEYS = ("volume", "count", "names")


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("columns, message", [
    # a short column, first or last, and a long one
    ([[1.5, 2.5], [2, 1], [("a", "b")]], "the columns of a table differ in length"),
    ([[], [2], [("a", "b")]], "the columns of a table differ in length"),
    ([[1.5, 2.5], [2, 1], [("a", "b"), ("c",), ("d",)]], "the columns of a table differ in length"),
    # a missing column and one too many
    ([[1.5, 2.5], [2, 1]], "a table with 3 keys has 2 columns"),
    ([[1.5], [2], [("a", "b")], [0]], "a table with 3 keys has 4 columns"),
])
def test_table_columns_are_one_per_key_and_of_one_length(columns, message, fmt):
    with pytest.raises(ValueError) as raised:
        render(Table(_CLUSTER_KEYS, columns), fmt)
    assert str(raised.value) == message
    if fmt == "json":
        with pytest.raises(ValueError) as raised:
            render({"clusters": Table(_CLUSTER_KEYS, columns)}, fmt)
        assert str(raised.value) == message


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=st.dictionaries(
    _KEY, _SCALAR | _FLAT_LISTS | _record_lists() | _ARRAYS | _NEAR_MISSES | _TUPLED, max_size=5
))
def test_dict_renders_as_its_key_value_rows(payload):
    # an empty dict still prints its header
    expected = text_table(["key", "value"], list(payload.items()))
    for fmt in ("csv", "table"):
        assert render(payload, fmt) == expected[fmt]
