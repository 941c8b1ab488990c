"""The structured writer is ``json.dumps(doc, indent=2)`` plus a newline, byte
for byte, on every document shape the package writes: scalars by exact type
or by ``isinstance``, lists of only str or only int, and lists of records
that share one key sequence, written item by item up to eight records and by
columns above."""

from __future__ import annotations

import argparse
import enum
import json
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crring import cli
from test_golden import DATA

strings = st.text() | st.sampled_from(
    ["</", "</script>", '"\\/', "\x00\x1f\x7f", "é", "\u2028", "\ud800", "😀"]
)
integers = st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
scalars = strings | integers | st.booleans() | st.none()
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.lists(strings)
        | st.dictionaries(strings, children)
    ),
    max_leaves=40,
)


@given(documents)
@example("1/2")
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[]], "d": [{}]})
@example([["0", "1/2"], ["0", 0], [None, "0"], [True, "x", False]])
@example({"pairing": [["0"] * 3] * 2, "degrees": ["0", "2/3"], "n": -(10**30)})
def test_structured_is_json_dumps_indent_2(doc):
    assert cli._structured(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [1.5, {1: "x"}, [object()]], ids=["float", "int-key", "object"])
def test_structured_refuses_what_the_package_never_writes(doc):
    with pytest.raises(TypeError):
        cli._structured(doc)


@st.composite
def shared_documents(draw):
    """Documents holding one list of records (dicts), and one list, tuple or
    dict around it, each at several positions and depths."""
    records = st.dictionaries(strings, scalars, max_size=3)
    first, rest = draw(st.tuples(records, st.lists(records | scalars, max_size=3)))
    inner = [first, *rest]
    children = (
        scalars
        | st.just(inner)
        | st.dictionaries(strings, st.just(inner) | scalars, min_size=1, max_size=2)
    )
    node = draw(
        st.lists(children, min_size=1, max_size=4)
        | st.lists(children, min_size=1, max_size=4).map(tuple)
        | st.dictionaries(strings, children, min_size=1, max_size=4)
    )
    skeleton = draw(
        st.recursive(
            st.just(node) | st.just(inner) | scalars,
            lambda nested: (
                st.lists(nested, max_size=4) | st.dictionaries(strings, nested, max_size=4)
            ),
            max_leaves=10,
        )
    )
    return [node, {"deep": [[node], inner]}, skeleton, inner]


_terms = [{"coeff": "1"}]
_record = {"terms": _terms, "rows": [_terms, [_terms]]}


@given(shared_documents())
@example([_terms, {"deep": [[_terms], _terms]}, _terms])
@example({"products": [_record, _record, [_record]], "terms": _terms})
def test_structured_renders_a_shared_node_at_each_of_its_indentations(doc):
    assert cli._structured(doc) == json.dumps(doc, indent=2) + "\n"


keys = strings | st.sampled_from(["%", "%s", "%%", "%(x)s", "%d%%s", "a%"])
values = (
    scalars
    | st.lists(integers, max_size=4)
    | st.lists(strings, max_size=4)
    | st.sampled_from([[], {}, ()])
    | st.dictionaries(keys, scalars | st.lists(integers, max_size=3), max_size=3)
)


@st.composite
def record_lists(draw):
    """A list or tuple of two or more records (dicts) with one key sequence,
    at a drawn depth in a document."""
    names = draw(st.lists(keys, unique=True, max_size=5))
    records = [{k: draw(values) for k in names} for _ in range(draw(st.integers(2, 5)))]
    listed = tuple(records) if draw(st.booleans()) else records
    return draw(st.sampled_from([listed, {"records": listed}, [[listed], "%s"]]))


class _Power(enum.IntEnum):
    TWO = 2


class _Text(str):
    pass


@given(record_lists())
@example([{"%s": 1, "a": [1, 2]}])
@example([{"a": 1, "b": "x"}, {"b": "y", "a": 2}])
@example([{"a": 1}, {"a": 2}, 3, "x", None])
@example(({"%(x)s": "1", "%%": [1]}, {"%(x)s": "2", "%%": []}))
@example([{}, {}])
@example([{"k": _Power.TWO, "t": _Text("%s"), "b": True}, {"k": False, "t": None, "b": [_Power.TWO]}])
def test_a_list_of_records_renders_through_one_template(doc):
    assert cli._structured(doc) == json.dumps(doc, indent=2) + "\n"


def column(count: int, depth: int):
    """``count`` values of one column type, strings with ``%`` among them:
    str; int with bool and ``_Power`` mixed in; nonempty lists of only str or
    only int; fresh empty lists; empty and nonempty lists; tuples; one shared
    list, of scalars or of records, repeated; and, while ``depth`` lasts,
    records with one key sequence."""
    def of(values):
        return st.lists(values, min_size=count, max_size=count)

    shared = st.lists(keys | integers, max_size=3) | st.lists(
        st.dictionaries(keys, scalars, max_size=2), min_size=1, max_size=2
    )
    kinds = [
        of(keys),
        of(integers) | of(integers | st.booleans() | st.just(_Power.TWO)),
        of(st.lists(keys, min_size=1, max_size=3)) | of(st.lists(integers, min_size=1, max_size=3)),
        st.builds(lambda: [[] for _ in range(count)]),
        of(st.lists(integers, max_size=2)).map(lambda lists: [[], [1], *lists[2:]]),
        of(st.lists(integers, max_size=2).map(tuple)),
        shared.map(lambda value: [value] * count),
    ]
    return st.one_of(kinds + [column_records(count, depth - 1)] if depth else kinds)


def column_records(count: int, depth: int):
    """``count`` records with one key sequence, each key drawing one column
    type of ``column``."""
    return st.lists(keys, unique=True, min_size=1, max_size=4).flatmap(
        lambda names: st.tuples(*(column(count, depth) for _ in names)).map(
            lambda columns: [dict(zip(names, row)) for row in zip(*columns)]
        )
    )


@st.composite
def column_lists(draw):
    """A list or tuple of two to twelve such records, on both sides of the
    writer's column threshold, at a drawn depth in a document."""
    records = draw(st.integers(2, 12).flatmap(lambda count: column_records(count, 2)))
    listed = tuple(records) if draw(st.booleans()) else records
    return draw(st.sampled_from([listed, {"records": listed}, [[listed], "%s"]]))


def printed(command: str, name: str):
    """The document that ``command`` hands the writer on a golden datum, with
    its shared lists and labels."""
    args = argparse.Namespace(format="structured")
    with mock.patch.object(cli, "_structured", lambda doc: doc):
        return cli._COMMANDS[command][0](args, cli._load(str(DATA[name])))[0]


@given(column_lists())
@example(printed("sectors", "z4_154"))
@example(printed("basis", "z4_154"))
@example(printed("table", "z4_154"))
@example(printed("sectors", "p1_25"))
@example(printed("basis", "p1_25"))
@example(printed("table", "p1_25"))
@example([{"%": [], "%s": "%%"} for _ in range(9)])
@example([{"%": [k] * (k % 2), "%s": ["%%"] * (k % 3)} for k in range(9)])
@example([{"%%": [1], "b": [_terms, []][k % 2]} for k in range(10)])
@example([{"a": 1, "b": "x"}, {"b": "y", "a": 2}] * 5)
def test_a_list_of_records_renders_by_columns(doc):
    assert cli._structured(doc) == json.dumps(doc, indent=2) + "\n"
