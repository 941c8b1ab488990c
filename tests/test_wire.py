"""The wire format takes JSON integers as integers only (``true`` is no 1,
``"2"`` and 1.9 are no 2), and every malformed document raises
``DatumFormatError``, never a bare KeyError, TypeError or ValueError."""

from __future__ import annotations

import copy
import json

import pytest

from crring import (
    ChenRuanRing,
    CRClass,
    DatumFormatError,
    QuotientDatum,
    cr_class_from_doc,
    datum_from_doc,
    label_from_doc,
    table_from_doc,
    table_to_doc,
    validate_datum,
)
from crring.ring import _Reader

from test_golden import DATA as GOLDEN_DATA
from test_golden import GOLDEN


def _datum_doc(**changes) -> dict:
    doc = {
        "n": 2,
        "weights": [1, 2],
        "finite": [{"order": 3, "phases": [0, 1]}],
        "chamber": "positive",
    }
    for key, value in changes.items():
        if key in ("order", "phases"):
            doc["finite"][0][key] = value
        else:
            doc[key] = value
    return doc


def test_datum_doc_baseline_parses():
    assert datum_from_doc(_datum_doc()).weights == (1, 2)


@pytest.mark.parametrize(
    "changes",
    [
        {"n": True, "weights": [1], "finite": []},
        {"n": 2.0},
        {"weights": [True, 2]},
        {"order": True},
        {"phases": [True, 2]},
        {"phases": [1, 2.0]},
    ],
    ids=["n-bool", "n-float", "weight-bool", "order-bool", "phase-bool", "phase-float"],
)
def test_datum_doc_rejects_non_integers(changes):
    with pytest.raises(DatumFormatError):
        datum_from_doc(_datum_doc(**changes))


@pytest.mark.parametrize(
    "doc",
    [
        {"c": "1/2", "finite": [True]},
        {"c": "1/2", "finite": ["1"]},
        {"c": "1/2", "finite": 1},
        {"c": 0.5, "finite": []},
        {"c": "1/0", "finite": []},
    ],
    ids=["component-bool", "component-str", "components-int", "c-float", "c-zero-denominator"],
)
def test_label_doc_rejects_malformed(doc):
    with pytest.raises(DatumFormatError):
        label_from_doc(doc)


def test_label_doc_with_wrong_component_count_is_a_format_error():
    vd = validate_datum(datum_from_doc(_datum_doc()))
    with pytest.raises(DatumFormatError):
        label_from_doc({"c": "0", "finite": [1, 1]}, vd)


@pytest.mark.parametrize("power", [True, "2", 1.9, None], ids=["bool", "str", "float", "null"])
def test_element_doc_requires_an_integer_eta_power(power):
    doc = {"sector": {"c": "0", "finite": []}, "eta_power": power}
    with pytest.raises(DatumFormatError):
        _Reader(None).element(doc)


def test_element_doc_keeps_an_integer_eta_power():
    element = _Reader(None).element({"sector": {"c": "1/2", "finite": []}, "eta_power": 1})
    assert element.k == 1 and type(element.k) is int


_COEFF = "a term record needs a rational 'coeff':"


def _unit_term(coeff: str) -> list[dict]:
    return [{"sector": {"c": "0", "finite": []}, "eta_power": 0, "coeff": coeff}]


@pytest.mark.parametrize(
    "doc,message",
    [
        ([{"sector": {"c": "0", "finite": []}, "eta_power": 0}], None),
        ([{"sector": {"c": "0", "finite": []}, "eta_power": 0, "coeff": 2}], None),
        ([{"sector": {"c": "0", "finite": []}, "eta_power": 0, "coeff": "x"}], None),
        (["term"], None),
        # rational text the writer never writes
        (_unit_term("2/4"), f"{_COEFF} rational '2/4' must be written '1/2'"),
        (_unit_term("-0"), f"{_COEFF} rational '-0' must be written '0'"),
        (_unit_term("\u0661"), f"{_COEFF} rational '\u0661' must be written '1'"),
    ],
    ids=[
        "missing-coeff",
        "coeff-int",
        "coeff-text",
        "record-str",
        "coeff-unreduced",
        "coeff-minus-zero",
        "coeff-unicode-digit",
    ],
)
def test_class_doc_rejects_malformed(doc, message):
    # a pinned text is the same with the datum
    for vd in (None, validate_datum(datum_from_doc(_datum_doc()))) if message else (None,):
        with pytest.raises(DatumFormatError) as caught:
            cr_class_from_doc(doc, vd)
        if message is not None:
            assert str(caught.value) == message


@pytest.mark.parametrize("with_datum", [False, True], ids=["bare", "datum"])
def test_label_memo_never_skips_a_records_checks(with_datum):
    # ("0", (True,)) is an equal memo key to ("0", (1,)), but only the first
    # term's label is a valid record
    vd = validate_datum(datum_from_doc(_datum_doc())) if with_datum else None
    good = {"sector": {"c": "0", "finite": [1]}, "eta_power": 0, "coeff": "1"}
    bad = {"sector": {"c": "0", "finite": [True]}, "eta_power": 0, "coeff": "1"}
    assert cr_class_from_doc([good, good], vd) != CRClass()
    with pytest.raises(DatumFormatError):
        cr_class_from_doc([good, bad], vd)


def _last_term(field: str, value):
    """An edit of the last product record's first term: ``field`` set to
    ``value``, or removed when ``value`` is None."""

    def edit(doc):
        term = doc["products"][-1]["terms"][0]
        if value is None:
            del term[field]
        else:
            term[field] = value

    return edit


@pytest.mark.parametrize("with_datum", [False, True], ids=["bare", "datum"])
@pytest.mark.parametrize(
    "edit,bare,datum",
    [
        (_last_term("eta_power", True), "eta_power must be an integer, got True", None),
        (
            _last_term("coeff", 1),
            "a term record needs a rational 'coeff': not a rational in p/q form: 1",
            None,
        ),
        (_last_term("coeff", None), "a term record needs a rational 'coeff': 'coeff'", None),
        (
            _last_term("eta_power", 7),
            "product record (3, 3) names eta^7*1_(c=0), outside the basis",
            "eta power 7 of c=0 is outside [0, 2]",
        ),
    ],
    ids=["eta-power-bool", "coeff-int", "coeff-missing", "term-outside-the-basis"],
)
def test_class_memo_never_skips_a_records_checks(with_datum, edit, bare, datum):
    # on P(1,1,2), records (0, 2), (1, 1) and (3, 3) are all eta^2*1_(c=0):
    # the last record repeats a class the reader has already built and checked
    vd = validate_datum(QuotientDatum((1, 1, 2)))
    doc = json.loads(json.dumps(table_to_doc(ChenRuanRing(vd).structure_constants())))
    table = table_from_doc(doc, vd if with_datum else None)
    assert table.products[(3, 3)] is table.products[(1, 1)] is table.products[(0, 2)]
    with pytest.raises(DatumFormatError) as caught:
        table_from_doc(_broken(doc, edit), vd if with_datum else None)
    assert str(caught.value) == (datum or bare if with_datum else bare)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.table.json")), ids=lambda p: p.stem)
def test_golden_tables_reemit_as_read(path):
    doc = json.loads(path.read_text())
    datum = GOLDEN_DATA[path.name.split(".")[0]]
    vd = validate_datum(datum_from_doc(json.loads(datum.read_text())))
    for reader_vd in (None, vd):
        assert table_to_doc(table_from_doc(doc, reader_vd)) == doc
    # the writer's rule, which the reader enforces: one term per record, in
    # strictly increasing (i, j) order
    keys = [(record["i"], record["j"]) for record in doc["products"]]
    assert keys == sorted(set(keys))
    assert all(len(record["terms"]) == 1 for record in doc["products"])


@pytest.fixture(scope="module")
def table_doc():
    vd = validate_datum(QuotientDatum((1, 1, 2)))
    return table_to_doc(ChenRuanRing(vd).structure_constants())


def _broken(doc: dict, edit) -> dict:
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.pop("products"), None),
        (lambda d: d.pop("basis"), None),
        (lambda d: d.update(degrees="2"), None),
        (lambda d: d.update(pairing=[["1"], "0"]), None),
        (lambda d: d["pairing"][0].__setitem__(0, 1), None),
        (lambda d: d["degrees"].__setitem__(0, None), None),
        (lambda d: d["products"][0].pop("terms"), None),
        (lambda d: d["products"][0].pop("i"), None),
        (lambda d: d["products"][0].__setitem__("j", True), None),
        (lambda d: d["products"][0].__setitem__("i", "0"), None),
        (lambda d: d["products"].__setitem__(0, 7), None),
        (lambda d: d["basis"][0].__setitem__("eta_power", False), None),
        (lambda d: d["degrees"].append("0"), None),
        (lambda d: d["degrees"].pop(), None),
        (lambda d: d["pairing"].pop(), None),
        (lambda d: d["pairing"][0].pop(), None),
        (lambda d: d["pairing"][1].append("0"), None),
        (lambda d: d["products"][0].__setitem__("i", 7), None),
        (lambda d: d["products"][0].__setitem__("j", -3), None),
        (lambda d: d["products"][0].__setitem__("j", len(d["basis"])), None),
        # one basis element, three degrees, pairing rows of two and one entries
        (
            lambda d: d.update(
                basis=d["basis"][:1], degrees=["0", "2", "4"], pairing=[["1/2", "0"], ["0"]],
                products=[{"i": 7, "j": -3, "terms": []}],
            ),
            None,
        ),
        (lambda d: d["products"].append(copy.deepcopy(d["products"][0])), None),
        (lambda d: d["products"][3].update(i=3, j=0), None),
        (lambda d: d["products"][0]["terms"][0]["sector"].__setitem__("c", "1/3"), None),
        # terms that no table writes: a zero product, a zero coefficient, a
        # term named twice, two terms that cancel and two different terms
        (
            lambda d: d["products"][0].__setitem__("terms", []),
            "product record (0, 0) has 0 terms, not 1",
        ),
        (
            lambda d: d["products"][0]["terms"][0].__setitem__("coeff", "0"),
            "product record (0, 0) has a zero coefficient of eta^0*1_(c=0)",
        ),
        (
            lambda d: d["products"][0]["terms"].append(dict(d["products"][0]["terms"][0])),
            "product record (0, 0) has 2 terms, not 1",
        ),
        (
            lambda d: d["products"][0]["terms"].append(
                {**d["products"][0]["terms"][0], "coeff": "-1"}
            ),
            "product record (0, 0) has 2 terms, not 1",
        ),
        (
            lambda d: d["products"][0]["terms"].append({**d["basis"][1], "coeff": "1"}),
            "product record (0, 0) has 2 terms, not 1",
        ),
        # records in the writer's (i, j) order: (1, 1) and (3, 3) exchanged
        (
            lambda d: d["products"].__setitem__(slice(4, 6), d["products"][5:3:-1]),
            "product record (1, 1) does not follow (3, 3)",
        ),
        # rational text the writer never writes
        (
            lambda d: d["products"][0]["terms"][0].__setitem__("coeff", "2/2"),
            f"{_COEFF} rational '2/2' must be written '1'",
        ),
        (
            lambda d: d["products"][0]["terms"][0].__setitem__("coeff", "1/1"),
            f"{_COEFF} rational '1/1' must be written '1'",
        ),
        (lambda d: d["degrees"].__setitem__(0, "-0"), "rational '-0' must be written '0'"),
        (lambda d: d["degrees"].__setitem__(1, "02"), "rational '02' must be written '2'"),
        (
            lambda d: d["degrees"].__setitem__(1, "\u0662"),
            "rational '\u0662' must be written '2'",
        ),
        (lambda d: d["pairing"][0].__setitem__(0, "00"), "rational '00' must be written '0'"),
        (lambda d: d["pairing"][0].__setitem__(2, "2/4"), "rational '2/4' must be written '1/2'"),
    ],
    ids=[
        "missing-products",
        "missing-basis",
        "degrees-str",
        "pairing-row-str",
        "pairing-entry-int",
        "degree-null",
        "missing-terms",
        "missing-i",
        "j-bool",
        "i-str",
        "product-int",
        "eta-power-bool",
        "degree-extra",
        "degree-missing",
        "pairing-row-missing",
        "pairing-row-short",
        "pairing-row-long",
        "i-past-the-basis",
        "j-negative",
        "j-at-the-basis-size",
        "inconsistent-shape",
        "repeated-record",
        "i-above-j",
        "term-outside-the-basis",
        "terms-empty",
        "coeff-zero",
        "term-repeated",
        "terms-cancel",
        "two-terms",
        "records-swapped",
        "coeff-unreduced",
        "coeff-over-one",
        "degree-minus-zero",
        "degree-leading-zero",
        "degree-unicode-digit",
        "pairing-entry-leading-zero",
        "pairing-entry-unreduced",
    ],
)
def test_table_doc_rejects_malformed(table_doc, edit, message):
    # a pinned text is the same with the datum
    for vd in (None, validate_datum(QuotientDatum((1, 1, 2)))) if message else (None,):
        with pytest.raises(DatumFormatError) as caught:
            table_from_doc(_broken(table_doc, edit), vd)
        if message is not None:
            assert str(caught.value) == message


def test_table_doc_rejects_a_non_mapping():
    with pytest.raises(DatumFormatError):
        table_from_doc([])


@pytest.mark.parametrize(
    "entries,message",
    [
        ({(0, 1): 1}, "not a rational in p/q form: 1"),
        ({(0, 1): True}, "not a rational in p/q form: True"),
        ({(0, 1): None}, "not a rational in p/q form: None"),
        ({(0, 1): [1]}, "not a rational in p/q form: [1]"),
        ({(0, 1): {"p": 1}}, "not a rational in p/q form: {'p': 1}"),
        ({(0, 3): None, (1, 0): [1]}, "not a rational in p/q form: None"),
        ({(0, 3): [1], (1, 0): None}, "not a rational in p/q form: [1]"),
        ({(1, 2): 1, (2, 1): True}, "not a rational in p/q form: 1"),
        ({(1, 2): True, (2, 1): 1}, "not a rational in p/q form: True"),
        ({(0, 2): "1/0", (2, 0): "x"}, "zero denominator in '1/0'"),
        ({(2, 0): "1/0", (0, 2): "x"}, "not a rational in p/q form: 'x'"),
        # text the writer never writes, before a malformed entry
        ({(0, 1): "00", (1, 0): "x"}, "rational '00' must be written '0'"),
        ({(0, 2): "2/4", (2, 0): None}, "rational '2/4' must be written '1/2'"),
        ({(0, 1): "-0", (1, 0): [1]}, "rational '-0' must be written '0'"),
    ],
    ids=[
        "int",
        "bool",
        "null",
        "list",
        "dict",
        "null-then-list",
        "list-then-null",
        "1-then-true",
        "true-then-1",
        "zero-denominator-first",
        "bad-string-first",
        "leading-zero-then-bad-string",
        "unreduced-then-null",
        "minus-zero-then-list",
    ],
)
def test_table_reader_names_the_first_bad_pairing_entry(table_doc, entries, message):
    # the first bad entry in row-major order, whatever its type and whatever
    # equal entry follows it
    def edit(doc):
        for (i, j), value in entries.items():
            doc["pairing"][i][j] = value

    with pytest.raises(DatumFormatError) as caught:
        table_from_doc(_broken(table_doc, edit))
    assert str(caught.value) == message


def test_table_reader_refuses_a_pairing_row_that_is_a_string(table_doc):
    with pytest.raises(DatumFormatError) as caught:
        table_from_doc(_broken(table_doc, lambda d: d["pairing"].__setitem__(1, "0000")))
    assert str(caught.value) == "pairing rows must be lists"
