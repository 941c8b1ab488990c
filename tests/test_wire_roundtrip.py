"""The table wire path round-trips byte for byte, and a reader given a datum
refuses basis elements that do not exist in the datum's chamber."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from crring import (
    BasisElement,
    CRClass,
    ChenRuanRing,
    DatumFormatError,
    QuotientDatum,
    ValidatedDatum,
    cli,
    cr_class_from_doc,
    datum_from_doc,
    datum_to_doc,
    table_from_doc,
    table_to_doc,
    validate_datum,
)
from crring.ring import _Reader

from test_acceptance import _random_datum

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "data"


def _criterion6_finite() -> list[QuotientDatum]:
    """The finite-factor data of acceptance criterion 6, drawn the same way."""
    rng = random.Random(20260810)
    for _ in range(50):
        _random_datum(rng, False)
    return [_random_datum(rng, True) for _ in range(10)]


DATA = {
    **{path.stem: json.loads(path.read_text()) for path in sorted(DEMOS.glob("*.datum"))},
    "neg_122": datum_to_doc(QuotientDatum((-1, -2, -2), (), "negative")),
    **{f"c6f_{i}": datum_to_doc(d) for i, d in enumerate(_criterion6_finite())},
}


@pytest.mark.parametrize("name", list(DATA))
def test_table_round_trips_byte_for_byte(name, tmp_path):
    datum, out = tmp_path / "datum.json", tmp_path / "table.json"
    datum.write_text(json.dumps(DATA[name]))
    assert cli.main(["table", str(datum), "--out", str(out)]) == 0
    text = out.read_text()
    vd = validate_datum(datum_from_doc(DATA[name]))
    built = ChenRuanRing(vd).structure_constants()
    for reader_vd in (None, vd):
        parsed = table_from_doc(json.loads(text), reader_vd)
        assert parsed == built
        assert json.dumps(table_to_doc(parsed), indent=2) + "\n" == text


@pytest.fixture(scope="module")
def wp112():
    return validate_datum(QuotientDatum((1, 1, 2)))


def _term(c: str, k: int) -> dict:
    return {"sector": {"c": c, "finite": []}, "eta_power": k, "coeff": "1"}


@pytest.mark.parametrize(
    "c,k", [("1/2", 7), ("0", -1), ("0", 3)], ids=["above-dim", "negative", "above-top"]
)
def test_reader_with_datum_refuses_eta_power_outside_dim(wp112, c, k):
    with pytest.raises(DatumFormatError, match="outside"):
        _Reader(wp112).element(_term(c, k))
    with pytest.raises(DatumFormatError, match="outside"):
        cr_class_from_doc([_term(c, k)], wp112)
    # without a datum the reader checks shape and type only
    assert _Reader(None).element(_term(c, k)).k == k


@pytest.mark.parametrize(
    "weights,c,text",
    [
        ((1, 1, 2), "1/3", "c=1/3 fixes no coordinate"),
        ((1, -2), "1/2", "c=1/2 has no fixed coordinate on the positive side of the wall"),
    ],
    ids=["fixes-nothing", "other-chamber"],
)
def test_reader_with_datum_refuses_a_label_that_is_no_sector(weights, c, text):
    vd = validate_datum(QuotientDatum(weights))
    with pytest.raises(DatumFormatError) as refusal:
        _Reader(vd).element(_term(c, 0))
    assert (type(refusal.value), str(refusal.value)) == (DatumFormatError, text)
    assert _Reader(None).element(_term(c, 0)).sector.c == vd.label(c).c


def test_the_reader_checks_each_element_once_and_builds_no_sector_table(monkeypatch):
    """With a datum, the reader accepts and refuses elements without a sector
    table, and reads each distinct basis element of a table document
    through ``sector_row`` once."""
    wp122333 = QuotientDatum((1, 2, 2, 3, 3, 3))
    doc = table_to_doc(ChenRuanRing(validate_datum(wp122333)).structure_constants())
    sector_row, rows = ValidatedDatum.sector_row, []

    def refuse(vd, chamber):
        raise AssertionError(f"the {chamber} sector table was built")

    def counted(vd, t, chamber=None, k=None):
        rows.append((t, k))
        return sector_row(vd, t, chamber, k)

    monkeypatch.setattr(ValidatedDatum, "_build_table", refuse)
    monkeypatch.setattr(ValidatedDatum, "sector_row", counted)
    wp112 = validate_datum(QuotientDatum((1, 1, 2)))
    assert _Reader(wp112).element(_term("1/2", 0)) == BasisElement(wp112.label(Fraction(1, 2)), 0)
    assert cr_class_from_doc([_term("0", 2), _term("0", 2)], wp112) == CRClass.single(
        BasisElement(wp112.identity(), 2), 2
    )
    for term, text in ((_term("1/3", 0), "c=1/3 fixes no coordinate"),
                       (_term("1/2", 1), "eta power 1 of c=1/2 is outside [0, 0]")):
        for read in (lambda doc, vd: _Reader(vd).element(doc),
                     lambda doc, vd: cr_class_from_doc([doc], vd)):
            with pytest.raises(DatumFormatError) as refusal:
                read(term, wp112)
            assert str(refusal.value) == text
    rows.clear()
    table = table_from_doc(doc, validate_datum(wp122333))
    assert sorted(rows) == sorted(table.basis) and len(table.basis) == 14


def test_table_reader_with_datum_checks_products(wp112):
    doc = table_to_doc(ChenRuanRing(wp112).structure_constants())
    doc["products"][0]["terms"][0]["eta_power"] = 7
    with pytest.raises(DatumFormatError, match=r"eta power 7 of c=0 is outside \[0, 2\]"):
        table_from_doc(doc, wp112)
    # without the datum, the table's own basis refuses the term
    with pytest.raises(DatumFormatError, match=r"names eta\^7\*1_\(c=0\), outside the basis"):
        table_from_doc(doc)


def test_reader_shares_one_value_per_distinct_string(wp112):
    table = table_from_doc(table_to_doc(ChenRuanRing(wp112).structure_constants()), wp112)
    zeros = {id(v) for row in table.pairing for v in row if v == 0}
    assert len(zeros) == 1
