"""The contract of the ten value types: constructors (positional and
keyword, with their defaults), field access, equality and hashing,
immutability, repr, the ordering of labels and basis elements, ``str`` of
both, the label's one Fraction hash, ``SectorTable.labels`` built once, and
``SelfTestReport.passed`` / ``first_failure``."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from crring import (
    BasisElement,
    ChenRuanRing,
    FiniteCyclicFactor,
    PhaseResult,
    QuotientDatum,
    SectorInfo,
    SectorLabel,
    SelfTestReport,
    StructureTable,
    WallCrossingReport,
    validate_datum,
)
from crring.quotient import SectorTable

WP112 = validate_datum(QuotientDatum((1, 1, 2)))
TABLE = WP112.sector_table()
STRUCTURE = ChenRuanRing(WP112).structure_constants()
ZERO, HALF = SectorLabel(Fraction(0)), SectorLabel(Fraction(1, 2))
PASS = PhaseResult("unit", "pass")
FAIL = PhaseResult("associativity", "fail", "(x * y) * z != x * (y * z)")
SIDES = {"positive": (True, True, True), "negative": (False, False, False)}
TABLE_FIELDS = ("moduli", "codes", "thetas", "fixed", "dims", "inverse", "index")
STRUCTURE_FIELDS = ("basis", "degrees", "pairing", "products")

# type, its fields, the values of one instance and those of a different one
# (values as the type stores them: normalized, tuples for sequences)
CASES = [
    (FiniteCyclicFactor, ("order", "phases"), (3, (0, 1, 2)), (3, (0, 2, 1))),
    (
        QuotientDatum,
        ("weights", "finite", "chamber"),
        ((1, 2), (FiniteCyclicFactor(2, (0, 1)),), "negative"),
        ((1, 2), (), "negative"),
    ),
    (SectorLabel, ("c", "finite"), (Fraction(1, 3), (1,)), (Fraction(1, 3), (2,))),
    (
        SectorInfo,
        ("label", "fixed_set", "thetas", "shift", "dim"),
        (HALF, frozenset({2}), (Fraction(1, 2), Fraction(1, 2), Fraction(0)), Fraction(1), 0),
        (ZERO, frozenset({0, 1, 2}), (Fraction(0),) * 3, Fraction(0), 2),
    ),
    (SectorTable, TABLE_FIELDS, tuple(getattr(TABLE, f) for f in TABLE_FIELDS), None),
    (BasisElement, ("sector", "k"), (HALF, 0), (HALF, 1)),
    (PhaseResult, ("name", "status", "detail"), ("unit", "fail", "1 * x"), ("unit", "pass", None)),
    (SelfTestReport, ("phases",), ((PASS, FAIL),), ((PASS,),)),
    (
        StructureTable,
        STRUCTURE_FIELDS,
        tuple(getattr(STRUCTURE, f) for f in STRUCTURE_FIELDS),
        (STRUCTURE.basis, STRUCTURE.degrees, STRUCTURE.pairing, {}),
    ),
    (
        WallCrossingReport,
        ("triple", "value", "degree_check", "side_existence", "note"),
        (((HALF, 0), (HALF, 0), (ZERO, 1)), Fraction(1, 2), -1, SIDES, "a note"),
        (((HALF, 0), (HALF, 0), (ZERO, 1)), Fraction(1, 2), -1, SIDES, None),
    ),
]
IDS = [case[0].__name__ for case in CASES]
# hashing fails on a dict field, as for any frozen record holding one
UNHASHABLE = {StructureTable, WallCrossingReport}


@pytest.mark.parametrize("cls, fields, values, _", CASES, ids=IDS)
def test_constructor_forms_and_fields(cls, fields, values, _):
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    for name, value in zip(fields, values):
        assert getattr(positional, name) == value
        assert getattr(keyword, name) == value


@pytest.mark.parametrize("cls, fields, values, other", CASES, ids=IDS)
def test_equality_and_hash(cls, fields, values, other):
    value = cls(*values)
    if cls is SectorTable:  # compares by identity
        twin = cls(*values)
        assert value == value and value != twin
        assert hash(value) == object.__hash__(value)
        return
    assert value == cls(*values) and not value != cls(*values)
    assert value != cls(*other) and not value == cls(*other)
    assert value != object()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(*values))
        assert len({value, cls(*values), cls(*other)}) == 2


@pytest.mark.parametrize("cls, fields, values, _", CASES, ids=IDS)
def test_immutable(cls, fields, values, _):
    value = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for name, field in zip(fields, values):
        assert getattr(value, name) == field


@pytest.mark.parametrize("cls, fields, values, _", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields, values, _):
    body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({body})"


def test_repr_text():
    assert repr(FiniteCyclicFactor(3, (0, 4))) == "FiniteCyclicFactor(order=3, phases=(0, 1))"
    assert repr(QuotientDatum((1, 2))) == (
        "QuotientDatum(weights=(1, 2), finite=(), chamber='positive')"
    )
    assert repr(BasisElement(HALF, 1)) == (
        "BasisElement(sector=SectorLabel(c=Fraction(1, 2), finite=()), k=1)"
    )
    assert repr(TABLE) == (
        "SectorTable(moduli=(2,), codes=((0,), (1,)), thetas=((0, 0, 0), (1, 1, 0)), "
        "fixed=(7, 4), dims=(2, 0), inverse=(0, 1), index={(0,): 0, (1,): 1})"
    )
    assert repr(PASS) == "PhaseResult(name='unit', status='pass', detail=None)"


def test_defaults():
    assert QuotientDatum((1, 2)) == QuotientDatum((1, 2), (), "positive")
    assert QuotientDatum(weights=(1, 2), chamber="negative").finite == ()
    assert SectorLabel(Fraction(1, 2)).finite == ()
    assert PhaseResult("unit", "pass").detail is None
    report = WallCrossingReport(((HALF, 0), (HALF, 0), (ZERO, 1)), Fraction(1, 2), -1, SIDES)
    assert report.note is None


def test_constructors_normalize_and_refuse():
    assert FiniteCyclicFactor(3, [0, 4, -1]).phases == (0, 1, 2)
    assert QuotientDatum([1, 2], [FiniteCyclicFactor(2, [0, 1])]).weights == (1, 2)
    assert QuotientDatum([1, 2], [FiniteCyclicFactor(2, [0, 1])]).finite == (
        FiniteCyclicFactor(2, (0, 1)),
    )
    assert QuotientDatum((1, 2, 3)).n == 3
    with pytest.raises(ValueError, match="order must be >= 2"):
        FiniteCyclicFactor(1, (0, 0))
    with pytest.raises(ValueError, match="at least one coordinate"):
        QuotientDatum(())
    with pytest.raises(ValueError, match="chamber must be one of"):
        QuotientDatum((1, 2), (), "sideways")
    with pytest.raises(ValueError, match="finite factor has 3 phases for 2 coordinates"):
        QuotientDatum((1, 2), (FiniteCyclicFactor(2, (0, 1, 1)),))


def test_labels_and_elements_are_ordered():
    third, half_one = SectorLabel(Fraction(1, 3)), SectorLabel(Fraction(1, 2), (1,))
    labels = [half_one, HALF, third, ZERO]
    assert sorted(labels) == [ZERO, third, HALF, half_one]
    assert ZERO < third < HALF and HALF <= HALF and HALF >= third and half_one > HALF
    assert not HALF < HALF and not HALF > HALF
    elements = [BasisElement(HALF, 1), BasisElement(ZERO, 2), BasisElement(HALF, 0)]
    assert sorted(elements) == [BasisElement(ZERO, 2), BasisElement(HALF, 0), BasisElement(HALF, 1)]
    assert BasisElement(ZERO, 2) < BasisElement(HALF, 0) <= BasisElement(HALF, 0)
    assert BasisElement(HALF, 1) > BasisElement(HALF, 0) >= BasisElement(ZERO, 2)
    with pytest.raises(TypeError):
        HALF < 1


def test_str_of_labels_and_elements():
    assert str(ZERO) == "c=0"
    assert str(SectorLabel(Fraction(1, 3), (1, 2))) == "c=1/3,a=1:2"
    assert str(BasisElement(HALF, 1)) == "eta^1*1_(c=1/2)"
    assert str(BasisElement(SectorLabel(Fraction(2, 3), (0,)), 0)) == "eta^0*1_(c=2/3,a=0)"


class _CountingFraction(Fraction):
    """A Fraction that counts the calls of its hash."""

    calls = 0

    def __hash__(self):
        type(self).calls += 1
        return super().__hash__()


def test_label_hashes_its_fraction_once():
    _CountingFraction.calls = 0
    label = SectorLabel(_CountingFraction(1, 3), (1,))
    assert _CountingFraction.calls == 0  # not at construction
    assert hash(label) == hash(label) == hash((Fraction(1, 3), (1,)))
    assert {label: 0}[label] == 0
    assert _CountingFraction.calls == 1
    assert {label: 1}[SectorLabel(Fraction(1, 3), (1,))] == 1


def test_table_labels_are_built_once(monkeypatch):
    table = validate_datum(QuotientDatum((1, 2, 3))).sector_table()
    built = []
    original = SectorTable.label
    monkeypatch.setattr(SectorTable, "label", lambda self, s: built.append(s) or original(self, s))
    labels = table.labels
    assert built == list(range(len(table.codes)))
    assert table.labels is labels
    assert built == list(range(len(table.codes)))
    assert labels == tuple(original(table, s) for s in range(len(table.codes)))


def test_self_test_report_passed_and_first_failure():
    other = PhaseResult("frobenius", "fail", "second")
    assert SelfTestReport(()).passed and SelfTestReport(()).first_failure() is None
    assert SelfTestReport((PASS, PhaseResult("x", "skipped"))).passed
    report = SelfTestReport((PASS, FAIL, other))
    assert not report.passed
    assert report.first_failure() is FAIL


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: QuotientDatum((1, 2.5)), "weight 2.5 is a float"),
        (lambda: QuotientDatum((1, True)), "weight True is a bool"),
        (lambda: QuotientDatum(("1", 2)), "weight '1' is a str"),
        (lambda: FiniteCyclicFactor(3.0, (0, 1, 2)), "order 3.0 is a float"),
        (lambda: FiniteCyclicFactor(True, (0, 1)), "order True is a bool"),
        (lambda: FiniteCyclicFactor(3, (0.5, 1, 2)), "phase 0.5 is a float"),
        (lambda: FiniteCyclicFactor(3, (0, False, 2)), "phase False is a bool"),
        (lambda: FiniteCyclicFactor(3, ("1", 1, 2)), "phase '1' is a str"),
    ],
    ids=["float-weight", "bool-weight", "str-weight", "float-order", "bool-order",
         "float-phase", "bool-phase", "str-phase"],
)
def test_constructors_refuse_what_the_datum_reader_refuses(build, text):
    with pytest.raises(TypeError, match=f"^{re.escape(text)}; "):
        build()
