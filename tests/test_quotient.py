from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from crring import (
    EmptySector,
    FiniteCyclicFactor,
    IneffectiveAction,
    QuotientDatum,
    SectorLabel,
    ZeroWeight,
    datum_from_doc,
    datum_to_doc,
    label_from_doc,
    label_to_doc,
    triple_localized,
    validate_datum,
)
from crring.errors import DatumFormatError
from crring.quotient import sector_dim


def brute_force_sector_labels(datum: QuotientDatum, chamber: str) -> set[SectorLabel]:
    """Independent oracle: scan every c = k/M with M a common denominator
    bound, recomputing the phases from scratch."""
    orders = math.lcm(*(f.order for f in datum.finite)) if datum.finite else 1
    m_bound = math.lcm(*(abs(w) for w in datum.weights)) * orders
    labels = set()
    for components in itertools.product(*(range(f.order) for f in datum.finite)):
        for k in range(m_bound):
            c = Fraction(k, m_bound)
            fixed = []
            for j, w in enumerate(datum.weights):
                phase = c * w + sum(
                    Fraction(a * f.phases[j], f.order)
                    for a, f in zip(components, datum.finite)
                )
                if phase.denominator == 1:
                    fixed.append(j)
            signs_ok = any(
                (datum.weights[j] > 0) == (chamber == "positive") for j in fixed
            )
            if fixed and signs_ok:
                labels.add(SectorLabel(c, components))
    return labels


def test_validate_accepts_wp122333_weights(wp122333):
    assert wp122333.weights == (1, 2, 2, 3, 3, 3)
    assert wp122333.finite_order == 1


def test_validate_rejects_common_divisor():
    with pytest.raises(IneffectiveAction):
        validate_datum(QuotientDatum((2, 2)))


def test_validate_rejects_zero_weight():
    with pytest.raises(ZeroWeight):
        validate_datum(QuotientDatum((1, 1, 0)))


def test_validate_catches_ineffective_finite_mix():
    # c = 1/2 combined with the order-2 generator acts trivially
    datum = QuotientDatum((2, 2), (FiniteCyclicFactor(2, (1, 1)),))
    with pytest.raises(IneffectiveAction):
        validate_datum(datum)


def test_group_operations(wp122333):
    third = wp122333.label(Fraction(1, 3))
    assert wp122333.compose(third, third) == wp122333.label(Fraction(2, 3))
    assert wp122333.inverse(third) == wp122333.label(Fraction(2, 3))
    assert wp122333.compose(third, wp122333.label(Fraction(2, 3))) == wp122333.identity()
    assert wp122333.identity() == SectorLabel(Fraction(0), ())


def test_compose_reads_both_labels_with_the_datums_component_count():
    vd = validate_datum(QuotientDatum((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)))
    third, bare = vd.label(Fraction(1, 3), (1,)), SectorLabel(Fraction(0), ())
    assert vd.compose(third, bare) == vd.compose(bare, third) == third
    assert vd.compose(SectorLabel(Fraction(1, 3), ()), third) == vd.label(Fraction(2, 3), (1,))
    with pytest.raises(ValueError, match="label has 2 finite components, datum has 1"):
        vd.compose(SectorLabel(Fraction(0), (1, 1)), vd.identity())


def test_theta_values(wp122333):
    third = wp122333.label(Fraction(1, 3))
    assert wp122333.thetas(third)[1] == Fraction(2, 3)
    assert wp122333.thetas(third)[3] == 0
    assert all(th == 0 for th in wp122333.thetas(wp122333.identity()))


def test_fixed_sets(wp122333):
    # the fixed set of a label is the zeros of its thetas: c = 1/3 fixes
    # exactly the weight-3 coordinates
    weight_three = frozenset(j for j, w in enumerate(wp122333.weights) if w == 3)
    even = frozenset(j for j, w in enumerate(wp122333.weights) if w % 2 == 0)
    for t, fixed in [(wp122333.label(Fraction(1, 3)), weight_three),
                     (wp122333.label(Fraction(1, 2)), even),
                     (wp122333.identity(), frozenset(range(6)))]:
        assert frozenset(j for j, x in enumerate(wp122333.thetas(t)) if x == 0) == fixed


def test_degree_shift_values(wp122333, wp112):
    assert wp122333.degree_shift(wp122333.label(Fraction(1, 3))) == Fraction(5, 3)
    assert wp122333.degree_shift(wp122333.identity()) == 0
    assert wp112.degree_shift(wp112.label(Fraction(1, 2))) == 1


def test_enumerate_sectors_wp122333(wp122333):
    labels = [s.label.c for s in wp122333.sectors()]
    assert labels == [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]


def test_enumerate_sectors_wp112(wp112):
    assert [s.label.c for s in wp112.sectors()] == [Fraction(0), Fraction(1, 2)]


def test_enumerate_sectors_negative_chamber(mixed):
    assert [s.label for s in mixed.sectors("negative")] == [mixed.identity()]
    assert [s.label for s in mixed.sectors("positive")] == [mixed.identity()]


@pytest.mark.parametrize(
    "weights,finite",
    [
        ((1, 2, 2, 3, 3, 3), ()),
        ((1, 1, 2), ()),
        ((2, 3, 5), ()),
        ((1, 1, -1), ()),
        ((1, 4, 6, -3), ()),
        ((1, 1), (FiniteCyclicFactor(5, (1, 2)),)),
        ((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)),
        ((2, 3), (FiniteCyclicFactor(2, (1, 0)), FiniteCyclicFactor(3, (1, 2)))),
    ],
)
@pytest.mark.parametrize("chamber", ["positive", "negative"])
def test_enumeration_matches_brute_force(weights, finite, chamber):
    datum = QuotientDatum(weights, finite, chamber)
    vd = validate_datum(datum)
    expected = brute_force_sector_labels(datum, chamber)
    assert {s.label for s in vd.sectors()} == expected
    # duplicate-free, deterministic across fresh instances, identity first
    assert len(vd.sectors()) == len(expected)
    assert vd.sectors() == validate_datum(datum).sectors()
    if expected:
        assert vd.sectors()[0].label == vd.identity()


@pytest.mark.parametrize(
    "weights,finite",
    [
        ((1, 2, 2, 3, 3, 3), ()),
        ((1, 1, -1), ()),
        ((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)),
        ((2, 3), (FiniteCyclicFactor(2, (1, 0)), FiniteCyclicFactor(3, (1, 2)))),
    ],
)
def test_sector_invariants(weights, finite):
    vd = validate_datum(QuotientDatum(weights, finite))
    sector_labels = {s.label for s in vd.sectors()}
    for info in vd.sectors():
        t, inv = info.label, vd.inverse(info.label)
        assert inv in sector_labels
        assert frozenset(j for j, x in enumerate(vd.thetas(inv)) if x == 0) == info.fixed_set
        assert info.shift + vd.degree_shift(inv) == vd.n - len(info.fixed_set)
        for j in range(vd.n):
            total = vd.thetas(t)[j] + vd.thetas(inv)[j]
            assert total == (0 if j in info.fixed_set else 1)
        assert info.dim == len(info.fixed_set) - 1
        assert info.thetas == vd.thetas(t)


def test_sector_info(wp122333):
    third = wp122333.label(Fraction(1, 3))
    assert wp122333.degree_shift(third) == Fraction(5, 3)
    assert sector_dim(wp122333.sector_row(third, wp122333.chamber)[2]) == 2
    with pytest.raises(EmptySector):
        wp122333.sector_row(wp122333.label(Fraction(1, 6)), wp122333.chamber)


def test_sector_info_honors_chamber(mixed):
    # identity exists on both sides of the wall for (1, 1, -1)
    assert sector_dim(mixed.sector_row(mixed.identity(), "negative")[2]) == 2
    only_negative = validate_datum(QuotientDatum((1, -2), chamber="positive"))
    half = only_negative.label(Fraction(1, 2))
    with pytest.raises(EmptySector):
        only_negative.sector_row(half, only_negative.chamber)
    assert only_negative.sector_row(half, "negative")[2] == 1 << 1


def _label_routes(vd, t):
    """The three readers of a label: its row, a localized triple of it
    (itself three times) and its table position."""
    return {
        "sector_row": lambda: vd.sector_row(t),
        "triple_localized": lambda: triple_localized(vd, (t, 0), (t, 0), (t, 0)),
        "position": lambda: vd.sector_table().position(t),
    }


def test_every_label_route_refuses_alike(wp112):
    """A label off the lattice of D fixes nothing: ``position`` answers None
    and the others raise ``EmptySector``.  A float phase is a ``TypeError``
    and a wrong component count a ``ValueError`` on every route, also off
    the lattice, where ``position`` answered None before the label's code
    became one statement."""
    d = wp112.denominator
    off = SectorLabel(Fraction(1, d + 1))
    for route, read in _label_routes(wp112, off).items():
        if route == "position":
            assert read() is None
        else:
            with pytest.raises(EmptySector, match=f"^c=1/{d + 1} fixes no coordinate$"):
                read()
    refused = [
        (SectorLabel(0.5), TypeError, "is a float"),
        (SectorLabel(Fraction(1, 2), (7,)), ValueError, "label has 1 finite components"),
        (SectorLabel(Fraction(1, d + 1), (7,)), ValueError, "datum has 0"),
    ]
    for t, error, text in refused:
        for route, read in _label_routes(wp112, t).items():
            with pytest.raises(error, match=text):
                read()


def test_triple_localized_refuses_its_first_refused_label(wp112):
    """The labels of a localized triple are read in order, each refused for
    its own first reason: an empty first label is an ``EmptySector`` even
    when a later one has a wrong component count."""
    off, seven = SectorLabel(Fraction(1, 3)), SectorLabel(Fraction(1, 2), (7,))
    with pytest.raises(EmptySector, match="^c=1/3 fixes no coordinate$"):
        triple_localized(wp112, (off, 0), (seven, 0), (seven, 0))
    with pytest.raises(ValueError, match="label has 1 finite components"):
        triple_localized(wp112, (seven, 0), (off, 0), (off, 0))


def test_label_normalization(wp112):
    assert wp112.label(Fraction(5, 2)) == wp112.label(Fraction(1, 2))
    with_finite = validate_datum(
        QuotientDatum((1, 1), (FiniteCyclicFactor(5, (1, 2)),))
    )
    assert with_finite.label(Fraction(0), (7,)) == with_finite.label(Fraction(0), (2,))
    with pytest.raises(ValueError):
        with_finite.label(Fraction(0), (1, 1))


def test_datum_doc_round_trip():
    datum = QuotientDatum(
        (1, 2, -3), (FiniteCyclicFactor(4, (0, 1, 3)),), "negative"
    )
    doc = datum_to_doc(datum)
    assert doc["n"] == 3
    assert datum_from_doc(doc) == datum


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"n": 2, "weights": [1, 2], "finite": []},
        {"n": 3, "weights": [1, 2], "finite": [], "chamber": "positive"},
        {"n": 2, "weights": [1, "x"], "finite": [], "chamber": "positive"},
        {"n": 2, "weights": [1, 2], "finite": [{"order": 2}], "chamber": "positive"},
        {"n": 2, "weights": [1, 2], "finite": [], "chamber": "sideways"},
        {"n": 2, "weights": [1, 2], "finite": [{"order": 2, "phases": [1]}], "chamber": "positive"},
        {"n": 2, "weights": [1, 2], "finite": [{"order": 1, "phases": [0, 0]}], "chamber": "positive"},
    ],
)
def test_datum_doc_rejects_malformed(doc):
    with pytest.raises(DatumFormatError):
        datum_from_doc(doc)


def test_label_doc_round_trip(wp122333):
    t = wp122333.label(Fraction(2, 3))
    doc = label_to_doc(t)
    assert doc == {"c": "2/3", "finite": []}
    assert label_from_doc(doc, wp122333) == t


def test_unknown_chamber_is_rejected(wp112):
    half = wp112.label(Fraction(1, 2))
    for query in (wp112.sectors, wp112.sector_table):
        with pytest.raises(ValueError):
            query("sideways")
    with pytest.raises(ValueError):
        wp112.sector_row(half, "sideways")
