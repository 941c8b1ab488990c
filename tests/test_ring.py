from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import prod
from operator import itemgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crring import (
    BasisElement,
    CRClass,
    ChenRuanRing,
    DatumFormatError,
    DomainError,
    EmptySector,
    FiniteCyclicFactor,
    IneffectiveAction,
    PhaseResult,
    QuotientDatum,
    SectorLabel,
    ValidatedDatum,
    cr_class_from_doc,
    cr_class_to_doc,
    format_rational,
    frac_part,
    obstruction_rank_oracle,
    table_from_doc,
    table_to_doc,
    triple_localized,
    validate_datum,
)
import crring.ring
from crring import cli
from crring.errors import EtaPowerRange
from crring.quotient import (
    CHAMBERS, compose_codes, datum_from_doc, datum_to_doc, element_to_doc, sector_dim,
)
from crring.ring import _Reader
from test_golden import DATA


def one(vd, c, k=0):
    return CRClass.single(BasisElement(vd.label(Fraction(c)), k))


def test_cr_degree(wp122333, wp112):
    ring = ChenRuanRing(wp122333)
    assert ring.degree(BasisElement(wp122333.label(Fraction(1, 3)), 0)) == Fraction(10, 3)
    assert ring.degree(BasisElement(wp122333.identity(), 2)) == 4
    assert ChenRuanRing(wp112).degree(BasisElement(wp112.label(Fraction(1, 2)), 0)) == 2


def test_point_api_refuses_elements_outside_the_basis():
    p2 = validate_datum(QuotientDatum((1, 1, 1)))
    ring, identity = ChenRuanRing(p2), p2.identity()
    refusals = {
        "eta power -1 of c=0 is outside [0, 2]": lambda: ring.pairing_basis(
            BasisElement(identity, -1), BasisElement(identity, 3)
        ),
        "eta power 5 of c=0 is outside [0, 2]": lambda: ring.cup_basis(
            BasisElement(identity, 5), BasisElement(identity, -4)
        ),
        "eta power 7 of c=0 is outside [0, 2]": lambda: ring.degree(BasisElement(identity, 7)),
    }
    for message, call in refusals.items():
        with pytest.raises(DomainError) as refused:
            call()
        assert type(refused.value) is EtaPowerRange
        assert str(refused.value) == message
    with pytest.raises(EmptySector) as refused:
        ring.degree(BasisElement(p2.label(Fraction(1, 2)), 0))
    assert (type(refused.value), str(refused.value)) == (EmptySector, "c=1/2 fixes no coordinate")


def test_a_zero_factor_hides_no_element_outside_the_basis(wp112):
    """``cup`` and ``pairing`` refuse an element outside the basis in a class
    whose partner class is zero, so ``triple_direct`` refuses a bad third
    class when the first two multiply to 0."""
    ring = ChenRuanRing(wp112)
    half, top = one(wp112, "1/2"), one(wp112, 0, 2)
    assert ring.cup(half, top) == CRClass()
    refusals = {
        BasisElement(wp112.label(Fraction(1, 5)), 0): (EmptySector, "c=1/5 fixes no coordinate"),
        BasisElement(wp112.identity(), 3): (EtaPowerRange, "eta power 3 of c=0 is outside [0, 2]"),
    }
    for element, refusal in refusals.items():
        bad, zero = CRClass.single(element), CRClass()
        calls = [lambda: ring.triple_direct(half, top, bad)] + [
            lambda call=call, pair=pair: call(*pair)
            for call in (ring.cup, ring.pairing) for pair in ((zero, bad), (bad, zero))
        ]
        for call in calls:
            with pytest.raises(DomainError) as refused:
                call()
            assert (type(refused.value), str(refused.value)) == refusal


def test_degree_reads_one_sector_row(monkeypatch, wp122333):
    """``degree`` reads the element's sector row, never the sector table, and
    agrees with ``degree_at`` on every basis element."""
    ring = ChenRuanRing(wp122333)
    assert list(map(ring.degree, ring.basis())) == list(map(ring.degree_at, range(14)))

    def refuse(vd, chamber):
        raise AssertionError(f"the {chamber} sector table was built")

    monkeypatch.setattr(ValidatedDatum, "_build_table", refuse)
    vd = validate_datum(QuotientDatum((1, 100000)))
    ring = ChenRuanRing(vd)
    assert ring.degree(BasisElement(vd.label(Fraction(1, 100000)), 0)) == Fraction(1, 50000)
    assert ring.degree(BasisElement(vd.identity(), 1)) == 2


def test_basis_wp112(wp112):
    basis = ChenRuanRing(wp112).basis()
    assert [(b.sector.c, b.k) for b in basis] == [
        (Fraction(0), 0),
        (Fraction(0), 1),
        (Fraction(0), 2),
        (Fraction(1, 2), 0),
    ]


def test_basis_sizes(wp122333, p11):
    assert len(ChenRuanRing(wp122333).basis()) == 14
    assert len(ChenRuanRing(p11).basis()) == 2


def test_pairing_values(wp112, p11):
    ring = ChenRuanRing(wp112)
    half = one(wp112, "1/2")
    assert ring.pairing(half, half) == Fraction(1, 2)
    assert ring.pairing(one(wp112, 0, 2), one(wp112, 0)) == Fraction(1, 2)
    assert ChenRuanRing(p11).pairing(one(p11, 0, 1), one(p11, 0)) == 1


def test_pairing_includes_finite_group_order():
    vd = validate_datum(QuotientDatum((1, 1), (FiniteCyclicFactor(5, (1, 2)),)))
    ring = ChenRuanRing(vd)
    top = CRClass.single(BasisElement(vd.identity(), 1))
    bottom = CRClass.single(BasisElement(vd.identity(), 0))
    assert ring.pairing(top, bottom) == Fraction(1, 5)


def obstruction_split(ring, s, t):
    """The interacting coordinates T of a sector pair, read off the carry mask
    of ``ring.row`` on the one sector t, and their split: a coordinate of T
    where the theta numerators sum to D is a Thom pushforward direction, one
    where they sum past D an obstruction direction."""
    si, ti = ring.table.position(s), ring.table.position(t)
    (carry,) = ring.row(si, slice(ti, ti + 1))[1]
    indices = {j for j in range(ring.vd.n) if carry >> j & 1}
    sums = [x + y for x, y in zip(ring.table.thetas[si], ring.table.thetas[ti])]
    d = ring.table.denominator
    pushforward = {j for j in indices if sums[j] == d}
    obstruction = {j for j in indices if sums[j] > d}
    assert pushforward | obstruction == indices
    return indices, pushforward, obstruction


def test_obstruction_set_wp122333(wp122333):
    ring = ChenRuanRing(wp122333)
    third = wp122333.label(Fraction(1, 3))
    weight_two = {j for j, w in enumerate(wp122333.weights) if w == 2}
    assert obstruction_split(ring, third, third) == (weight_two, set(), weight_two)


def test_obstruction_set_wp112(wp112):
    ring = ChenRuanRing(wp112)
    half = wp112.label(Fraction(1, 2))
    assert obstruction_split(ring, half, half) == ({0, 1}, {0, 1}, set())


def test_obstruction_set_identity_is_empty(wp122333):
    ring = ChenRuanRing(wp122333)
    for info in wp122333.sectors():
        assert obstruction_split(ring, wp122333.identity(), info.label)[0] == set()


def test_obstruction_rank_oracle():
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)
    assert obstruction_rank_oracle(two_thirds, two_thirds, two_thirds) == 1
    assert obstruction_rank_oracle(third, third, third) == 0
    assert obstruction_rank_oracle(Fraction(0), Fraction(0), Fraction(0)) == 0
    with pytest.raises(DomainError):
        obstruction_rank_oracle(third, third, Fraction(1, 2))
    # floats are refused, also when their sum is an integer
    for phases in [(0.5, 0.5, 1.0), (1, 1, 0, 1.0), (0.5, 0.25, third)]:
        with pytest.raises(TypeError, match="is a float"):
            obstruction_rank_oracle(*phases)
    # a denominator below 1 is refused by name, not divided by
    for denominator in (0, -3):
        with pytest.raises(ValueError, match=f"denominator {denominator} "):
            obstruction_rank_oracle(1, 1, 1, denominator)


def test_cup_square_of_cube_root_sector(wp122333):
    ring = ChenRuanRing(wp122333)
    third = one(wp122333, "1/3")
    expected = CRClass.single(BasisElement(wp122333.label(Fraction(2, 3)), 2), 4)
    assert ring.cup(third, third) == expected


def test_cup_unit(wp122333):
    ring = ChenRuanRing(wp122333)
    for element in ring.basis():
        unit = CRClass.single(BasisElement(wp122333.identity(), 0))
        assert ring.cup(unit, CRClass.single(element)) == CRClass.single(element)


def test_cup_disjoint_fixed_sets_vanish(wp122333):
    ring = ChenRuanRing(wp122333)
    assert ring.cup(one(wp122333, "1/3"), one(wp122333, "1/2")) == CRClass()


def test_pair_and_sector_product_values(wp122333):
    ring = ChenRuanRing(wp122333)
    third, two_thirds, half = (
        ring.table.position(wp122333.label(Fraction(c))) for c in ("1/3", "2/3", "1/2")
    )
    # theta(1/3) = (1/3, 2/3, 2/3, 0, 0, 0): coordinates 1 and 2 carry
    assert ring.row(third, slice(third, third + 1)) == ([two_thirds], [0b110], [(4, 2)])
    # c = 5/6 fixes no coordinate
    (h,), _, (product,) = ring.row(third, slice(half, half + 1))
    assert h == -1
    assert product is None
    sectors = range(len(ring.table.codes))
    composite, carry, product = ring.pairs
    assert all(
        ring.row(s, slice(t, t + 1)) == ([composite[s][t]], [carry[s][t]], [product[s][t]])
        for s in sectors for t in sectors
    )


def test_sector_product_vanishes_on_disjoint_fixed_sets():
    # on P^2/Z3 with phases (0, 1, 2) sectors fixing {0} and {1} compose to
    # sectors fixing {2}; the carry covers that fixed set, so the eta
    # truncation would zero every basis product there as well
    vd = validate_datum(QuotientDatum((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)))
    ring = ChenRuanRing(vd)
    fixed, sectors = ring.table.fixed, range(len(ring.table.codes))
    disjoint = [(s, t) for s in sectors for t in sectors if not fixed[s] & fixed[t]]
    composable = 0
    for s, t in disjoint:
        (h,), (carry,), (product,) = ring.row(s, slice(t, t + 1))
        assert product is None
        if h >= 0:
            composable += 1
            assert carry & fixed[h] == fixed[h]
    assert composable


def reference_pair(table, s: int, t: int) -> tuple[int, int]:
    """(h, T) of the ordered sector pair by a per-coordinate carry loop and
    code composition, one pair at a time from the table's rows."""
    carry = 0
    for j, (x, y) in enumerate(zip(table.thetas[s], table.thetas[t])):
        if x + y >= table.denominator:
            carry |= 1 << j
    return table.index.get(compose_codes(table.codes[s], table.codes[t], table.moduli), -1), carry


@st.composite
def data(draw):
    """Up to 4 coordinates with weights in [-6, 6] and up to 2 finite
    factors of unequal orders in [2, 4]; ineffective actions are drawn again."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(-6, 6).filter(bool), min_size=n, max_size=n))
    orders = draw(st.lists(st.integers(2, 4), max_size=2, unique=True))
    finite = tuple(
        FiniteCyclicFactor(k, tuple(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))))
        for k in orders
    )
    try:
        return validate_datum(QuotientDatum(tuple(weights), finite))
    except IneffectiveAction:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(data())
def test_pair_matches_a_per_coordinate_carry_loop(vd):
    for chamber in CHAMBERS:
        ring = ChenRuanRing(vd, chamber)
        sectors = range(len(ring.table.codes))
        for s in sectors:
            for t in sectors:
                (h,), (carry,), _ = ring.row(s, slice(t, t + 1))
                assert (h, carry) == reference_pair(ring.table, s, t), (chamber, s, t)


def reference_product(ring, s: int, t: int) -> tuple[int, int] | None:
    """The sector product of the ordered sector pair from ``reference_pair``:
    (prod_{j in T} w_j, |T|), or None when s*t is no sector or the fixed
    sets of s and t are disjoint."""
    h, carry = reference_pair(ring.table, s, t)
    if h < 0 or not ring.table.fixed[s] & ring.table.fixed[t]:
        return None
    interacting = [j for j in range(ring.vd.n) if carry >> j & 1]
    return prod(ring.vd.weights[j] for j in interacting), len(interacting)


@settings(max_examples=100, deadline=None)
@given(data(), st.builds(slice, st.integers(0, 40), st.integers(0, 40)))
@example(validate_datum(QuotientDatum((-1, -2), chamber="negative")), slice(1, 3))
@example(validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3))), slice(2, 2))
def test_pairs_rows_match_a_per_pair_loop(vd, span):
    """Every row of ``pairs``, every row over t >= s as
    ``structure_constants`` reads it, and every row over a drawn ``span``
    (empty when it starts at or past its end, or past the last sector) is
    the per-pair reference loop, which reads no column of the table."""
    for chamber in CHAMBERS:
        ring = ChenRuanRing(vd, chamber)
        composite, carry, product = ring.pairs
        sectors = range(len(ring.table.codes))
        for s in sectors:
            assert list(zip(composite[s], carry[s])) == [
                reference_pair(ring.table, s, t) for t in sectors
            ], (chamber, s)
            assert product[s] == [reference_product(ring, s, t) for t in sectors], (chamber, s)
            tail = ring.row(s, slice(s, None))
            assert tail == (composite[s][s:], carry[s][s:], product[s][s:]), (chamber, s)
            composites, carries, products = ring.row(s, span)
            assert list(zip(composites, carries)) == [
                reference_pair(ring.table, s, t) for t in sectors[span]
            ], (chamber, s, span)
            assert products == [
                reference_product(ring, s, t) for t in sectors[span]
            ], (chamber, s, span)


def test_structure_constants_read_one_row_per_sector(monkeypatch, wp122333):
    rows = []
    row = ChenRuanRing.row

    def counted(ring, s, span=slice(None)):
        rows.append((s, span))
        return row(ring, s, span)

    monkeypatch.setattr(ChenRuanRing, "row", counted)
    ChenRuanRing(wp122333).structure_constants()
    assert rows == [(s, slice(s, None)) for s in range(len(wp122333.sectors()))]


def test_pair_matches_the_carry_loop_past_a_machine_word():
    # D = 601 * 607 * ... * 641 is about 3.5e19 > 2**64: theta numerators,
    # their sums and codes are wider than a machine word
    vd = validate_datum(QuotientDatum((601, 607, 613, 617, 619, 631, 641)))
    ring = ChenRuanRing(vd)
    assert vd.denominator > 2**64
    assert len(ring.table.codes) == 4323
    rng = random.Random(7)
    composable = 0
    for _ in range(3000):
        s, t = rng.randrange(4323), rng.randrange(4323)
        (h,), (carry,), _ = ring.row(s, slice(t, t + 1))
        assert (h, carry) == reference_pair(ring.table, s, t), (s, t)
        composable += h >= 0
    assert composable
    assert "pairs" not in vars(ring)


def test_a_label_is_read_with_the_datums_component_count(wp112):
    """A label with no finite components stands for all components 0; any
    other count than the datum's is refused wherever the label is read, as
    ``ValidatedDatum.label`` refuses it."""
    seven = SectorLabel(Fraction(1, 2), (7,))  # P(1,1,2) has no finite factor
    ring = ChenRuanRing(wp112)
    reads = [
        lambda: wp112.sector_row(seven),
        lambda: wp112.degree_shift(seven),
        lambda: ring.cup_basis(BasisElement(seven, 0), BasisElement(seven, 0)),
        lambda: ring.degree(BasisElement(seven, 0)),
        lambda: triple_localized(wp112, (seven, 0), (seven, 0), (wp112.identity(), 0)),
    ]
    for read in reads:
        with pytest.raises(ValueError, match="label has 1 finite components, datum has 0"):
            read()
    vd = validate_datum(QuotientDatum((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)))
    bare, identity = SectorLabel(Fraction(0), ()), vd.identity()
    assert sector_dim(vd.sector_row(bare)[2]) == sector_dim(vd.sector_row(identity)[2]) == 2
    assert vd.degree_shift(bare) == 0
    ring = ChenRuanRing(vd)
    for k in range(3):
        assert ring.degree(BasisElement(bare, k)) == ring.degree(BasisElement(identity, k))
    assert ring.cup_basis(BasisElement(bare, 1), BasisElement(bare, 1)) == (
        1, BasisElement(identity, 2)
    )
    with pytest.raises(ValueError, match="label has 2 finite components, datum has 1"):
        ring.degree(BasisElement(SectorLabel(Fraction(0), (0, 0)), 0))


def test_cup_truncates_past_sector_dimension(wp112):
    ring = ChenRuanRing(wp112)
    eta = one(wp112, 0, 1)
    assert ring.cup(eta, ring.cup(eta, eta)) == CRClass()


def test_triple_direct_values(wp122333, wp112):
    ring = ChenRuanRing(wp122333)
    third = one(wp122333, "1/3")
    assert ring.triple_direct(third, third, third) == Fraction(4, 27)
    assert ring.triple_direct(
        third, one(wp122333, "2/3"), one(wp122333, 0, 2)
    ) == Fraction(1, 27)
    ring112 = ChenRuanRing(wp112)
    half = one(wp112, "1/2")
    assert ring112.triple_direct(half, half, one(wp112, 0)) == Fraction(1, 2)


def test_structure_constants_p11(p11):
    table = ChenRuanRing(p11).structure_constants()
    assert len(table.basis) == 2
    assert table.degrees == (Fraction(0), Fraction(2))
    assert table.pairing == ((0, 1), (1, 0))
    assert table.products == {
        (0, 0): CRClass.single(table.basis[0]),
        (0, 1): CRClass.single(table.basis[1]),
    }


def test_structure_constants_wp112(wp112):
    ring = ChenRuanRing(wp112)
    table = ring.structure_constants()
    half_sq = table.products[(3, 3)]
    assert half_sq == CRClass.single(BasisElement(wp112.identity(), 2))
    # every other nonzero product stays inside the untwisted polynomial ring
    for (i, j), value in table.products.items():
        if (i, j) == (3, 3):
            continue
        ((element, coeff),) = value.items()
        assert coeff == 1
        if 3 not in (i, j):
            assert element.sector == wp112.identity()
            assert element.k == table.basis[i].k + table.basis[j].k


def test_structure_table_wp122333_key_entry(wp122333):
    ring = ChenRuanRing(wp122333)
    table = ring.structure_constants()
    basis = table.basis
    third = wp122333.label(Fraction(1, 3))
    i = basis.index(BasisElement(third, 0))
    product = table.products[(i, i)]
    assert product == CRClass.single(
        BasisElement(wp122333.label(Fraction(2, 3)), 2), 4
    )
    assert len(basis) == 14


def test_verify_ring_axioms_pass(wp122333, wp112, p11):
    for vd in (wp122333, wp112, p11):
        report = ChenRuanRing(vd).verify_ring_axioms()
        assert report.passed, report.first_failure()
        assert {c.name for c in report.phases} == {
            "unit",
            "commutativity",
            "degree_additivity",
            "associativity",
            "frobenius",
            "pairing_nondegenerate",
        }


@pytest.mark.parametrize(
    "edit,detail",
    [
        (lambda e: e + [(0, 1, 0)], "the row of eta^0*1_(c=0) holds 2 nonzero entries"),
        (lambda e: [(1, 2, 0) if x[:2] == (1, 1) else x for x in e],
         "the column of eta^1*1_(c=0) holds 0 nonzero entries"),
    ],
    ids=["row-with-two", "empty-column"],
)
def test_pairing_check_wants_one_nonzero_per_row_and_column(wp112, monkeypatch, edit, detail):
    # wp112's pairing couples basis elements (0, 2), (1, 1), (2, 0) and (3, 3);
    # the first edit leaves it nondegenerate, yet no pairing of the ring
    entries = edit(list(ChenRuanRing(wp112)._pairing_entries()))
    monkeypatch.setattr(ChenRuanRing, "_pairing_entries", lambda self: iter(entries))
    checks = {c.name: c for c in ChenRuanRing(wp112).verify_ring_axioms().phases}
    assert checks["pairing_nondegenerate"] == PhaseResult("pairing_nondegenerate", "fail", detail)


P1_25_ASSOCIATIVITY = (
    "(eta^0*1_(c=1/25) * eta^0*1_(c=1/25)) * eta^0*1_(c=2/25) != "
    "eta^0*1_(c=1/25) * (eta^0*1_(c=1/25) * eta^0*1_(c=2/25))"
)
P1_25_FROBENIUS = (
    "<eta^0*1_(c=1/25) * eta^0*1_(c=2/25), eta^0*1_(c=22/25)> != "
    "<eta^0*1_(c=1/25), eta^0*1_(c=2/25) * eta^0*1_(c=22/25)>"
)
WP122333_FROBENIUS = (
    "<eta^0*1_(c=0) * eta^0*1_(c=1/3), eta^2*1_(c=2/3)> != "
    "<eta^0*1_(c=0), eta^0*1_(c=1/3) * eta^2*1_(c=2/3)>"
)


P35711_13_ASSOCIATIVITY = (
    "(eta^0*1_(c=1/13) * eta^0*1_(c=6/13)) * eta^0*1_(c=6/13) != "
    "eta^0*1_(c=1/13) * (eta^0*1_(c=6/13) * eta^0*1_(c=6/13))"
)
P35711_13_FROBENIUS = (
    "<eta^0*1_(c=0) * eta^0*1_(c=1/13), eta^0*1_(c=12/13)> != "
    "<eta^0*1_(c=0), eta^0*1_(c=1/13) * eta^0*1_(c=12/13)>"
)
NEGATIVE_122_FROBENIUS = (
    "<eta^0*1_(c=0) * eta^0*1_(c=1/2), eta^1*1_(c=1/2)> != "
    "<eta^0*1_(c=0), eta^0*1_(c=1/2) * eta^1*1_(c=1/2)>"
)


def corrupting(edit, corrupted: set):
    """``ChenRuanRing.row`` with ``edit(coeff, shift)`` applied to the
    nonzero product of every ordered sector pair (s, t) in ``corrupted``."""
    row = ChenRuanRing.row

    def patched(self, s, span=slice(None)):
        composite, carries, products = row(self, s, span)
        sectors = range(len(self.table.codes))[span]
        return composite, carries, [
            edit(*data) if (s, t) in corrupted and data else data
            for t, data in zip(sectors, products)
        ]

    return patched


@pytest.mark.parametrize(
    "datum,pair,edit,failures",
    [
        # every coefficient of P(1,25) stays 0 or 1: the product of c=1/25
        # and c=2/25 moves one eta power up, past the top of its target
        (QuotientDatum((1, 25)), ("1/25", "2/25"), lambda coeff, shift: (coeff, shift + 1), [
            ("associativity", P1_25_ASSOCIATIVITY),
            ("frobenius", P1_25_FROBENIUS),
        ]),
        # the product of c=1/3 and c=2/3 is 4 eta^3 1_(c=0)
        (QuotientDatum((1, 2, 2, 3, 3, 3)), ("1/3", "2/3"),
         lambda coeff, shift: (2 * coeff, shift), [
            ("frobenius", WP122333_FROBENIUS),
        ]),
        (QuotientDatum((1, 2, 2, 3, 3, 3)), ("1/3", "2/3"),
         lambda coeff, shift: (coeff, shift - 1), [
            ("degree_additivity",
             "deg(eta^0*1_(c=1/3)) + deg(eta^0*1_(c=2/3)) != deg(eta^2*1_(c=0))"),
            ("associativity",
             "(eta^1*1_(c=0) * eta^2*1_(c=1/3)) * eta^0*1_(c=2/3) != "
             "eta^1*1_(c=0) * (eta^2*1_(c=1/3) * eta^0*1_(c=2/3))"),
            ("frobenius", WP122333_FROBENIUS),
        ]),
        # most rows of P(3,5,7,11,13) hold coefficients above 1; the product
        # of c=1/13 and c=12/13 is 1155 eta^4 1_(c=0)
        (QuotientDatum((3, 5, 7, 11, 13)), ("1/13", "12/13"),
         lambda coeff, shift: (2 * coeff, shift), [
            ("associativity", P35711_13_ASSOCIATIVITY),
            ("frobenius", P35711_13_FROBENIUS),
        ]),
        # in the negative chamber of (-1,-2,-2) the product of c=1/2 with
        # itself is -eta 1_(c=0)
        (QuotientDatum((-1, -2, -2), chamber="negative"), ("1/2", "1/2"),
         lambda coeff, shift: (-coeff, shift), [
            ("frobenius", NEGATIVE_122_FROBENIUS),
        ]),
        # a zero coefficient scales both sides of the Frobenius identity to
        # 0, whatever its target: on P^2 only the unit fails
        (QuotientDatum((1, 1, 1)), ("0", "0"), lambda coeff, shift: (0, shift), [
            ("unit", "1 * eta^0*1_(c=0) = 0 * basis[0]"),
        ]),
        # on P(1,1,2), 1_(c=0) * 1_(c=1/2) keeps coefficient 1
        (QuotientDatum((1, 1, 2)), ("0", "0"), lambda coeff, shift: (0, shift), [
            ("unit", "1 * eta^0*1_(c=0) = 0 * basis[0]"),
            ("associativity",
             "(eta^0*1_(c=0) * eta^0*1_(c=0)) * eta^0*1_(c=1/2) != "
             "eta^0*1_(c=0) * (eta^0*1_(c=0) * eta^0*1_(c=1/2))"),
        ]),
    ],
    ids=[
        "p1_25-shift-raised",
        "wp122333-coefficient-doubled",
        "wp122333-shift-lowered",
        "p3_5_7_11_13-coefficient-doubled",
        "negative-122-coefficient-negated",
        "p2-identity-coefficient-zeroed",
        "wp112-identity-coefficient-zeroed",
    ],
)
def test_axiom_check_names_the_first_counterexample(monkeypatch, datum, pair, edit, failures):
    # one symmetric sector-pair product is corrupted, so commutativity holds
    vd = validate_datum(datum)
    table = vd.sector_table()
    s, t = (table.position(vd.label(Fraction(c))) for c in pair)
    monkeypatch.setattr(ChenRuanRing, "row", corrupting(edit, {(s, t), (t, s)}))
    report = ChenRuanRing(vd).verify_ring_axioms()
    assert [c for c in report.phases if c.status != "pass"] == [
        PhaseResult(name, "fail", detail) for name, detail in failures
    ]


def roomier_heads():
    """``ChenRuanRing.heads`` with one more room on every nonzero product:
    the top eta power of a target sector times a positive one lands one
    index past that sector, past the basis on the last sector."""
    heads = ChenRuanRing.heads

    def patched(self, *args):
        return [(head, room + 1, coeff) if coeff else (head, room, coeff)
                for head, room, coeff in heads(self, *args)]

    return patched


def test_a_product_past_the_basis_fails_degree_additivity_by_its_index(monkeypatch):
    """A basis product whose target lies past the basis has no degree: the
    check names that target by its index, as the unit check does, where it
    raised ``IndexError`` before.  Over the weight-only data with n <= 3
    and |w_j| <= 4, 140 of the 838 nonempty chambers have such a target,
    and every check runs to its report."""
    monkeypatch.setattr(ChenRuanRing, "heads", roomier_heads())
    p2 = ChenRuanRing(validate_datum(QuotientDatum((1, 1, 1)))).verify_ring_axioms()
    one, eta, eta2 = (f"eta^{k}*1_(c=0)" for k in range(3))
    assert [c for c in p2.phases if c.status != "pass"] == [
        PhaseResult("degree_additivity", "fail", f"deg({eta}) + deg({eta2}) != deg(basis[3])"),
        PhaseResult("associativity", "fail",
                    f"({one} * {eta}) * {eta2} != {one} * ({eta} * {eta2})"),
    ]
    weights, nonempty, past = [w for w in range(-4, 5) if w], 0, 0
    for ws in itertools.chain.from_iterable(
        itertools.product(weights, repeat=n) for n in range(1, 4)
    ):
        try:
            vd = validate_datum(QuotientDatum(ws))
        except IneffectiveAction:
            continue
        for chamber in CHAMBERS:
            ring = ChenRuanRing(vd, chamber)
            detail = ring.verify_ring_axioms().phases[2].detail or ""
            nonempty += bool(ring.table.codes)
            past += detail.endswith(f" != deg(basis[{len(ring.basis())}])")
    assert (nonempty, past) == (838, 140)


def reference_axiom_checks(ring):
    """The six checks of ``verify_ring_axioms`` by a plain loop over every
    basis triple (i, j, k), on the tables it builds: a product is a pair
    (target, coefficient), (-1, 0) where there is none, and a pairing value
    a Fraction.  The basis products are expanded from the sector products
    of ``ring.pairs``: eta^k1 1_(s) * eta^k2 1_(t) = coeff eta^k 1_(h) with
    k = k1 + k2 + shift, zero past the top of h."""
    basis = ring.basis()
    size, dims, start = len(basis), ring.table.dims, ring.start
    product, pairing = {}, {}
    for s, (composite, _, products) in enumerate(zip(*ring.pairs)):
        for t, (h, data) in enumerate(zip(composite, products)):
            if data is None:
                continue
            coeff, shift = data
            for k1 in range(dims[s] + 1):
                for k2 in range(dims[t] + 1):
                    k = k1 + k2 + shift
                    if k <= dims[h]:
                        product[start[s] + k1, start[t] + k2] = start[h] + k, coeff
    for i, j, s in ring._pairing_entries():
        pairing[i, j] = ring.pairing_value(ring.table.fixed[s])

    def times(i, j):
        return product.get((i, j), (-1, 0))

    def scaled(a, i, j):
        """a * (basis[i] * basis[j]) and a * <basis[i], basis[j]>."""
        if i < 0:
            return (-1, 0), 0
        target, coeff = times(i, j)
        return (target, a * coeff), a * pairing.get((i, j), 0)

    degree = [ring.degree(element) for element in basis]
    unit_bad = comm_bad = degree_bad = assoc_bad = frob_bad = match_bad = None
    if size and basis[0] != BasisElement(ring.vd.identity(), 0):
        unit_bad = "no identity sector in this chamber"
    for i in range(size):
        for j in range(size):
            x, y = basis[i], basis[j]
            target, coeff = times(i, j)
            if unit_bad is None and i == 0 and (target, coeff) != (j, 1):
                unit_bad = f"1 * {y} = {coeff} * basis[{target}]"
            if comm_bad is None and (target, coeff) != times(j, i):
                comm_bad = f"{x} * {y} != {y} * {x}"
            if degree_bad is None and target >= 0 and (
                target >= size or degree[i] + degree[j] != degree[target]
            ):
                named = basis[target] if target < size else f"basis[{target}]"
                degree_bad = f"deg({x}) + deg({y}) != deg({named})"
            for k in range(size):
                z = basis[k]
                lhs = scaled(coeff, target, k)
                rhs = scaled(times(j, k)[1], i, times(j, k)[0])
                if assoc_bad is None and lhs[0] != rhs[0]:
                    assoc_bad = f"({x} * {y}) * {z} != {x} * ({y} * {z})"
                if frob_bad is None and lhs[1] != rhs[1]:
                    frob_bad = f"<{x} * {y}, {z}> != <{x}, {y} * {z}>"
    for kind, key in ("row", lambda a, b: (a, b)), ("column", lambda a, b: (b, a)):
        for a in range(size):
            count = sum(1 for b in range(size) if pairing.get(key(a, b)))
            if match_bad is None and count != 1:
                match_bad = f"the {kind} of {basis[a]} holds {count} nonzero entries"
    found = [
        ("unit", unit_bad), ("commutativity", comm_bad), ("degree_additivity", degree_bad),
        ("associativity", assoc_bad), ("frobenius", frob_bad),
        ("pairing_nondegenerate", match_bad),
    ]
    return tuple(PhaseResult(name, "pass" if bad is None else "fail", bad) for name, bad in found)


CORRUPTIONS = {
    "doubled": lambda coeff, shift: (2 * coeff, shift),
    "negated": lambda coeff, shift: (-coeff, shift),
    "zeroed": lambda coeff, shift: (0, shift),
    "shift-raised": lambda coeff, shift: (coeff, shift + 1),
    "shift-lowered": lambda coeff, shift: (coeff, shift - 1),
    "removed": lambda coeff, shift: None,
    # coefficient times scalar past 2**64: the packed entries' digits are
    # sized from the data, never fixed
    "scaled-huge": lambda coeff, shift: (coeff * 2**70 + 1, shift),
    "scaled-huge-negated": lambda coeff, shift: (-(coeff * 2**70 + 1), shift),
}


@pytest.mark.parametrize(
    "datum,chamber",
    [
        (QuotientDatum((1, 1, 2)), None),
        (QuotientDatum((1, 2, 2, 3, 3, 3)), None),
        (QuotientDatum((3, 5, 7)), None),
        (QuotientDatum((2, 3, 4)), None),
        (QuotientDatum((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)), None),
        (QuotientDatum((1, 1, 2), (FiniteCyclicFactor(2, (1, 0, 0)),)), None),
        (QuotientDatum((2, -3, 5)), "positive"),
        (QuotientDatum((2, -3, 5)), "negative"),
        (QuotientDatum((1, -1, 2, -2)), "negative"),
        (QuotientDatum((-1, -2, -2), chamber="negative"), None),
        # a generating set far smaller than the basis: 2 of 26 elements, and
        # 10 of 40
        (QuotientDatum((1, 25)), None),
        (QuotientDatum((1, 5, 4), (FiniteCyclicFactor(4, (1, 2, 2)),)), None),
    ],
    ids=[
        "wp112", "wp122333", "p3_5_7", "p2_3_4", "z3_on_p2", "z2_on_wp112",
        "mixed_2m35-positive", "mixed_2m35-negative", "mixed_1m12m2-negative", "negative_122",
        "p1_25", "z4_on_wp154",
    ],
)
def test_axiom_check_agrees_with_a_plain_triple_loop(monkeypatch, datum, chamber):
    """Under seeded corruptions of one sector-pair product, symmetric or of
    one ordered pair, ``verify_ring_axioms`` reports the reference's checks
    and first counterexamples."""
    vd = validate_datum(datum)
    ring = ChenRuanRing(vd, chamber)
    assert ring.verify_ring_axioms().phases == reference_axiom_checks(ring)
    nonzero = [(s, t) for s, row in enumerate(ring.pairs[2]) for t, data in enumerate(row) if data]
    failing = 0
    for kind, edit in CORRUPTIONS.items():
        rng = random.Random(f"{datum}:{chamber}:{kind}")
        for _ in range(4):
            s, t = rng.choice(nonzero)
            corrupted = {(s, t), (t, s)} if rng.random() < 0.5 else {(s, t)}
            with monkeypatch.context() as patch:
                patch.setattr(ChenRuanRing, "row", corrupting(edit, corrupted))
                ring = ChenRuanRing(vd, chamber)
                report = ring.verify_ring_axioms()
                assert report.phases == reference_axiom_checks(ring), (kind, s, t, corrupted)
            failing += not report.passed
    assert failing


def counting_gathers(monkeypatch) -> list[int]:
    """The length of every ``itemgetter`` gather that ``verify_ring_axioms``
    builds from now on, one per middle factor j that it compares."""
    built = []

    def counted(*items):
        built.append(len(items))
        return itemgetter(*items)

    monkeypatch.setattr(crring.ring, "itemgetter", counted)
    return built


def test_a_passing_axiom_check_compares_a_generating_set_only(monkeypatch):
    # the basis of P(1,100) is generated by the unit and 1_(c=1/100), and the
    # unit and commutativity checks settle the unit: one middle is compared
    ring = ChenRuanRing(validate_datum(QuotientDatum((1, 100))))
    built = counting_gathers(monkeypatch)
    assert ring.verify_ring_axioms().passed
    assert built == [len(ring.basis()) + 1]


@pytest.mark.parametrize(
    "datum,pair,edit,failing",
    [
        # a well-formed table: a generator's comparison fails, and every
        # middle factor is compared from the start
        (QuotientDatum((1, 25)), ("1/25", "2/25"), lambda coeff, shift: (coeff, shift + 1),
         {"associativity", "frobenius"}),
        # 1_(c=2/3)^2 = eta 1_(c=1/3) with coefficient 0: three products of
        # 0 with a target, and every check passes; the closure over the
        # nonzero products would give 5 generators of 14, but none is used
        # on a table that is not well formed
        (QuotientDatum((1, 2, 2, 3, 3, 3)), ("2/3", "2/3"), lambda coeff, shift: (0, shift), set()),
    ],
    ids=["p1_25-shift-raised", "wp122333-coefficient-zeroed"],
)
def test_a_failing_or_ill_formed_table_is_compared_over_every_middle(
    monkeypatch, datum, pair, edit, failing
):
    vd = validate_datum(datum)
    table = vd.sector_table()
    s, t = (table.position(vd.label(Fraction(c))) for c in pair)
    monkeypatch.setattr(ChenRuanRing, "row", corrupting(edit, {(s, t), (t, s)}))
    ring = ChenRuanRing(vd)
    built = counting_gathers(monkeypatch)
    report = ring.verify_ring_axioms()
    assert len(built) == len(ring.basis())
    assert {phase.name for phase in report.phases if phase.status == "fail"} == failing
    assert report.phases == reference_axiom_checks(ring)


def breaking_x_times_1(x: int):
    """``ChenRuanRing.basis_rows`` with the basis product basis[x] * 1 doubled,
    for an element x of the identity sector, the first: only the axiom
    check's row of that sector, over every column, is edited, so 1 * x = x
    still holds.  A seam at the basis level, where ``corrupting`` edits whole
    sector products."""
    basis_rows = ChenRuanRing.basis_rows

    def patched(self, k1s, heads, k2s):
        rows = basis_rows(self, k1s, heads, k2s)
        if k1s is self.powers[0] and k2s is self.powers:
            rows[x][1][0] *= 2
        return rows

    return patched


ONE, ETA = "eta^0*1_(c=0)", "eta^1*1_(c=0)"


@pytest.mark.parametrize(
    "x,failures",
    [
        # 1 * 1 = 2: the unit check fails, so the unit stays in G, and only
        # that middle sees (1 * 1) * eta != 1 * (1 * eta)
        (0, [
            ("unit", f"1 * {ONE} = 2 * basis[0]"),
            ("associativity", f"({ONE} * {ONE}) * {ETA} != {ONE} * ({ONE} * {ETA})"),
            ("frobenius", f"<{ONE} * {ONE}, {ETA}> != <{ONE}, {ONE} * {ETA}>"),
        ]),
        # eta * 1 = 2 eta while 1 * eta = eta: the unit check passes and
        # commutativity fails, so the unit stays in G; G = {eta} alone proves
        # nothing, and the counit test, which then passes row 0, would
        # miss the Frobenius failure without the direct loop
        (1, [
            ("commutativity", f"{ONE} * {ETA} != {ETA} * {ONE}"),
            ("associativity", f"({ETA} * {ONE}) * {ONE} != {ETA} * ({ONE} * {ONE})"),
            ("frobenius", f"<{ONE} * {ETA}, {ONE}> != <{ONE}, {ETA} * {ONE}>"),
        ]),
    ],
    ids=["one-times-one", "eta-times-one"],
)
def test_the_unit_leaves_the_generating_set_only_when_x_times_1_is_x(monkeypatch, x, failures):
    """On P^1 (basis 1, eta; G = {eta} once the unit is proved) a broken
    x * 1 is seen only with the middle 1, so the axiom check keeps the unit
    in G unless the unit and commutativity checks both pass."""
    ring = ChenRuanRing(validate_datum(QuotientDatum((1, 1))))
    assert [str(e) for e in ring.basis()] == [ONE, ETA]
    monkeypatch.setattr(ChenRuanRing, "basis_rows", breaking_x_times_1(x))
    report = ring.verify_ring_axioms()
    assert [c for c in report.phases if c.status != "pass"] == [
        PhaseResult(name, "fail", detail) for name, detail in failures
    ]


@settings(max_examples=100, deadline=None)
@given(data(), st.sampled_from(sorted(CORRUPTIONS)), st.randoms(use_true_random=False))
def test_the_counit_route_and_the_direct_loop_give_one_frobenius_verdict(vd, kind, rng):
    """``_counit`` decides Frobenius on every drawn ring that passes (some
    mixed-sign rings fail associativity, ROADMAP defect 5); with it forced
    to fail, the direct loop over the sparse pairing gives the same report,
    on the drawn ring and under one drawn corruption of one sector product,
    where either may decide."""
    counit = ChenRuanRing._counit
    for chamber in CHAMBERS:
        ring = ChenRuanRing(vd, chamber)
        nonzero = [(s, t) for s, row in enumerate(ring.pairs[2]) for t, d in enumerate(row) if d]
        for corrupted in [set()] + ([{rng.choice(nonzero)}] if nonzero else []):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ChenRuanRing, "row", corrupting(CORRUPTIONS[kind], corrupted))
                verdicts = []
                patch.setattr(ChenRuanRing, "_counit", staticmethod(
                    lambda *args: verdicts.append(counit(*args)) or verdicts[-1]
                ))
                routed = ChenRuanRing(vd, chamber).verify_ring_axioms()
                patch.setattr(ChenRuanRing, "_counit", staticmethod(lambda *args: False))
                forced = ChenRuanRing(vd, chamber).verify_ring_axioms()
            assert routed.phases == forced.phases, (chamber, kind, corrupted)
            if not corrupted and routed.passed:
                assert verdicts == [True], chamber


def test_a_chamber_with_no_sectors_has_an_empty_ring():
    # P(1,2) has no negative weight, so its negative chamber has no sector
    ring = ChenRuanRing(validate_datum(QuotientDatum((1, 2))), "negative")
    assert ring.table.codes == ()
    assert ring.pairs == ([], [], [])
    assert ring.verify_ring_axioms().passed
    table = ring.structure_constants()
    assert table.basis == () and table.products == {}


NEGATIVE_122 = QuotientDatum((-1, -2, -2), chamber="negative")
# c=1/6 fixes only the coordinate of weight -6, and so does the composite of
# c=1/2 and c=1/3, which both fix it and one more
MIXED_23M6 = QuotientDatum((2, 3, -6))
Z2_Z3_ON_P123 = QuotientDatum(
    (1, 2, 3), (FiniteCyclicFactor(2, (0, 1, 1)), FiniteCyclicFactor(3, (0, 1, 2)))
)


@pytest.mark.parametrize(
    "datum,chamber",
    [
        *((datum_from_doc(json.loads(DATA[name].read_text())), None)
          for name in ("wp112", "wp122333", "z3_on_p2")),
        (QuotientDatum((1, 1, -1)), "positive"),
        (QuotientDatum((1, 1, -1)), "negative"),
        (NEGATIVE_122, "negative"),
        (NEGATIVE_122, "positive"),
        (MIXED_23M6, "positive"),
        (MIXED_23M6, "negative"),
        (Z2_Z3_ON_P123, None),
    ],
    ids=[
        "wp112", "wp122333", "z3_on_p2", "mixed_11m1-positive", "mixed_11m1-negative",
        "negative_122", "negative_122-positive", "mixed_23m6-positive", "mixed_23m6-negative",
        "z2_z3_on_p123",
    ],
)
def test_the_point_route_equals_the_table_route(datum, chamber, tmp_path, capsys):
    """``cup_basis`` and ``pairing_basis`` read sector rows, never the
    sector table, and give the ``structure_constants`` entry of every
    ordered pair of basis elements (the product of i > j read at (j, i)).
    Every label on the lattice of 2D, each finite component included, that
    names no sector of the chamber, and every eta power just outside [0,
    dim] of a sector, is refused in either place of either method with
    the class and text that the tables of both chambers decide.  In the
    datum's own chamber the same text comes from the wire reader's
    ``element`` with the datum, as ``DatumFormatError``, and from the ``pair``
    command: exit 1 with the class name, or exit 2 as a usage error for
    an eta power."""
    vd = validate_datum(datum)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_doc(datum)))
    tabulated = ChenRuanRing(vd, chamber)
    table, full = tabulated.table, tabulated.structure_constants()
    ring = ChenRuanRing(vd, chamber)
    for i, a in enumerate(full.basis):
        for j, b in enumerate(full.basis):
            product = ring.cup_basis(a, b)
            point = None if product is None else CRClass.single(product[1], product[0])
            assert point == full.products.get((min(i, j), max(i, j))), (a, b)
            assert ring.pairing_basis(a, b) == full.pairing[i][j], (a, b)
    refused, d = 0, 2 * vd.denominator
    for x, finite in itertools.product(range(d), itertools.product(*map(range, vd.moduli[1:]))):
        label = vd.label(Fraction(x, d), finite)
        s = table.position(label)
        for k in (0,) if s is None else (-1, table.dims[s] + 1):
            e = BasisElement(label, k)
            if s is not None:
                expected = EtaPowerRange, f"eta power {k} of {label} is outside [0, {table.dims[s]}]"
            elif vd.sector_table(CHAMBERS[ring.chamber == "positive"]).position(label) is None:
                expected = EmptySector, f"{label} fixes no coordinate"
            else:
                side = f"has no fixed coordinate on the {ring.chamber} side of the wall"
                expected = EmptySector, f"{label} {side}"
            other = full.basis[0] if full.basis else e
            for call in (ring.cup_basis, ring.pairing_basis):
                for pair in ((e, other), (other, e)):
                    with pytest.raises(DomainError) as refusal:
                        call(*pair)
                    assert (type(refusal.value), str(refusal.value)) == expected, pair
            if ring.chamber == vd.chamber:
                with pytest.raises(DatumFormatError) as refusal:
                    _Reader(vd).element(element_to_doc(label, k))
                assert (type(refusal.value), str(refusal.value)) == (DatumFormatError, expected[1])
                flags = ["--t1", str(label), f"--k1={k}", "--t2", str(other.sector), f"--k2={other.k}"]
                code, usage = cli.main(["pair", str(path), *flags]), expected[0] is EtaPowerRange
                shown = "usage error" if usage else expected[0].__name__
                printed = ("", f"{shown}: {expected[1]}\n")
                assert (code, capsys.readouterr()) == (2 if usage else 1, printed), flags
            refused += 1
    assert refused > len(table.codes)
    assert "table" not in vars(ring)


def test_verify_ring_axioms_mixed_chambers(mixed):
    for chamber in ("positive", "negative"):
        assert ChenRuanRing(mixed, chamber).verify_ring_axioms().passed


def test_pairing_couples_inverse_sectors_in_complementary_degree(wp122333, mixed):
    for vd in (wp122333, mixed):
        ring = ChenRuanRing(vd)
        table = ring.structure_constants()
        top = 2 * (vd.n - 1)
        for i, a in enumerate(table.basis):
            for j, b in enumerate(table.basis):
                if table.pairing[i][j] != 0:
                    assert b.sector == vd.inverse(a.sector)
                    assert table.degrees[i] + table.degrees[j] == top


def test_degree_additivity_identity(wp122333):
    # age(s) + age(t) - age(s*t) counts the interacting coordinates
    ring = ChenRuanRing(wp122333)
    labels = [info.label for info in wp122333.sectors()]
    for s in labels:
        for t in labels:
            h = wp122333.compose(s, t)
            indices = obstruction_split(ring, s, t)[0]
            assert (
                wp122333.degree_shift(s)
                + wp122333.degree_shift(t)
                - wp122333.degree_shift(h)
                == len(indices)
            )


def test_cr_class_arithmetic(wp112):
    b = one(wp112, 0, 1)
    assert 3 * b == b * 3 == CRClass.single(BasisElement(wp112.identity(), 1), 3)
    assert 0 * b == CRClass()
    assert CRClass({BasisElement(wp112.identity(), 0): Fraction(0)}) == CRClass()


def test_cr_class_refuses_floats(wp112):
    element = BasisElement(wp112.identity(), 0)
    x = CRClass.single(element)
    ring, halved = ChenRuanRing(wp112), SectorLabel(0.5, ())
    z3 = validate_datum(QuotientDatum((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)))
    for make in (
        lambda: CRClass.single(element, 0.1),
        lambda: CRClass({element: 0.5}),
        lambda: x * 0.5,
        lambda: 0.5 * x,
        lambda: CRClass() * 0.5,
        # a label's phase: 0.1 would be c = 3602879701896397/2^55
        lambda: wp112.label(0.1),
        lambda: wp112.label(1.0),
        lambda: format_rational(0.1),
        lambda: frac_part(0.1),
        # a label built directly with a float phase is refused wherever its
        # phase is read, though c=1/2 is a sector of P(1,1,2)
        lambda: ring.table.position(halved),
        lambda: ring.cup_basis(BasisElement(halved, 0), BasisElement(halved, 0)),
        lambda: ring.degree(BasisElement(halved, 0)),
        lambda: wp112.theta_numerators(halved),
        # a finite component: its document would read "finite": [1.0]
        lambda: z3.label(0, (1.0,)),
    ):
        with pytest.raises(TypeError, match="is a float"):
            make()
    with pytest.raises(TypeError, match="finite component Fraction\\(1, 1\\) is a Fraction"):
        z3.label(0, (Fraction(1),))
    assert wp112.label(Fraction(3, 2)) == wp112.label(Fraction(1, 2))
    assert z3.label(0, (4,)) == SectorLabel(Fraction(0), (1,))
    assert wp112.label(1) == wp112.identity()
    assert x * Fraction(1, 2) == CRClass.single(element, Fraction(1, 2))
    assert CRClass.single(element, "1/2") == 2 * x * Fraction(1, 4)


def test_cr_class_doc_round_trip(wp122333):
    ring = ChenRuanRing(wp122333)
    square = ring.cup(one(wp122333, "1/3"), one(wp122333, "1/3"))
    value = CRClass({**square.terms, BasisElement(wp122333.identity(), 0): 2})
    doc = cr_class_to_doc(value)
    assert cr_class_from_doc(doc, wp122333) == value
    assert doc == [
        {"sector": {"c": "0", "finite": []}, "eta_power": 0, "coeff": "2"},
        {"sector": {"c": "2/3", "finite": []}, "eta_power": 2, "coeff": "4"},
    ]


def test_table_doc_round_trip(wp112):
    table = ChenRuanRing(wp112).structure_constants()
    doc = table_to_doc(table)
    rebuilt = table_from_doc(doc, wp112)
    assert rebuilt == table
    assert table_to_doc(rebuilt) == doc


@pytest.mark.parametrize("name", sorted(DATA))
def test_rational_grading_pairs_to_the_top_degree(name):
    """Each pairing-matched pair (i, j) has degrees summing to 2(n - 1), the
    real dimension of the quotient, and ``degree`` of a basis element is
    ``degree_at`` of its index."""
    vd = validate_datum(datum_from_doc(json.loads(DATA[name].read_text())))
    ring = ChenRuanRing(vd)
    basis, top = ring.basis(), 2 * (vd.n - 1)
    entries = list(ring._pairing_entries())
    assert len(entries) == len(basis)
    for i, j, _ in entries:
        assert ring.degree_at(i) + ring.degree_at(j) == top
        assert ring.degree(basis[i]) == ring.degree_at(i)
