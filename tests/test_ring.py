from __future__ import annotations

from fractions import Fraction

import pytest

from crring import (
    BasisElement,
    CRClass,
    ChenRuanRing,
    DomainError,
    FiniteCyclicFactor,
    QuotientDatum,
    cr_class_from_doc,
    cr_class_to_doc,
    obstruction_rank_oracle,
    table_from_doc,
    table_to_doc,
    validate_datum,
)


def one(vd, c, k=0):
    return CRClass.single(BasisElement(vd.label(Fraction(c)), k))


def test_cr_degree(wp122333, wp112):
    ring = ChenRuanRing(wp122333)
    assert ring.degree(BasisElement(wp122333.label(Fraction(1, 3)), 0)) == Fraction(10, 3)
    assert ring.degree(BasisElement(wp122333.identity(), 2)) == 4
    assert ChenRuanRing(wp112).degree(BasisElement(wp112.label(Fraction(1, 2)), 0)) == 2


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
    of ``ring.pair``, and their split: a coordinate of T where the theta
    numerators sum to D is a Thom pushforward direction, one where they sum
    past D an obstruction direction."""
    si, ti = ring.table.position(s), ring.table.position(t)
    carry = ring.pair(si, ti)[1]
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


def test_cup_square_of_cube_root_sector(wp122333):
    ring = ChenRuanRing(wp122333)
    third = one(wp122333, "1/3")
    expected = CRClass.single(BasisElement(wp122333.label(Fraction(2, 3)), 2), 4)
    assert ring.cup(third, third) == expected


def test_cup_unit(wp122333):
    ring = ChenRuanRing(wp122333)
    for element in ring.basis():
        assert ring.cup(ring.unit(), CRClass.single(element)) == CRClass.single(element)


def test_cup_disjoint_fixed_sets_vanish(wp122333):
    ring = ChenRuanRing(wp122333)
    assert ring.cup(one(wp122333, "1/3"), one(wp122333, "1/2")).is_zero()


def test_pair_and_sector_product_values(wp122333):
    ring = ChenRuanRing(wp122333)
    third, two_thirds, half = (
        ring.table.position(wp122333.label(Fraction(c))) for c in ("1/3", "2/3", "1/2")
    )
    # theta(1/3) = (1/3, 2/3, 2/3, 0, 0, 0): coordinates 1 and 2 carry
    assert ring.pair(third, third) == (two_thirds, 0b110)
    assert ring.sector_product(third, third, *ring.pair(third, third)) == (4, 2)
    # c = 5/6 fixes no coordinate
    h, carry = ring.pair(third, half)
    assert h == -1
    assert ring.sector_product(third, half, h, carry) is None
    sectors = range(len(ring.table.codes))
    composite, carry = ring.pairs
    assert all(ring.pair(s, t) == (composite[s][t], carry[s][t]) for s in sectors for t in sectors)


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
        h, carry = ring.pair(s, t)
        assert ring.sector_product(s, t, h, carry) is None
        if h >= 0:
            composable += 1
            assert carry & fixed[h] == fixed[h]
    assert composable


def test_cup_truncates_past_sector_dimension(wp112):
    ring = ChenRuanRing(wp112)
    eta = one(wp112, 0, 1)
    assert ring.cup(eta, ring.cup(eta, eta)).is_zero()


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
        assert {c.name for c in report.checks} == {
            "unit",
            "commutativity",
            "degree_additivity",
            "associativity",
            "frobenius",
            "pairing_nondegenerate",
        }


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
    a = one(wp112, "1/2")
    b = one(wp112, 0, 1)
    combined = a + 3 * b - a
    assert combined == CRClass.single(BasisElement(wp112.identity(), 1), 3)
    assert (combined - combined).is_zero()
    assert CRClass({BasisElement(wp112.identity(), 0): Fraction(0)}).is_zero()


def test_cr_class_doc_round_trip(wp122333):
    ring = ChenRuanRing(wp122333)
    value = ring.cup(one(wp122333, "1/3"), one(wp122333, "1/3")) + 2 * ring.unit()
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
