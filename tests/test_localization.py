from __future__ import annotations

from fractions import Fraction

import pytest

from crring import (
    BasisElement,
    CRClass,
    ChenRuanRing,
    EmptySector,
    EquivariantClass,
    FactoredMonomial,
    LaurentPoly,
    NonComposable,
    QuotientDatum,
    collapse,
    equivariant_euler_origin,
    equivariant_twist_restriction,
    kirwan,
    triple_localized,
    validate_datum,
    wall_crossing_delta,
)


def test_kirwan_definitional(wp122333):
    identity = wp122333.identity()
    image = kirwan(wp122333, EquivariantClass(identity, LaurentPoly({0: 1})))
    assert image == CRClass.single(BasisElement(identity, 0))
    third = wp122333.label(Fraction(1, 3))
    image = kirwan(wp122333, EquivariantClass(third, LaurentPoly({2: 1})))
    assert image == CRClass.single(BasisElement(third, 2))


def test_kirwan_truncates(wp112):
    half = wp112.label(Fraction(1, 2))
    assert kirwan(wp112, EquivariantClass(half, LaurentPoly({1: 1}))).is_zero()
    mixed_powers = EquivariantClass(half, LaurentPoly({0: 3, 1: 5}))
    assert kirwan(wp112, mixed_powers) == CRClass.single(BasisElement(half, 0), 3)


def test_kirwan_raises_for_absent_sector():
    vd = validate_datum(QuotientDatum((1, -2), chamber="positive"))
    half = vd.label(Fraction(1, 2))
    with pytest.raises(EmptySector):
        kirwan(vd, EquivariantClass(half, LaurentPoly({0: 1})))


def test_kirwan_hits_every_basis_element(wp122333):
    ring = ChenRuanRing(wp122333)
    for element in ring.basis():
        lifted = EquivariantClass(element.sector, LaurentPoly({element.k: 1}))
        assert kirwan(wp122333, lifted) == CRClass.single(element)


def test_equivariant_class_rejects_negative_powers(wp112):
    with pytest.raises(ValueError):
        EquivariantClass(wp112.identity(), LaurentPoly({-1: 1}))


def test_twist_restriction_cube_root_sector(wp122333):
    third = wp122333.label(Fraction(1, 3))
    monomial = equivariant_twist_restriction(wp122333, third)
    assert monomial == FactoredMonomial(
        Fraction(1), Fraction(0), {0: Fraction(1, 3), 1: Fraction(2, 3), 2: Fraction(2, 3)}
    )
    assert equivariant_twist_restriction(wp122333, wp122333.identity()) == FactoredMonomial.one()


def test_twist_restriction_wp112(wp112):
    half = wp112.label(Fraction(1, 2))
    assert equivariant_twist_restriction(wp112, half).factors == {
        0: Fraction(1, 2),
        1: Fraction(1, 2),
    }


def test_euler_origin(wp122333, p11, mixed):
    assert collapse(equivariant_euler_origin(wp122333), wp122333.weights).coeff == 108
    assert collapse(equivariant_euler_origin(wp122333), wp122333.weights).power == 6
    assert collapse(equivariant_euler_origin(p11), p11.weights).coeff == 1
    term = collapse(equivariant_euler_origin(mixed), mixed.weights)
    assert (term.coeff, term.power) == (-1, 3)


def test_euler_origin_counts_finite_group():
    from crring import FiniteCyclicFactor

    vd = validate_datum(QuotientDatum((1, 1), (FiniteCyclicFactor(5, (1, 2)),)))
    assert collapse(equivariant_euler_origin(vd), vd.weights).coeff == 5


def test_triple_localized_wp122333_value(wp122333):
    third = wp122333.label(Fraction(1, 3))
    report = triple_localized(wp122333, (third, 0), (third, 0), (third, 0))
    assert report.value == Fraction(4, 27)
    assert report.degree_check == -1
    assert report.side_existence["positive"] == (True, True, True)
    assert report.side_existence["negative"] == (False, False, False)


def test_triple_localized_untwisted_p11(p11):
    identity = p11.identity()
    report = triple_localized(p11, (identity, 1), (identity, 0), (identity, 0))
    assert report.value == 1
    assert report.degree_check == -1


def test_triple_localized_wp112(wp112):
    half = wp112.label(Fraction(1, 2))
    report = triple_localized(wp112, (half, 0), (half, 0), (wp112.identity(), 0))
    assert report.value == Fraction(1, 2)
    assert report.degree_check == -1


def test_triple_localized_rejects_noncomposable(wp122333):
    third = wp122333.label(Fraction(1, 3))
    half = wp122333.label(Fraction(1, 2))
    with pytest.raises(NonComposable):
        triple_localized(wp122333, (third, 0), (third, 0), (half, 0))


def test_wall_crossing_delta_wp122333(wp122333):
    third = wp122333.label(Fraction(1, 3))
    report = wall_crossing_delta(wp122333, (third, 0), (third, 0), (third, 0))
    assert report.value == Fraction(4, 27)
    assert report.note is not None and "negative chamber is empty" in report.note


def test_wall_crossing_delta_mixed_weights(mixed):
    identity = mixed.identity()
    report = wall_crossing_delta(mixed, (identity, 1), (identity, 1), (identity, 0))
    assert report.value == -1
    assert report.degree_check == -1
    assert report.note is None
    assert report.side_existence == {
        "positive": (True, True, True),
        "negative": (True, True, True),
    }
    degree_short = wall_crossing_delta(mixed, (identity, 0), (identity, 0), (identity, 0))
    assert degree_short.value == 0
    assert degree_short.degree_check == -3


def test_value_nonzero_only_at_degree_minus_one(wp122333):
    labels = [info.label for info in wp122333.sectors()]
    for s in labels:
        for t in labels:
            r = wp122333.inverse(wp122333.compose(s, t))
            if not wp122333.fixed_set(r):
                # the direct path has no such class either
                with pytest.raises(EmptySector):
                    triple_localized(wp122333, (s, 0), (t, 0), (r, 0))
                continue
            for k in range(3):
                report = triple_localized(wp122333, (s, k), (t, 0), (r, 0))
                if report.value != 0:
                    assert report.degree_check == -1


def test_path_agreement_wp122333(wp122333):
    # every composable basis triple: ring side equals localized side
    ring = ChenRuanRing(wp122333)
    infos = wp122333.sectors()
    checked = 0
    for s in infos:
        for t in infos:
            r = wp122333.inverse(wp122333.compose(s.label, t.label))
            if wp122333.sector_table().position(r) is None:
                continue
            r_dim = wp122333.sector_info(r).dim
            for k1 in range(s.dim + 1):
                for k2 in range(t.dim + 1):
                    for k3 in range(r_dim + 1):
                        direct = ring.triple_direct(
                            CRClass.single(BasisElement(s.label, k1)),
                            CRClass.single(BasisElement(t.label, k2)),
                            CRClass.single(BasisElement(r, k3)),
                        )
                        localized = triple_localized(
                            wp122333, (s.label, k1), (t.label, k2), (r, k3)
                        ).value
                        assert direct == localized
                        checked += 1
    assert checked > 100
