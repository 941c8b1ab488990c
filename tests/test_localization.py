from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from crring import (
    BasisElement,
    CRClass,
    ChenRuanRing,
    EmptySector,
    FiniteCyclicFactor,
    NonComposable,
    QuotientDatum,
    localized_residue,
    triple_localized,
    validate_datum,
    wall_crossing_delta,
)
from crring.quotient import sector_dim

LOCALIZATION = Path(__file__).resolve().parent.parent / "src" / "crring" / "localization.py"


def test_localized_path_imports_nothing_from_the_ring():
    # the two 3-point paths must share no code: no import of crring.ring, in
    # any spelling, anywhere in the localization module
    for node in ast.walk(ast.parse(LOCALIZATION.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        for module in modules:
            assert ".ring." not in f".{module}.", f"line {node.lineno} imports {module}"


def test_twist_restriction_cube_root_sector(wp122333):
    # the twist factor of t restricted to the origin is prod_j (w_j u)^theta_t(j);
    # its cube for c = 1/3 has the integer exponents (1, 2, 2) and collapses to
    # 16 u^5, over the Euler class 108 u^6 of the origin; the kernel cancels
    # the weights of the coordinates with exponent 1 and keeps 4 / 27 u^-1
    third = wp122333.label(Fraction(1, 3))
    assert wp122333.thetas(third) == (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3), 0, 0, 0)
    assert not any(wp122333.thetas(wp122333.identity()))
    numerators = wp122333.theta_numerators(third)[1]
    assert localized_residue(wp122333, *[numerators] * 3) == (4, 27, -1)


def test_localized_residue_refuses_float_numerators(wp112):
    # P(1,1,2): (1, 1, 0) twice and the identity compose to 1 with term
    # (1, 2, -1); a float numerator is refused, composable or not
    assert localized_residue(wp112, (1, 1, 0), (1, 1, 0), (0, 0, 0)) == (1, 2, -1)
    for thetas in [
        ((1.0, 1, 0), (1, 1, 0), (0, 0, 0)),
        ((1, 1, 0), (1, 1, 0), (0, 0, 0.0)),
        # non-composable, at a float coordinate and after one
        ((1.5, 1, 0), (1, 1, 0), (0, 0, 0)),
        ((1.0, 1, 0), (1, 0, 0), (0, 0, 0)),
    ]:
        with pytest.raises(TypeError, match="is a float"):
            localized_residue(wp112, *thetas)


def test_twist_restriction_wp112(wp112):
    half = wp112.label(Fraction(1, 2))
    assert wp112.thetas(half) == (Fraction(1, 2), Fraction(1, 2), 0)


def test_euler_origin(wp122333, p11, mixed):
    # on three identity lifts the localized value is u^k over the Euler class
    # |A| * prod_j (w_j u) of the origin, read at total power -1
    for vd, k, euler in ((wp122333, 5, 108), (p11, 1, 1)):
        identity = vd.identity()
        report = triple_localized(vd, (identity, k), (identity, 0), (identity, 0))
        assert (report.value, report.degree_check) == (Fraction(1, euler), -1)
    identity = mixed.identity()
    report = triple_localized(mixed, (identity, 1), (identity, 1), (identity, 0))
    assert (report.value, report.degree_check) == (-1, -1)


def test_euler_origin_counts_finite_group():
    vd = validate_datum(QuotientDatum((1, 1), (FiniteCyclicFactor(5, (1, 2)),)))
    identity = vd.identity()
    report = triple_localized(vd, (identity, 1), (identity, 0), (identity, 0))
    assert report.value == Fraction(1, 5)


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
            if all(wp122333.thetas(r)):  # r fixes no coordinate
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
            r_dim = sector_dim(wp122333.sector_row(r, wp122333.chamber)[2])
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
