"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (visible with ``pytest -s`` or on failure).  All equalities are exact
rational comparisons; the only tolerances are the stated runtime budgets.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from crring import (
    BasisElement,
    CRClass,
    ChenRuanRing,
    DomainError,
    FiniteCyclicFactor,
    QuotientDatum,
    run_selftest,
    triple_localized,
    validate_datum,
    wall_crossing_delta,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_1_value_4_27_both_paths():
    with criterion(1, "4/27 via both computation paths, < 1 s"):
        start = time.perf_counter()
        vd = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
        third = vd.label(Fraction(1, 3))
        one_third = CRClass.single(BasisElement(third, 0))
        direct = ChenRuanRing(vd).triple_direct(one_third, one_third, one_third)
        localized = triple_localized(vd, (third, 0), (third, 0), (third, 0)).value
        elapsed = time.perf_counter() - start
        assert direct == Fraction(4, 27)
        assert localized == Fraction(4, 27)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_degree_shift_5_3():
    with criterion(2, "degree shift 5/3 with fixed set of the weight-3 coordinates"):
        vd = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
        third = vd.label(Fraction(1, 3))
        assert vd.degree_shift(third) == Fraction(5, 3)
        weight_three = frozenset(j for j, w in enumerate(vd.weights) if w == 3)
        # the fixed set is the zeros of the thetas: {4,5,6} in 1-based terms
        assert frozenset(j for j, x in enumerate(vd.thetas(third)) if x == 0) == weight_three


def test_criterion_3_classical_limit():
    with criterion(3, "weights (1,...,1) reproduce Q[eta]/eta^n exactly"):
        for n in range(1, 7):
            vd = validate_datum(QuotientDatum((1,) * n))
            table = ChenRuanRing(vd).structure_constants()
            identity = vd.identity()
            assert table.basis == tuple(BasisElement(identity, k) for k in range(n))
            assert table.degrees == tuple(Fraction(2 * k) for k in range(n))
            for a in range(n):
                for b in range(n):
                    expected = Fraction(1) if a + b == n - 1 else Fraction(0)
                    assert table.pairing[a][b] == expected
            for a in range(n):
                for b in range(a, n):
                    if a + b <= n - 1:
                        assert table.products[(a, b)] == CRClass.single(
                            BasisElement(identity, a + b)
                        )
                    else:
                        assert (a, b) not in table.products


def test_criterion_4_desk_oracle_wp112():
    with criterion(4, "P(1,1,2) hand-computed sector, product, pairing, triple"):
        vd = validate_datum(QuotientDatum((1, 1, 2)))
        half = vd.label(Fraction(1, 2))
        assert [s.label for s in vd.sectors()] == [vd.identity(), half]
        assert vd.degree_shift(half) == 1
        ring = ChenRuanRing(vd)
        one_half = CRClass.single(BasisElement(half, 0))
        assert ring.cup(one_half, one_half) == CRClass.single(
            BasisElement(vd.identity(), 2)
        )
        assert ring.pairing(one_half, one_half) == Fraction(1, 2)
        untwisted = CRClass.single(BasisElement(vd.identity(), 0))
        assert ring.triple_direct(one_half, one_half, untwisted) == Fraction(1, 2)
        localized = triple_localized(vd, (half, 0), (half, 0), (vd.identity(), 0))
        assert localized.value == Fraction(1, 2)


def test_criterion_5_residue_convention_pin():
    with criterion(5, "collapsed terms (1/2)u^-1 and (16/108)u^-1 pin the residue rule"):
        wp112 = validate_datum(QuotientDatum((1, 1, 2)))
        half = wp112.label(Fraction(1, 2))
        report = triple_localized(wp112, (half, 0), (half, 0), (wp112.identity(), 0))
        assert report.degree_check == -1
        assert report.value == Fraction(1, 2)

        wp = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
        third = wp.label(Fraction(1, 3))
        report = triple_localized(wp, (third, 0), (third, 0), (third, 0))
        assert report.degree_check == -1
        assert report.value == Fraction(16, 108)
        # a literal degree-0 evaluation could not produce either term
        assert report.degree_check != 0


def _random_datum(rng: random.Random, with_finite: bool) -> "QuotientDatum":
    while True:
        n = rng.randint(1, 6)
        weights = tuple(rng.randint(1, 9) for _ in range(n))
        finite = ()
        if with_finite:
            order = rng.randint(2, 5)
            finite = (
                FiniteCyclicFactor(order, tuple(rng.randint(0, order - 1) for _ in range(n))),
            )
        datum = QuotientDatum(weights, finite, "positive")
        try:
            validate_datum(datum)
        except DomainError:
            continue
        return datum


def test_criterion_6_randomized_property_suite():
    with criterion(6, ">= 50 + >= 10 randomized data pass every property, < 60 s"):
        rng = random.Random(20260810)
        start = time.perf_counter()
        data = [_random_datum(rng, False) for _ in range(50)]
        data += [_random_datum(rng, True) for _ in range(10)]
        assert sum(1 for d in data if d.finite) >= 10
        for datum in data:
            vd = validate_datum(datum)
            report = run_selftest(vd)
            failures = [p for p in report.phases if p.status == "fail"]
            assert not failures, (datum, [(p.name, p.detail) for p in failures])
            names = {p.name for p in report.phases}
            assert names == {
                "ring_axioms",
                "sector_involution",
                "obstruction_oracle",
                "path_agreement",
            }
            agreement = next(p for p in report.phases if p.name == "path_agreement")
            assert agreement.status == "pass"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(f"  ({len(data)} data verified in {elapsed:.1f}s)", end=" ")


def test_criterion_7_mixed_sign_wall_crossing():
    with criterion(7, "weights (1,1,-1): untwisted deltas -1 and 0"):
        vd = validate_datum(QuotientDatum((1, 1, -1)))
        identity = vd.identity()
        report = wall_crossing_delta(vd, (identity, 1), (identity, 1), (identity, 0))
        assert report.value == Fraction(-1)
        report = wall_crossing_delta(vd, (identity, 0), (identity, 0), (identity, 0))
        assert report.value == Fraction(0)
        assert report.degree_check == -3
