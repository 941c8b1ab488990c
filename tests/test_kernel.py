"""Reference checks of the integer sector kernel: theta numerators, the
carry-rule products and the closed-form localized value are re-derived from
the Fraction definitions on the demo data, one all-negative datum and the
seeded data of acceptance criterion 6."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from crring import (
    BasisElement,
    ChenRuanRing,
    DomainError,
    EmptySector,
    QuotientDatum,
    SectorLabel,
    datum_from_doc,
    frac_part,
    localized_residue,
    obstruction_rank_oracle,
    triple_localized,
    validate_datum,
)
from test_acceptance import _random_datum

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos" / "data"


def _criterion6_data() -> list[QuotientDatum]:
    rng = random.Random(20260810)
    data = [_random_datum(rng, False) for _ in range(50)]
    return data + [_random_datum(rng, True) for _ in range(10)]


DEMOS = [datum_from_doc(json.loads(p.read_text())) for p in sorted(DEMO_DIR.glob("*.datum"))]
NEGATIVE = QuotientDatum((-1, -2, -2), chamber="negative")
CRITERION6 = _criterion6_data()
# the triple-level references are slower: demos plus every tenth seeded
# datum, skipping rings of more than 60 basis elements to bound the run time
SAMPLE = DEMOS + [NEGATIVE] + [
    d for d in CRITERION6[::10] if len(ChenRuanRing(validate_datum(d)).basis()) <= 60
]


def _ids(data):
    return [f"{d.weights}{'+A' if d.finite else ''}" for d in data]


def fraction_thetas(datum: QuotientDatum, t: SectorLabel) -> tuple[Fraction, ...]:
    """theta_j = frac(c * w_j + sum_k a_k * phases_k[j] / order_k)."""
    return tuple(
        frac_part(
            t.c * w
            + sum(Fraction(a * f.phases[j], f.order) for a, f in zip(t.finite, datum.finite))
        )
        for j, w in enumerate(datum.weights)
    )


def candidate_labels(datum: QuotientDatum) -> set[SectorLabel]:
    """Every label that fixes some coordinate: c = (m - phi_j(a)) / w_j."""
    labels = set()
    for finite in itertools.product(*(range(f.order) for f in datum.finite)):
        for j, w in enumerate(datum.weights):
            phi = sum(Fraction(a * f.phases[j], f.order) for a, f in zip(finite, datum.finite))
            labels.update(
                SectorLabel(frac_part((m - phi) / Fraction(w)), finite) for m in range(abs(w))
            )
    return labels


def chambers_of(vd):
    return [chamber for chamber in ("positive", "negative") if vd.sectors(chamber)]


ALL = DEMOS + [NEGATIVE] + CRITERION6


@pytest.mark.parametrize("datum", ALL, ids=_ids(ALL))
def test_int_thetas_match_fraction_definition(datum):
    vd = validate_datum(datum)
    candidates = candidate_labels(datum)
    for t in candidates:
        q, numerators = vd.theta_numerators(t)
        assert q == vd.denominator
        assert tuple(Fraction(x, q) for x in numerators) == fraction_thetas(datum, t)
    # a label off the lattice of D fixes nothing and keeps its exact phases
    off = vd.label(Fraction(1, vd.denominator + 1))
    q, numerators = vd.theta_numerators(off)
    assert all(numerators)
    assert tuple(Fraction(x, q) for x in numerators) == fraction_thetas(datum, off)
    for chamber in ("positive", "negative"):
        table = vd.sector_table(chamber)
        sign = 1 if chamber == "positive" else -1
        expected = {
            t
            for t in candidates
            if any(th == 0 and w * sign > 0 for th, w in zip(fraction_thetas(datum, t), vd.weights))
        }
        assert {info.label for info in table.infos} == expected
        for i, info in enumerate(table.infos):
            assert table.thetas[i] == vd.theta_numerators(info.label)[1]
            assert table.fixed[i] == sum(1 << j for j in info.fixed_set)
            assert table.dims[i] == info.dim
            assert table.infos[table.inverse[i]].label == vd.inverse(info.label)
            assert table.position(info.label) == i


def reference_localized(datum: QuotientDatum, triple, thetas: dict) -> tuple:
    """The 3-point function from the Fraction thetas (cached in ``thetas``).
    The restricted twist factors multiply to prod_j (w_j u)^e_j with
    e_j = sum_i theta_i(j), an integer on a composable triple; over the Euler
    class |A| * prod_j (w_j u) of the origin, and with the lifts u^k_i, that
    is prod_j w_j^e_j / (|A| * prod_j w_j) at the power sum_j e_j + sum_i k_i - n.
    The value is the coefficient when that power is -1, and 0 otherwise."""
    for t, _ in triple:
        if t not in thetas:
            thetas[t] = fraction_thetas(datum, t)
    exponents = [sum(column) for column in zip(*(thetas[t] for t, _ in triple))]
    assert all(e.denominator == 1 for e in exponents)
    coeff = Fraction(
        prod(w ** int(e) for w, e in zip(datum.weights, exponents)),
        prod(f.order for f in datum.finite) * prod(datum.weights),
    )
    power = int(sum(exponents)) + sum(k for _, k in triple) - datum.n
    return (coeff if power == -1 else 0), power


@pytest.mark.parametrize("datum", SAMPLE, ids=_ids(SAMPLE))
def test_closed_form_localized_matches_collapse_reference(datum):
    vd = validate_datum(datum)
    dims = {info.label: info.dim for chamber in chambers_of(vd) for info in vd.sectors(chamber)}
    checked, thetas = 0, {}
    for s, t in itertools.product(dims, repeat=2):
        r = vd.inverse(vd.compose(s, t))
        if r not in dims:
            continue
        powers = (range(dims[s] + 1), range(dims[t] + 1), range(dims[r] + 1))
        for k1, k2, k3 in itertools.product(*powers):
            triple = ((s, k1), (t, k2), (r, k3))
            report = triple_localized(vd, *triple)
            expected = reference_localized(datum, triple, thetas)
            assert (report.value, report.degree_check) == expected
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("datum", SAMPLE, ids=_ids(SAMPLE))
def test_carry_rule_products_match_fraction_rederivation(datum):
    vd = validate_datum(datum)
    for chamber in chambers_of(vd):
        ring = ChenRuanRing(vd, chamber)
        labels = {info.label for info in vd.sectors(chamber)}
        thetas = {t: fraction_thetas(datum, t) for t in labels}
        table = ring.structure_constants()
        for i, a in enumerate(table.basis):
            for j, b in enumerate(table.basis):
                s, t = a.sector, b.sector
                h = vd.compose(s, t)
                expected = None
                shared = [x for x in range(vd.n) if thetas[s][x] == 0 == thetas[t][x]]
                if shared and h in labels:
                    interacting = [
                        x for x in range(vd.n) if thetas[s][x] + thetas[t][x] == thetas[h][x] + 1
                    ]
                    k = a.k + b.k + len(interacting)
                    if k <= sum(1 for th in thetas[h] if th == 0) - 1:
                        coeff = prod(vd.weights[x] for x in interacting)
                        expected = (Fraction(coeff), BasisElement(h, k))
                assert ring.cup_basis(a, b) == expected
                if i <= j:
                    stored = table.products.get((i, j))
                    assert (None if stored is None else next(iter(stored))[::-1]) == expected


KERNEL_DATA = DEMOS + [NEGATIVE] + CRITERION6[::10]


@pytest.mark.parametrize("datum", KERNEL_DATA, ids=_ids(KERNEL_DATA))
def test_kernel_matches_the_public_call(datum):
    """The sector-level kernel read at (k1, k2, k3) is the value and
    u-power that ``triple_localized`` reports on that basis triple."""
    vd = validate_datum(datum)
    infos = {info.label: info for chamber in chambers_of(vd) for info in vd.sectors(chamber)}
    checked = 0
    for s, t in itertools.product(infos, repeat=2):
        r = vd.inverse(vd.compose(s, t))
        if r not in infos:
            continue
        coeff, base = localized_residue(vd, *(vd.theta_numerators(x)[1] for x in (s, t, r)))
        dims = (infos[s].dim, infos[t].dim, infos[r].dim)
        for k1, k2, k3 in itertools.product(*(range(dim + 1) for dim in dims)):
            report = triple_localized(vd, (s, k1), (t, k2), (r, k3))
            power = base + k1 + k2 + k3
            assert (coeff if power == -1 else 0, power) == (report.value, report.degree_check)
            checked += 1
    assert checked > 0


def test_kernel_refuses_a_non_composable_triple():
    vd = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
    third, half = vd.label(Fraction(1, 3)), vd.label(Fraction(1, 2))
    thetas = [vd.theta_numerators(x)[1] for x in (third, third, half)]
    assert localized_residue(vd, *thetas) is None
    assert localized_residue(vd, *[vd.theta_numerators(third)[1]] * 3) == (Fraction(4, 27), -1)


def test_localized_refuses_a_label_that_fixes_nothing():
    vd = validate_datum(QuotientDatum((1, 1, 2)))
    third = vd.label(Fraction(1, 3))
    with pytest.raises(EmptySector):
        triple_localized(vd, (third, 0), (third, 0), (third, 0))


def test_rank_oracle_on_integer_numerators():
    assert obstruction_rank_oracle(2, 2, 2, 3) == 1
    assert obstruction_rank_oracle(1, 1, 1, 3) == 0
    assert obstruction_rank_oracle(0, 0, 0, 6) == 0
    with pytest.raises(DomainError):
        obstruction_rank_oracle(2, 2, 3, 6)
