"""The self-test's agreement gate reads the localized kernel once per sector
triple; these tests check that a wrong kernel value on one sector triple
still fails the gate and is named, pin the work counts of the demo data, and
check that one self-test derives each ordered sector pair once."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from crring import ChenRuanRing, QuotientDatum, datum_from_doc, run_selftest, validate_datum
from crring import cli
from crring.quotient import CHAMBERS

TESTS = Path(__file__).resolve().parent
DEMO_DIR = TESTS.parent / "demos" / "data"


def _load(path: Path):
    return validate_datum(datum_from_doc(json.loads(path.read_text())))


def _phase(report, name):
    return next(p for p in report.phases if p.name == name)


MUTATIONS = {
    "base-power-shifted": lambda coeff, base: (coeff, base + 1),
    "coefficient-scaled": lambda coeff, base: (coeff * 2, base),
    # the localized side moves past the top of the eta power range, while
    # the direct side stays nonzero inside it
    "base-power-past-the-range": lambda coeff, base: (coeff, base - 100),
}

# the whole detail of the failing phase for each (datum, mutation)
WRONG_TRIPLE_DETAILS = {
    ("wp122333", "base-power-shifted"):
        "(c=1/3,0) (c=1/3,0) (c=1/3,0): direct 4/27 != localized 0",
    ("wp122333", "coefficient-scaled"):
        "(c=1/3,0) (c=1/3,0) (c=1/3,0): direct 4/27 != localized 8/27",
    ("wp122333", "base-power-past-the-range"):
        "(c=1/3,0) (c=1/3,0) (c=1/3,0): direct 4/27 != localized 0",
    ("wp112", "base-power-shifted"): "(c=1/2,0) (c=1/2,0) (c=0,0): direct 1/2 != localized 0",
    ("wp112", "coefficient-scaled"): "(c=1/2,0) (c=1/2,0) (c=0,0): direct 1/2 != localized 1",
    ("wp112", "base-power-past-the-range"):
        "(c=1/2,0) (c=1/2,0) (c=0,0): direct 1/2 != localized 0",
    # P^2: the identity sector has dimension 2, so nonzero eta powers are named
    ("p2", "base-power-shifted"): "(c=0,0) (c=0,0) (c=0,1): direct 0 != localized 1",
    ("p2", "coefficient-scaled"): "(c=0,0) (c=0,0) (c=0,2): direct 1 != localized 2",
    ("p2", "base-power-past-the-range"): "(c=0,0) (c=0,0) (c=0,2): direct 1 != localized 0",
}
WRONG_TRIPLE_DATA = {
    "wp122333": ((1, 2, 2, 3, 3, 3), Fraction(1, 3)),
    "wp112": ((1, 1, 2), Fraction(1, 2)),
    "p2": ((1, 1, 1), Fraction(0)),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", list(WRONG_TRIPLE_DATA))
def test_gate_fails_on_one_wrong_sector_triple(monkeypatch, mutation, name):
    weights, c = WRONG_TRIPLE_DATA[name]
    vd = validate_datum(QuotientDatum(weights))
    s = vd.label(c)
    r = vd.inverse(vd.compose(s, s))
    target = tuple(vd.theta_numerators(x)[1] for x in (s, s, r))
    kernel, hits = cli.localized_residue, []

    def patched(vd_, *thetas):
        term = kernel(vd_, *thetas)
        if thetas == target:
            hits.append(thetas)
            return MUTATIONS[mutation](*term)
        return term

    monkeypatch.setattr(cli, "localized_residue", patched)
    agreement = _phase(run_selftest(vd), "path_agreement")
    assert hits
    assert agreement.status == "fail"
    assert agreement.detail == WRONG_TRIPLE_DETAILS[name, mutation]


def test_gate_fails_when_the_localized_side_finds_no_triple(monkeypatch):
    vd = validate_datum(QuotientDatum((1, 1, 2)))
    monkeypatch.setattr(cli, "localized_residue", lambda *args: None)
    agreement = _phase(run_selftest(vd), "path_agreement")
    assert agreement.status == "fail"
    assert "do not multiply to 1" in agreement.detail


# (obstruction lines per chamber, agreement triples or None when skipped)
DEMO_COUNTS = {
    "wall_11m1": ([0, 0], None),
    "wp112": ([0], 36),
    "wp122333": ([10], 666),
    "z3_on_p2": ([24], 99),
}


@pytest.mark.parametrize("name", sorted(DEMO_COUNTS))
def test_demo_work_counts_are_pinned(name):
    report = run_selftest(_load(DEMO_DIR / f"{name}.datum"))
    assert report.passed
    lines, triples = DEMO_COUNTS[name]
    obstruction = [p.detail for p in report.phases if p.name.startswith("obstruction_oracle")]
    assert obstruction == [f"{count} normal lines agree with the index count" for count in lines]
    agreement = _phase(report, "path_agreement")
    if triples is None:
        assert agreement.status == "skipped"
    else:
        assert agreement.detail == f"{triples} composable basis triples agree"


PAIR_DATA = [DEMO_DIR / f"{name}.datum" for name in sorted(DEMO_COUNTS)]
PAIR_DATA.append(TESTS / "golden" / "data" / "p1_25.datum")


def _counted(monkeypatch, name: str) -> list:
    """The (chamber, s, t) of every call of ``ChenRuanRing.<name>``."""
    method, calls = getattr(ChenRuanRing, name), []

    def counted(ring, s, t, *rest):
        calls.append((ring.chamber, s, t))
        return method(ring, s, t, *rest)

    monkeypatch.setattr(ChenRuanRing, name, counted)
    return calls


@pytest.mark.parametrize("path", PAIR_DATA, ids=[path.stem for path in PAIR_DATA])
def test_selftest_derives_each_sector_pair_once(monkeypatch, path):
    vd = _load(path)
    pairs, products = _counted(monkeypatch, "pair"), _counted(monkeypatch, "sector_product")
    assert run_selftest(vd).passed
    for calls in pairs, products:
        assert len(calls) == sum(len(vd.sectors(chamber)) ** 2 for chamber in CHAMBERS)
        assert len(set(calls)) == len(calls)
