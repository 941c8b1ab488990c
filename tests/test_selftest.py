"""The self-test's agreement gate reads the localized kernel once per
unordered composable sector triple once the ring axioms pass; these tests
check that the kernel is one term under every order of its three rows, that
a kernel wrong on one unordered sector triple still fails the gate and is
named as the sweep over every ordered pair names it, that both sweeps give
one result, pin the kernel calls and the work counts of the demo data,
check that one self-test builds each sector row of the ring once, pin the
failure texts of the involution and obstruction phases, check that the
obstruction phase's row sweep reports what a per-line loop reports and asks
the oracle once per distinct phase sum, and check that the one identity the
involution phase tests fails exactly when one of the three involution
identities does, and check that the self-test sees an edit of the
truncation rule, the pairing partner or the label row that ``table``,
``cup`` and ``pair`` read, of the label lookup of the table reader, and of
the fixed-set mask or the theta numerators on the label route that
``shift``, ``triple --method localization`` and ``wallcross`` read, and an
edit of the row-level ``localized_report`` or of its one value rule,
``residue_sigma``, that the last two print."""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crring import (
    ChenRuanRing,
    DomainError,
    EmptySector,
    FiniteCyclicFactor,
    IneffectiveAction,
    PhaseResult,
    QuotientDatum,
    datum_from_doc,
    obstruction_rank_oracle,
    run_selftest,
    table_from_doc,
    validate_datum,
)
from crring import cli, localization, selftest
from crring.quotient import CHAMBERS, SectorTable, ValidatedDatum, compose_codes, invert_code
from test_ring import CORRUPTIONS, corrupting, data

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
    # the first ordered triple in row order that holds c=1/2 twice and c=0
    ("wp112", "base-power-shifted"): "(c=0,0) (c=1/2,0) (c=1/2,0): direct 1/2 != localized 0",
    ("wp112", "coefficient-scaled"): "(c=0,0) (c=1/2,0) (c=1/2,0): direct 1/2 != localized 1",
    ("wp112", "base-power-past-the-range"):
        "(c=0,0) (c=1/2,0) (c=1/2,0): direct 1/2 != localized 0",
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
    # the kernel is one term under every order of its rows, and so is its fault
    target = sorted(vd.theta_numerators(x)[1] for x in (s, s, r))
    kernel, hits = selftest.localized_residue, []

    def patched(vd_, *thetas):
        term = kernel(vd_, *thetas)
        if sorted(thetas) == target:
            hits.append(thetas)
            # the kernel's coefficient is top / bottom
            top, bottom, base = term
            coeff, base = MUTATIONS[mutation](Fraction(top, bottom), base)
            return coeff.numerator, coeff.denominator, base
        return term

    monkeypatch.setattr(selftest, "localized_residue", patched)
    agreement = _phase(run_selftest(vd), "path_agreement")
    assert hits
    assert agreement.status == "fail"
    assert agreement.detail == WRONG_TRIPLE_DETAILS[name, mutation]


def test_gate_fails_when_the_localized_side_finds_no_triple(monkeypatch):
    vd = validate_datum(QuotientDatum((1, 1, 2)))
    monkeypatch.setattr(selftest, "localized_residue", lambda *args: None)
    agreement = _phase(run_selftest(vd), "path_agreement")
    assert agreement.status == "fail"
    assert "do not multiply to 1" in agreement.detail


def test_gate_fails_on_one_wrong_unordered_sector_pair(monkeypatch):
    """A kernel wrong on every order of the sectors c=1/3, c=2/3 and c=0 of
    P(1,2,2,3,3,3) fails the gate at the first ordered triple in row order,
    (c=0, c=1/3, c=2/3), and is called on that order once: by the sweep over
    unordered triples, which misses there and names it as the sweep over
    every ordered pair does."""
    vd = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
    third, two_thirds = vd.label(Fraction(1, 3)), vd.label(Fraction(2, 3))
    table = vd.sector_table()
    assert table.position(third) < table.position(two_thirds)
    r, a, b = (vd.theta_numerators(x)[1] for x in (vd.identity(), third, two_thirds))
    kernel, hits = selftest.localized_residue, []

    def patched(vd_, *thetas):
        top, bottom, base = kernel(vd_, *thetas)
        if sorted(thetas) == sorted((a, b, r)):
            hits.append(thetas)
            return 2 * top, bottom, base
        return top, bottom, base

    monkeypatch.setattr(selftest, "localized_residue", patched)
    agreement = _phase(run_selftest(vd), "path_agreement")
    assert hits == [(r, a, b)]
    assert agreement.status == "fail"
    assert agreement.detail == "(c=0,0) (c=1/3,0) (c=2/3,2): direct 1/27 != localized 2/27"


def _table_pairs(table) -> dict:
    """r = (st)^-1 of every composable ordered sector pair (s, t), by code
    composition on the sector table."""
    pairs, size = {}, len(table.codes)
    for s in range(size):
        for t in range(size):
            h = table.index.get(compose_codes(table.codes[s], table.codes[t], table.moduli), -1)
            if h >= 0:
                pairs[s, t] = table.inverse[h]
    return pairs


KERNEL_COUNT_DATA = [
    DEMO_DIR / "wp122333.datum", TESTS / "golden" / "data" / "p1_25.datum",
    DEMO_DIR / "z3_on_p2.datum",
]


@pytest.mark.parametrize("path", KERNEL_COUNT_DATA, ids=[p.stem for p in KERNEL_COUNT_DATA])
def test_agreement_calls_the_kernel_once_per_unordered_triple(monkeypatch, path):
    """On a passing run, one kernel call per unordered composable triple
    {s, t, r = (st)^-1}, on its rows in ascending position: fewer calls than
    unordered composable pairs {s, t}."""
    vd = _load(path)
    kernel, calls = selftest.localized_residue, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(selftest, "localized_residue", counted)
    assert run_selftest(vd).passed
    table = vd.sector_table()
    triples = sorted({tuple(sorted((s, t, r))) for (s, t), r in _table_pairs(table).items()})
    assert [thetas for _, *thetas in calls] == [
        [table.thetas[x] for x in triple] for triple in triples
    ]
    assert len(triples) < sum(1 for s, t in _table_pairs(table) if s <= t)


@settings(max_examples=100, deadline=None)
@given(data(), st.randoms(use_true_random=False))
def test_the_kernel_is_one_term_under_every_order_of_its_rows(vd, rng):
    """``localized_residue`` returns one term under all 6 orders of the rows
    of a composable sector triple, and None under all 6 when the rows do not
    compose: the identity that lets the agreement sweep visit each unordered
    triple once."""
    for chamber in CHAMBERS:
        table = vd.sector_table(chamber)
        size, zero = len(table.codes), (0,) * len(table.moduli)
        for _ in range(10 if size else 0):
            s, t, u = (rng.randrange(size) for _ in range(3))
            h = table.index.get(compose_codes(table.codes[s], table.codes[t], table.moduli), -1)
            # a drawn triple, and a composable one: (s, t, (st)^-1), or (s, s^-1, 1)
            composable = (s, t, table.inverse[h]) if h >= 0 else (s, table.inverse[s], 0)
            for triple in (s, t, u), composable:
                codes = [table.codes[x] for x in triple]
                composes = compose_codes(compose_codes(*codes[:2], table.moduli), codes[2],
                                         table.moduli) == zero
                terms = {
                    selftest.localized_residue(vd, *(table.thetas[x] for x in order))
                    for order in permutations(triple)
                }
                assert len(terms) == 1, (chamber, triple)
                assert (terms.pop() is not None) == composes, (chamber, triple)
                assert composes or triple != composable


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
    """The (chamber, s, returned value) of every call of
    ``ChenRuanRing.<name>``."""
    method, calls = getattr(ChenRuanRing, name), []

    def counted(ring, s, *rest):
        value = method(ring, s, *rest)
        calls.append((ring.chamber, s, value))
        return value

    monkeypatch.setattr(ChenRuanRing, name, counted)
    return calls


@pytest.mark.parametrize("path", PAIR_DATA, ids=[path.stem for path in PAIR_DATA])
def test_selftest_derives_each_sector_pair_once(monkeypatch, path):
    """Each (chamber, s) row of the kernel is built once, over every sector
    t."""
    vd = _load(path)
    rows = _counted(monkeypatch, "row")
    assert run_selftest(vd).passed
    sizes = {chamber: len(vd.sectors(chamber)) for chamber in CHAMBERS}
    expected = sorted((chamber, s) for chamber, size in sizes.items() for s in range(size))
    assert sorted((chamber, s) for chamber, s, _ in rows) == expected
    for chamber, _, (composite, carry, products) in rows:
        assert len(composite) == len(carry) == len(products) == sizes[chamber]


def _with_row(rows: tuple, s: int, value) -> tuple:
    return rows[:s] + (value,) + rows[s + 1:]


def _third_of_wp122333(monkeypatch, edit):
    """The self-test of P(1,2,2,3,3,3) on its sector table with the rows of
    c=1/3 edited by ``edit(table, s)``."""
    vd = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
    table = vd.sector_table()
    s = table.position(vd.label(Fraction(1, 3)))
    assert table.thetas[s] == (2, 4, 4, 0, 0, 0)
    edited = edit(table, s)
    monkeypatch.setattr(vd, "sector_table", lambda chamber=None: edited)
    return run_selftest(vd)


@pytest.mark.parametrize(
    "edit,detail",
    [
        (lambda table, s: table._replace(thetas=_with_row(table.thetas, s, (3, 3, 4, 0, 0, 0))),
         "theta complement fails for c=1/3 at coordinate 0"),
        # the inverse of c=1/3 pointed at the identity, whose theta numerators are 0
        (lambda table, s: table._replace(inverse=_with_row(table.inverse, s, 0)),
         "theta complement fails for c=1/3 at coordinate 0"),
    ],
    ids=["theta-moved", "inverse-is-identity"],
)
def test_involution_phase_names_the_failing_sector(monkeypatch, edit, detail):
    involution = _phase(_third_of_wp122333(monkeypatch, edit), "sector_involution")
    assert (involution.status, involution.detail) == ("fail", detail)


def _flip_first(monkeypatch, vd):
    oracle, calls = selftest.obstruction_rank_oracle, []

    def flipped(*args):
        rank = oracle(*args)
        calls.append(args)
        return 1 - rank if len(calls) == 1 else rank

    monkeypatch.setattr(selftest, "obstruction_rank_oracle", flipped)


def _non_integral(monkeypatch, vd):
    # one more numerator on every line makes its phase sum non-integral, so
    # the oracle raises DomainError on the first line
    oracle = selftest.obstruction_rank_oracle
    monkeypatch.setattr(
        selftest, "obstruction_rank_oracle", lambda theta1, *rest: oracle(theta1 + 1, *rest)
    )


def _two_thirds_edited(monkeypatch, vd):
    # theta(c=2/3) at coordinate 2 edited from 2 to 4.  On the self-pair, r
    # is c=2/3 too, but its theta_r comes from its code: the phase sum is
    # 4 + 4 + 2 over 6.  Read from the edited row, it would be 4 + 4 + 4,
    # an integer.
    table = vd.sector_table()
    s = table.position(vd.label(Fraction(2, 3)))
    assert table.thetas[s] == (4, 2, 2, 0, 0, 0)
    edited = table._replace(thetas=_with_row(table.thetas, s, (4, 2, 4, 0, 0, 0)))
    monkeypatch.setattr(vd, "sector_table", lambda chamber=None: edited)


@pytest.mark.parametrize(
    "patch,detail",
    [
        (_flip_first, "(c=1/3, c=1/3) line 0: index rank 1 vs exponent rule"),
        (_non_integral, "(c=1/3, c=1/3) line 0: phase sum 7/6 is not an integer"),
        (_two_thirds_edited, "(c=2/3, c=2/3) line 2: phase sum 5/3 is not an integer"),
    ],
    ids=["rank-flipped", "domain-error", "theta-edited"],
)
def test_obstruction_phase_names_the_failing_line(monkeypatch, patch, detail):
    vd = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
    patch(monkeypatch, vd)
    obstruction = _phase(run_selftest(vd), "obstruction_oracle")
    assert (obstruction.status, obstruction.detail) == ("fail", detail)


def reference_lines(vd, ring):
    """(s, t, j, theta_s(j), theta_t(j), theta_r(j), carry bit) of every
    normal line j that s, t and r = (st)^-1 all move, in (s, t, j) order,
    one line at a time: theta_r and its fixed mask come from the code of r
    for every pair, whether or not st is a sector."""
    table = ring.table
    thetas, fixed, everything = table.thetas, table.fixed, (1 << vd.n) - 1
    for s, carry in enumerate(ring.pairs[1]):
        for t, interacting in enumerate(carry):
            code = compose_codes(table.codes[s], table.codes[t], table.moduli)
            code = invert_code(code, table.moduli)
            theta_r = vd.code_numerators(code)
            fixed_r = vd.fixed_mask(theta_r)
            outside = everything & ~(fixed[s] | fixed[t] | fixed_r)
            for j in range(vd.n):
                if outside >> j & 1:
                    yield s, t, j, thetas[s][j], thetas[t][j], theta_r[j], interacting >> j & 1


def reference_obstruction_phase(vd, ring, name):
    """The obstruction phase as a per-line loop: one oracle call per line,
    stopping at the first line that fails."""
    table, d, lines = ring.table, ring.table.denominator, 0
    for s, t, j, x, y, z, carry in reference_lines(vd, ring):
        try:
            rank = obstruction_rank_oracle(x, y, z, d)
        except DomainError as exc:
            return PhaseResult(name, "fail", f"{selftest._line(table, s, t, j)}: {exc}")
        if (rank == 1) != bool(carry):
            return PhaseResult(
                name, "fail", f"{selftest._line(table, s, t, j)}: index rank {rank} vs exponent rule"
            )
        lines += 1
    return PhaseResult(name, "pass", f"{lines} normal lines agree with the index count")


def _both_phases(vd, ring):
    return (
        selftest._obstruction_phase(vd, ring, "obstruction_oracle"),
        reference_obstruction_phase(vd, ring, "obstruction_oracle"),
    )


@settings(max_examples=100, deadline=None)
@given(data())
def test_obstruction_phase_matches_a_per_line_loop(vd):
    for chamber in CHAMBERS:
        swept, reference = _both_phases(vd, ChenRuanRing(vd, chamber))
        assert swept == reference, chamber


def _weight_only_data(n_max: int, bound: int):
    """Every effective weight-only datum with n <= n_max and 0 < |w_j| <= bound."""
    weights = [w for w in range(-bound, bound + 1) if w]
    for n in range(1, n_max + 1):
        for ws in product(weights, repeat=n):
            try:
                yield validate_datum(QuotientDatum(ws))
            except IneffectiveAction:
                continue


def test_obstruction_phase_matches_a_per_line_loop_on_small_weights():
    count = 0
    for vd in _weight_only_data(3, 4):
        for chamber in CHAMBERS:
            swept, reference = _both_phases(vd, ChenRuanRing(vd, chamber))
            assert swept == reference, (vd.weights, chamber)
            assert swept.status == "pass"
        count += 1
    assert count == 486


def _flipping(flips: set):
    """``ChenRuanRing.row`` with carry bit j flipped on every ordered sector
    pair (s, t) of each (s, t, j) in ``flips``."""
    row = ChenRuanRing.row

    def patched(self, s, span=slice(None)):
        composite, carries, products = row(self, s, span)
        sectors = range(len(self.table.codes))[span]
        for flipped, t, j in flips:
            if flipped == s and t in sectors:
                carries[sectors.index(t)] ^= 1 << j
        return composite, carries, products

    return patched


# every datum has normal lines in each chamber it tests
OBSTRUCTION_DATA = [
    QuotientDatum((2, 3, 5)),
    QuotientDatum((1, 2, 2, 3, 3, 3)),
    QuotientDatum((3, 5, 7)),
    QuotientDatum((1, 2, 3, 4)),
    QuotientDatum((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)),
    QuotientDatum((1, 2, 3), (FiniteCyclicFactor(2, (0, 1, 1)), FiniteCyclicFactor(3, (0, 1, 2)))),
    QuotientDatum((2, -3, 5)),
    QuotientDatum((-2, -3, -5), chamber="negative"),
]


@pytest.mark.parametrize("datum", OBSTRUCTION_DATA, ids=str)
def test_obstruction_phase_matches_a_per_line_loop_under_corruption(monkeypatch, datum):
    """Under seeded carry flips through the ``row`` seam, one or two per
    table and mostly on normal lines, and seeded edits of one theta
    numerator, the sweep reports what the per-line loop reports, failures
    included."""
    vd = validate_datum(datum)
    rng = random.Random(str(datum))
    failing = 0
    for chamber in CHAMBERS:
        table = vd.sector_table(chamber)
        if not vd.level_masks[chamber]:
            continue
        size = len(table.codes)
        lines = [line[:3] for line in reference_lines(vd, ChenRuanRing(vd, chamber))]

        def flip():
            # a normal line, or any (s, t, j), which the phase may not read
            if rng.random() < 0.7:
                return rng.choice(lines)
            return rng.randrange(size), rng.randrange(size), rng.randrange(vd.n)

        for _ in range(30):
            flips = {flip() for _ in range(rng.choice([1, 2]))}
            with monkeypatch.context() as patch:
                patch.setattr(ChenRuanRing, "row", _flipping(flips))
                swept, reference = _both_phases(vd, ChenRuanRing(vd, chamber))
            assert swept == reference, (chamber, flips)
            failing += swept.status == "fail"
        for _ in range(30):
            s, j = rng.randrange(size), rng.randrange(vd.n)
            thetas = list(map(list, table.thetas))
            thetas[s][j] = rng.randrange(table.denominator)
            ring = ChenRuanRing(vd, chamber)
            ring.table = table._replace(thetas=tuple(map(tuple, thetas)))
            swept, reference = _both_phases(vd, ring)
            assert swept == reference, (chamber, s, j, thetas[s])
            failing += swept.status == "fail"
    assert failing


def test_obstruction_phase_names_an_earlier_sector_at_a_later_line(monkeypatch):
    """Two flipped carries in one row: the line (t1, j1) fails and so does
    (t2, j2) with t1 < t2 and j2 < j1.  The sweep meets coordinate j2 first,
    but the failure names (t1, j1), the first in (s, t, j) order."""
    vd = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
    ring = ChenRuanRing(vd)
    lines = [line[:3] for line in reference_lines(vd, ring)]
    first, second = next(
        (a, b) for a in lines for b in lines
        if a[0] == b[0] and a[1] < b[1] and a[2] > b[2]
    )
    # both flips name the first; either flip alone names its own line
    for flips, named in [({first, second}, first), ({first}, first), ({second}, second)]:
        with monkeypatch.context() as patch:
            patch.setattr(ChenRuanRing, "row", _flipping(flips))
            swept, reference = _both_phases(vd, ChenRuanRing(vd))
        assert swept == reference
        assert swept.detail.startswith(f"{selftest._line(ring.table, *named)}: index rank ")


@pytest.mark.parametrize("path", KERNEL_COUNT_DATA, ids=[p.stem for p in KERNEL_COUNT_DATA])
def test_obstruction_oracle_runs_once_per_distinct_phase_sum(monkeypatch, path):
    """One oracle call per distinct (chamber, phase sum) of the normal lines,
    far fewer than one per line: the oracle reads the three phases only
    through their sum."""
    vd = _load(path)
    oracle, calls = selftest.obstruction_rank_oracle, []

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    expected, lines = set(), 0
    for chamber in CHAMBERS:
        ring = ChenRuanRing(vd, chamber)
        for s, t, j, x, y, z, carry in reference_lines(vd, ring):
            expected.add((chamber, x + y + z))
            lines += 1
    monkeypatch.setattr(selftest, "obstruction_rank_oracle", counted)
    assert run_selftest(vd).passed
    assert len(calls) == len(expected) < lines
    d = vd.denominator
    assert sorted(sum(args[:3]) for args in calls) == sorted(key[1] for key in expected)
    assert all(args[3] == d for args in calls)


def three_involution_identities(table, n: int) -> bool:
    """Whether every sector s with inverse r = inverse[s] satisfies all three
    Chen-Ruan involution identities: s and r fix the same set, age(s) +
    age(r) counts the moved coordinates, and theta_s(j) + theta_r(j) is 0 on
    the fixed coordinates of s and D on the others."""
    d = table.denominator
    for s, r in enumerate(table.inverse):
        fixed, thetas, inverse = table.fixed[s], table.thetas[s], table.thetas[r]
        if table.fixed[r] != fixed:
            return False
        if sum(thetas) + sum(inverse) != (n - fixed.bit_count()) * d:
            return False
        for j, (x, y) in enumerate(zip(thetas, inverse)):
            if x + y != (0 if fixed >> j & 1 else d):
                return False
    return True


def _corrupt(table, n: int, rng: random.Random):
    """One seeded corruption of a sector table.  Theta numerators stay
    residues in [0, D) and inverse indices stay sector positions, as in every
    table that ``ValidatedDatum.sector_table`` builds."""
    d, size = table.denominator, len(table.codes)
    s, j = rng.randrange(size), rng.randrange(n)
    r = table.inverse[s]
    kind = rng.choice(["theta", "fixed", "inverse", "paired-thetas", "paired-fixed"])
    thetas, fixed = list(map(list, table.thetas)), list(table.fixed)
    if kind == "theta":
        thetas[s][j] = rng.randrange(d)
    elif kind == "fixed":
        fixed[s] ^= 1 << j
    elif kind == "inverse":
        return table._replace(inverse=_with_row(table.inverse, s, rng.randrange(size)))
    elif kind == "paired-thetas":
        # theta_s(j) and theta_r(j) moved together: their sum may still hold
        x = rng.randrange(d)
        thetas[s][j], thetas[r][j] = x, (d - x) % d if rng.random() < 0.7 else rng.randrange(d)
    else:
        # coordinate j fixed (or freed) on s and r, with thetas to match or not
        fixed[s] ^= 1 << j
        fixed[r] = fixed[s]
        if rng.random() < 0.7:
            x = 0 if fixed[s] >> j & 1 else rng.randrange(d)
            thetas[s][j], thetas[r][j] = x, (d - x) % d
    return table._replace(thetas=tuple(map(tuple, thetas)), fixed=tuple(fixed))


INVOLUTION_DATA = [
    QuotientDatum((1, 1, 2)),
    QuotientDatum((1, 2, 2, 3, 3, 3)),
    QuotientDatum((3, 5, 7)),
    QuotientDatum((1, 2, 3, 4)),
    QuotientDatum((2, 3, 5)),
    QuotientDatum((1, 1, 1)),
    QuotientDatum((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)),
    QuotientDatum((-1, -2, -2), chamber="negative"),
]


@pytest.mark.parametrize("datum", INVOLUTION_DATA, ids=str)
def test_involution_phase_agrees_with_all_three_identities(datum):
    """Under seeded corruptions of theta numerators, fixed masks and inverse
    indices, the involution phase passes exactly when the sector table
    satisfies all three involution identities."""
    vd = validate_datum(datum)
    table = vd.sector_table()
    rng = random.Random(str(datum))
    outcomes = set()
    for _ in range(300):
        corrupted = _corrupt(table, vd.n, rng)
        expected = three_involution_identities(corrupted, vd.n)
        phase = selftest._involution_phase(corrupted, "sector_involution")
        assert (phase.status == "pass") == expected, corrupted
        outcomes.add(expected)
    assert outcomes == {True, False}


def _room_off_by_one(monkeypatch):
    heads = ChenRuanRing.heads

    def patched(ring, *row):
        return [(head, room + 1 if c else room, c) for head, room, c in heads(ring, *row)]

    monkeypatch.setattr(ChenRuanRing, "heads", patched)


def _partner_off_by_one(monkeypatch):
    partner = ChenRuanRing.partner

    def patched(ring, *args):
        u, partner_k = partner(ring, *args)
        return u, partner_k - 1

    monkeypatch.setattr(ChenRuanRing, "partner", patched)


def _label_at_the_wrong_row(monkeypatch):
    # the label of sector 1, the first twisted one, reads back as the row of
    # sector 2 on the route of every point request
    sector_row = ValidatedDatum.sector_row

    def patched(vd, t, chamber=None, k=None):
        row = sector_row(vd, t, chamber, k)
        table = vd.sector_table(chamber)
        if row[0] == table.codes[1]:
            return table.codes[2], table.thetas[2], table.fixed[2]
        return row

    monkeypatch.setattr(ValidatedDatum, "sector_row", patched)


RULE_EDITS = {
    "room-off-by-one": _room_off_by_one,
    "partner-off-by-one": _partner_off_by_one,
    "label-at-the-wrong-row": _label_at_the_wrong_row,
}
# the first failing phase and its detail, per (datum, edit)
RULE_EDIT_FAILURES = {
    ("wp122333", "room-off-by-one"): (
        "ring_axioms",
        "degree_additivity: deg(eta^1*1_(c=0)) + deg(eta^5*1_(c=0)) != deg(eta^0*1_(c=1/3))",
    ),
    ("wp122333", "partner-off-by-one"): (
        "ring_axioms",
        "frobenius: <eta^0*1_(c=0) * eta^2*1_(c=1/3), eta^1*1_(c=1/2)> != "
        "<eta^0*1_(c=0), eta^2*1_(c=1/3) * eta^1*1_(c=1/2)>",
    ),
    ("wp122333", "label-at-the-wrong-row"):
        ("sector_involution", "label c=1/3 reads back as another table row"),
    ("z3_on_p2", "room-off-by-one"): (
        "ring_axioms",
        "degree_additivity: deg(eta^1*1_(c=0,a=0)) + deg(eta^2*1_(c=0,a=0)) "
        "!= deg(eta^0*1_(c=0,a=1))",
    ),
    ("z3_on_p2", "partner-off-by-one"): (
        "ring_axioms",
        "frobenius: <eta^0*1_(c=0,a=0) * eta^0*1_(c=0,a=1), eta^0*1_(c=0,a=1)> != "
        "<eta^0*1_(c=0,a=0), eta^0*1_(c=0,a=1) * eta^0*1_(c=0,a=1)>",
    ),
    ("z3_on_p2", "label-at-the-wrong-row"):
        ("sector_involution", "label c=0,a=1 reads back as another table row"),
}


def _printed(vd) -> list[str]:
    """What ``table`` prints on vd, and what ``cup`` and ``pair`` print on
    every ordered pair of basis elements: the text, or the class name of the
    error raised (a label read back as another sector can put an eta power
    out of range, and a longer room can point past the basis)."""
    table = vd.sector_table()
    flags = [
        ((label.c, label.finite), k)
        for label, dim in zip(table.labels, table.dims) for k in range(dim + 1)
    ]
    requests = [(cli._cmd_table, {})] + [
        (command, {"t1": t1, "k1": k1, "t2": t2, "k2": k2})
        for (t1, k1), (t2, k2) in product(flags, repeat=2)
        for command in (cli._cmd_cup, cli._cmd_pair)
    ]
    texts = []
    for command, flags_ in requests:
        try:  # an edited rule may break a command
            texts.append(command(argparse.Namespace(format="structured", **flags_), vd)[0])
        except (DomainError, IndexError, cli._UsageError) as exc:
            texts.append(type(exc).__name__)
    return texts


@pytest.mark.parametrize("edit", sorted(RULE_EDITS))
@pytest.mark.parametrize("name", ["wp122333", "z3_on_p2"])
def test_selftest_sees_the_rules_that_the_commands_print(monkeypatch, name, edit):
    """A truncation room, a pairing partner or a label lookup that is off by
    one changes what ``table``, ``cup`` or ``pair`` print, and the self-test
    fails on it; a partner outside the basis fails it without an error."""
    vd = _load(DEMO_DIR / f"{name}.datum")
    assert run_selftest(vd).passed
    before = _printed(vd)
    with monkeypatch.context() as patch:
        RULE_EDITS[edit](patch)
        failure = run_selftest(vd).first_failure()
        after = _printed(vd)
    assert after != before
    assert (failure.name, failure.detail) == RULE_EDIT_FAILURES[name, edit]


def test_selftest_sees_a_label_that_reads_back_as_another_position(monkeypatch):
    """``SectorTable.position`` reading the label of sector 1 back as sector
    2 fails the self-test; the table reader, which reads labels through
    ``sector_row``, still accepts the table that ``table`` printed."""
    vd = _load(DEMO_DIR / "wp122333.datum")
    doc = json.loads(cli._cmd_table(argparse.Namespace(format="structured"), vd)[0])
    position = SectorTable.position

    def patched(table, t):
        s = position(table, t)
        return 2 if s == 1 else s

    monkeypatch.setattr(SectorTable, "position", patched)
    assert table_from_doc(doc, vd).basis == ChenRuanRing(vd).basis()
    failure = run_selftest(vd).first_failure()
    assert (failure.name, failure.detail) == (
        "sector_involution", "label c=1/3 does not read back as its sector"
    )


def _mask_drops_a_bit(monkeypatch):
    # the lowest fixed coordinate of every row is dropped from its mask
    fixed_mask = ValidatedDatum.fixed_mask

    def patched(vd, numerators):
        mask = fixed_mask(vd, numerators)
        return mask & mask - 1

    monkeypatch.setattr(ValidatedDatum, "fixed_mask", patched)


def _numerator_off_by_one(monkeypatch):
    # the last coordinate's theta numerator of every row is one too large
    code_numerators = ValidatedDatum.code_numerators

    def patched(vd, code):
        *head, last = code_numerators(vd, code)
        return (*head, last + 1)

    monkeypatch.setattr(ValidatedDatum, "code_numerators", patched)


def _row_refused(monkeypatch):
    # every label is refused, as one that fixes no coordinate
    def patched(vd, t, chamber=None, k=None):
        raise EmptySector(f"{t} fixes no coordinate")

    monkeypatch.setattr(ValidatedDatum, "sector_row", patched)


ROW_EDITS = {
    "mask-drops-a-bit": _mask_drops_a_bit,
    "numerator-off-by-one": _numerator_off_by_one,
    "row-refused": _row_refused,
}
# the first failing phase and its detail, per datum: every edit reaches the
# identity, the first sector
ROW_EDIT_FAILURES = {
    "wp122333": ("sector_involution", "label c=0 reads back as another table row"),
    "z3_on_p2": ("sector_involution", "label c=0,a=0 reads back as another table row"),
}


def _printed_rows(vd) -> list[str]:
    """What ``shift`` prints on every sector label, and ``triple --method
    localization`` and ``wallcross`` on every composable sector triple at
    each eta power 0 or 1: the text, or the class name of the error raised
    (an edited mask can put an eta power out of range or empty a sector)."""
    table = vd.sector_table()
    flags = [(label.c, label.finite) for label in table.labels]
    requests = [(cli._cmd_shift, {"t": t}) for t in flags]
    for s, t in product(range(len(flags)), repeat=2):
        h = table.index.get(compose_codes(table.codes[s], table.codes[t], table.moduli))
        if h is None:
            continue
        for k1, k2, k3 in product(range(2), repeat=3):
            triple = {"t1": flags[s], "k1": k1, "t2": flags[t], "k2": k2}
            triple.update(t3=flags[table.inverse[h]], k3=k3)
            requests.append((cli._cmd_triple, {"method": "localization", **triple}))
            requests.append((cli._cmd_wallcross, triple))
    texts = []
    for command, flags_ in requests:
        try:
            texts.append(command(argparse.Namespace(format="structured", **flags_), vd)[0])
        except (DomainError, cli._UsageError) as exc:
            texts.append(type(exc).__name__)
    return texts


@pytest.mark.parametrize("edit", sorted(ROW_EDITS))
@pytest.mark.parametrize("name", ["wp122333", "z3_on_p2"])
def test_selftest_sees_the_rows_that_the_label_commands_print(monkeypatch, name, edit):
    """A fixed-set mask that drops a bit, or a theta numerator off by one,
    on the route from a label to its row changes what ``shift``, ``triple
    --method localization`` or ``wallcross`` print, and the self-test,
    which reads every label's row back against its sector table, fails on
    it."""
    vd = _load(DEMO_DIR / f"{name}.datum")
    assert run_selftest(vd).passed
    before = _printed_rows(vd)
    with monkeypatch.context() as patch:
        ROW_EDITS[edit](patch)
        failure = run_selftest(vd).first_failure()
        after = _printed_rows(vd)
    assert after != before
    assert (failure.name, failure.detail) == ROW_EDIT_FAILURES[name]


@pytest.mark.parametrize("name", ["wp122333", "z3_on_p2"])
def test_selftest_sees_the_thetas_that_the_api_views_return(monkeypatch, name):
    """A theta numerator off by one in ``theta_numerators`` changes what the
    API's ``thetas`` and ``degree_shift`` return, and the self-test, which
    reads every label's numerators back through it, fails on it."""
    vd = _load(DEMO_DIR / f"{name}.datum")
    labels = vd.sector_table().labels
    before = [(vd.thetas(t), vd.degree_shift(t)) for t in labels]
    theta_numerators = ValidatedDatum.theta_numerators

    def patched(vd, t):
        q, (*head, last) = theta_numerators(vd, t)
        return q, (*head, last + 1)

    with monkeypatch.context() as patch:
        patch.setattr(ValidatedDatum, "theta_numerators", patched)
        failure = run_selftest(vd).first_failure()
        after = [(vd.thetas(t), vd.degree_shift(t)) for t in labels]
    assert after != before
    assert (failure.name, failure.detail) == ROW_EDIT_FAILURES[name]


def _triple_edit(edit):
    """An edit of the row-level ``localized_report`` where ``triple
    --method localization``, ``wallcross`` and the self-test read it:
    ``edit`` gets the unedited function and the arguments of the call."""
    localized_report = localization.localized_report

    def install(monkeypatch):
        def patched(vd, triple, rows):
            return edit(localized_report, vd, triple, rows)

        for module in (cli, localization, selftest):
            monkeypatch.setattr(module, "localized_report", patched)

    return install


def _selection_off_by_one(localized_report, vd, triple, rows):
    # the coefficient is reported where the u-power is -2, that is, at the
    # value that one more eta power on the first sector would give
    (t, k), *rest = triple
    value = localized_report(vd, ((t, k + 1), *rest), rows).value
    return localized_report(vd, triple, rows)._replace(value=value)


def _degree_check_off_by_one(localized_report, vd, triple, rows):
    report = localized_report(vd, triple, rows)
    return report._replace(degree_check=report.degree_check + 1)


def _sides_of_the_other_chamber(localized_report, vd, triple, rows):
    # each chamber's flags read against the other chamber's level mask
    report = localized_report(vd, triple, rows)
    flags = [report.side_existence[chamber] for chamber in reversed(CHAMBERS)]
    return report._replace(side_existence=dict(zip(CHAMBERS, flags)))


def _refused(localized_report, vd, triple, rows):
    raise EmptySector(f"{triple[0][0]} fixes no coordinate")


TRIPLE_EDITS = {
    "selection-off-by-one": _triple_edit(_selection_off_by_one),
    "degree-check-off-by-one": _triple_edit(_degree_check_off_by_one),
    "sides-of-the-other-chamber": _triple_edit(_sides_of_the_other_chamber),
    "refused": _triple_edit(_refused),
}
# every edit reaches the first sector pair (s, s^-1) that the agreement phase
# reads, the identity's
TRIPLE_EDIT_FAILURES = {
    "wp122333": (
        "path_agreement", "(c=0,0) (c=0,3) (c=0,2): triple_localized does not report the pairing"
    ),
    "z3_on_p2": (
        "path_agreement",
        "(c=0,a=0,0) (c=0,a=0,1) (c=0,a=0,1): triple_localized does not report the pairing",
    ),
}


@pytest.mark.parametrize("edit", sorted(TRIPLE_EDITS))
@pytest.mark.parametrize("name", ["wp122333", "z3_on_p2"])
def test_selftest_sees_the_localized_report_that_the_commands_print(monkeypatch, name, edit):
    """A u-power selection off by one, a ``degree_check`` off by one, or side
    flags read against the other chamber's level mask, in the row-level
    ``localized_report``, changes what ``triple --method localization`` or
    ``wallcross`` print, and the self-test, which reads ``localized_report``
    once per sector pair (s, s^-1), fails on it."""
    vd = _load(DEMO_DIR / f"{name}.datum")
    assert run_selftest(vd).passed
    before = _printed_rows(vd)
    with monkeypatch.context() as patch:
        TRIPLE_EDITS[edit](patch)
        failure = run_selftest(vd).first_failure()
        after = _printed_rows(vd)
    assert after != before
    assert failure is not None
    assert (failure.name, failure.detail) == TRIPLE_EDIT_FAILURES[name]


# the first basis triple on which the sweep's sides differ once the value rule
# selects u-power -2: the identity triple one eta power below its top
VALUE_RULE_FAILURES = {
    "wp122333": "(c=0,0) (c=0,0) (c=0,4): direct 0 != localized 1/108",
    "z3_on_p2": "(c=0,a=0,0) (c=0,a=0,0) (c=0,a=0,1): direct 0 != localized 1/3",
}


@pytest.mark.parametrize("name", ["wp122333", "z3_on_p2"])
def test_both_localized_readers_read_the_one_value_rule(monkeypatch, name):
    """An edit of ``residue_sigma`` alone, to select u-power -2, changes the
    value that ``triple --method localization`` prints and fails the
    agreement sweep, which reads the same statement."""
    vd = _load(DEMO_DIR / f"{name}.datum")
    identity = vd.identity()
    flag = {"t1": (identity.c, identity.finite), "k1": 0}
    triple = {**flag, "t2": flag["t1"], "k2": 0, "t3": flag["t1"]}
    top = vd.sector_table().dims[0]

    def printed():
        args = argparse.Namespace(format="structured", method="localization", k3=top, **triple)
        return cli._cmd_triple(args, vd)[0]

    before = printed()
    with monkeypatch.context() as patch:
        patch.setattr(localization.residue_sigma, "__code__", (lambda term: -2 - term[2]).__code__)
        agreement = _phase(run_selftest(vd), "path_agreement")
        after = printed()
    assert before != after
    assert agreement.status == "fail"
    assert agreement.detail == VALUE_RULE_FAILURES[name]


READ_DATA = [
    DEMO_DIR / "wp112.datum", DEMO_DIR / "wp122333.datum", DEMO_DIR / "z3_on_p2.datum",
    TESTS / "golden" / "data" / "z4_154.datum",
]


@pytest.mark.parametrize(
    "vd",
    [_load(path) for path in READ_DATA]
    + [validate_datum(QuotientDatum((-1, -2, -2), chamber="negative"))],
    ids=[path.stem for path in READ_DATA] + ["m1m2m2_negative"],
)
def test_agreement_reads_triple_localized_once_per_inverse_pair(monkeypatch, vd):
    """The agreement phase calls the row-level ``localized_report`` exactly
    once on each (1_(s), eta^k2 1_(s^-1), eta^k3 1) with s <= s^-1, in row
    order, where k2 = dim(s) - k3 and k3 = floor(dim(s) / 2), with the sector
    table's rows of s, s^-1 and the identity: the self-test reads a row by
    ``sector_row`` only to check each label once."""
    localized_report, calls = selftest.localized_report, []
    sector_row, reads = ValidatedDatum.sector_row, []

    def recorded(vd_, triple, rows):
        calls.append((triple, tuple(rows)))
        return localized_report(vd_, triple, rows)

    def read(vd_, t, *rest):
        reads.append(t)
        return sector_row(vd_, t, *rest)

    monkeypatch.setattr(selftest, "localized_report", recorded)
    monkeypatch.setattr(ValidatedDatum, "sector_row", read)
    assert run_selftest(vd).passed
    table = vd.sector_table()
    assert reads == list(table.labels)  # the label phase's reads alone
    labels, identity = table.labels, table.position(vd.identity())

    def row(s):
        return table.codes[s], table.thetas[s], table.fixed[s]

    assert calls == [
        (((labels[s], 0), (labels[inverse], dim - dim // 2), (vd.identity(), dim // 2)),
         (row(s), row(inverse), row(identity)))
        for s, (inverse, dim) in enumerate(zip(table.inverse, table.dims))
        if s <= inverse
    ]


def _ordered_sweep(monkeypatch):
    """The self-test with the agreement sweep over every ordered sector pair,
    whatever the axiom check found."""
    phase = selftest._agreement_phase
    monkeypatch.setattr(
        selftest, "_agreement_phase", lambda vd, ring, symmetric: phase(vd, ring, False)
    )


def _kernel_fault(mutation):
    """A kernel whose term under every order of the rows of one seeded
    composable sector triple is edited by ``MUTATIONS[mutation]``: a triple
    whose 3-point value lies in its eta power range, so that the edit shows."""

    def install(monkeypatch, vd):
        table, kernel = vd.sector_table(), selftest.localized_residue
        thetas, dims = table.thetas, table.dims
        triples = [
            (s, t, r) for (s, t), r in sorted(_table_pairs(table).items())
            if 0 <= localization.residue_sigma(kernel(vd, thetas[s], thetas[t], thetas[r]))
            <= dims[s] + dims[t] + dims[r]
        ]
        triple = random.Random(f"{vd.weights}:{mutation}").choice(triples)
        target = sorted(thetas[x] for x in triple)

        def patched(vd_, *thetas):
            term = kernel(vd_, *thetas)
            if sorted(thetas) == target:
                top, bottom, base = term
                coeff, base = MUTATIONS[mutation](Fraction(top, bottom), base)
                return coeff.numerator, coeff.denominator, base
            return term

        monkeypatch.setattr(selftest, "localized_residue", patched)

    return install


@settings(max_examples=100, deadline=None)
@given(data(), st.sampled_from(sorted(MUTATIONS)))
def test_both_agreement_sweeps_agree_once_the_axioms_pass(vd, mutation):
    """On drawn data, in each chamber whose ring passes the axiom check, the
    sweep over unordered triples reports what the sweep over every ordered
    pair reports: on the kernel as it is, and under one drawn order-free
    kernel fault, which edits the term of one seeded composable sector
    triple of the datum's chamber under every order of its rows and fails
    that chamber's sweep wherever it passed."""
    faults = [None, _kernel_fault(mutation)] if vd.sector_table().codes else [None]
    statuses = []
    for fault in faults:
        with pytest.MonkeyPatch.context() as patch:
            if fault:
                fault(patch, vd)
            statuses.append({})
            for chamber in CHAMBERS:
                ring = ChenRuanRing(vd, chamber)
                if ring.table.codes and ring.verify_ring_axioms().passed:
                    unordered = selftest._agreement_phase(vd, ring, True)
                    ordered = selftest._agreement_phase(vd, ring, False)
                    assert unordered == ordered, (chamber, mutation if fault else None)
                    statuses[-1][chamber] = unordered.status
    if faults[1:] and statuses[0].get(vd.chamber) == "pass":
        assert statuses[1][vd.chamber] == "fail", mutation


def _value_rule_at_u_power_minus_two(monkeypatch, vd):
    monkeypatch.setattr(localization.residue_sigma, "__code__", (lambda term: -2 - term[2]).__code__)


# every edit of this file that reaches the agreement phase or the axiom check
SELFTEST_FAULTS = {
    **{name: lambda patch, vd, edit=edit: edit(patch)
       for name, edit in {**RULE_EDITS, **ROW_EDITS, **TRIPLE_EDITS}.items()},
    **{f"kernel-{mutation}": _kernel_fault(mutation) for mutation in MUTATIONS},
    "kernel-finds-no-triple": lambda patch, vd: patch.setattr(
        selftest, "localized_residue", lambda *args: None
    ),
    "value-rule-at-u-power-minus-two": _value_rule_at_u_power_minus_two,
}
# the label edit reads a third sector, which P(1,1,2) does not have
FAULT_DATA = [DEMO_DIR / f"{name}.datum" for name in ("wp122333", "z3_on_p2")]
FAULT_DATA.append(TESTS / "golden" / "data" / "p1_25.datum")


@pytest.mark.parametrize("fault", sorted(SELFTEST_FAULTS))
@pytest.mark.parametrize("path", FAULT_DATA, ids=[path.stem for path in FAULT_DATA])
def test_both_agreement_sweeps_agree_under_every_fault(monkeypatch, path, fault):
    """Under each edit of a rule, a row, the kernel or the value rule, the two
    sweeps report the same when the axiom check passes, and the self-test
    reports what it reports with the sweep over every ordered pair."""
    vd = _load(path)
    assert run_selftest(vd).passed
    with monkeypatch.context() as patch:
        SELFTEST_FAULTS[fault](patch, vd)
        ring = ChenRuanRing(vd)
        if ring.verify_ring_axioms().passed:
            unordered = selftest._agreement_phase(vd, ring, True)
            assert unordered == selftest._agreement_phase(vd, ring, False)
        report = run_selftest(vd)
        _ordered_sweep(patch)
        assert report == run_selftest(vd)
    assert not report.passed


CORRUPTION_DATA = [
    QuotientDatum((1, 1, 2)),
    QuotientDatum((1, 2, 2, 3, 3, 3)),
    QuotientDatum((3, 5, 7)),
    QuotientDatum((1, 1, 1), (FiniteCyclicFactor(3, (0, 1, 2)),)),
    QuotientDatum((1, 5, 4), (FiniteCyclicFactor(4, (1, 2, 2)),)),
    QuotientDatum((-1, -2, -2), chamber="negative"),
]


@pytest.mark.parametrize("datum", CORRUPTION_DATA, ids=str)
def test_a_corrupted_sector_product_gives_the_ordered_sweeps_report(monkeypatch, datum):
    """Under seeded corruptions of the product of one ordered sector pair,
    the self-test reports what it reports with the sweep over every ordered
    pair."""
    vd = validate_datum(datum)
    ring = ChenRuanRing(vd)
    nonzero = [(s, t) for s, row in enumerate(ring.pairs[2]) for t, data in enumerate(row) if data]
    for kind, edit in CORRUPTIONS.items():
        rng = random.Random(f"{datum}:{kind}")
        for _ in range(4):
            s, t = rng.choice(nonzero)
            with monkeypatch.context() as patch:
                patch.setattr(ChenRuanRing, "row", corrupting(edit, {(s, t)}))
                report = run_selftest(vd)
                _ordered_sweep(patch)
                assert report == run_selftest(vd), (kind, s, t)
