"""The built-in self-test: ``run_selftest`` and the phases it runs.

On each nonempty chamber of a datum, ``run_selftest`` runs
``ring_axioms`` (``ChenRuanRing.verify_ring_axioms``), ``sector_involution``
(theta_s + theta_(s^-1) against the fixed set of s, with every label read
back to its sector and table row) and ``obstruction_oracle`` (the carry of
every normal line against the index count of ``obstruction_rank_oracle``,
asked once per distinct phase sum).
When the datum's own chamber is the only nonempty one, ``path_agreement``
compares the two 3-point paths on every composable basis triple (and is
skipped otherwise): the twist-factor product of ``ring`` against the
wall-crossing residue of ``localization``, which imports nothing from
``ring``.  This is the one module that reads both paths.  Once
``ring_axioms`` passes, it visits each unordered sector triple once, since
unit, commutativity and Frobenius make <x*y, z> symmetric in x, y, z.  It
reads the table's rows; the involution phase checks each label's ``sector_row``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .exact import _refuse_float, format_rational
from .localization import localized_report, localized_residue, residue_sigma
from .quotient import CHAMBERS, SectorTable, ValidatedDatum
from .ring import ChenRuanRing, PhaseResult, SelfTestReport


def obstruction_rank_oracle(theta1, theta2, theta3, denominator: int = 1) -> int:
    """Invariant H^1 rank of one normal line over the 3-marked sphere.

    For a line where the three group elements act with phases theta_i, the
    equivariant index of the pushed-forward sheaf is chi = 1 - sum(theta_i)
    (the first Chern class of the pushforward of a constant sheaf vanishes),
    so the invariant H^1 has rank max(-chi, 0): 1 exactly when the phase sum
    is 2.  Raises DomainError when the sum is not an integer, since then the
    three elements cannot compose to the identity on this line.  The phases
    are rationals, or integer numerators over ``denominator``; a float raises
    TypeError, and a denominator below 1 ValueError.
    """
    for value in (theta1, theta2, theta3, denominator):
        _refuse_float(value)
    if denominator < 1:
        raise ValueError(f"denominator {denominator} is below 1")
    total, rest = divmod(theta1 + theta2 + theta3, denominator)
    if rest:
        total = Fraction(theta1 + theta2 + theta3, denominator)
        raise DomainError(f"phase sum {format_rational(total)} is not an integer")
    return max(total - 1, 0)


def _involution_phase(table: SectorTable, name: str) -> PhaseResult:
    # theta_s(j) + theta_(s^-1)(j) is 0 on the fixed set of s and D elsewhere.
    # Numerators lie in [0, D), so over all sectors this also makes s and s^-1
    # fix the same set, and age(s) + age(s^-1) the moved coordinate count.
    d = table.denominator
    for s, (inverse, fixed, thetas) in enumerate(zip(table.inverse, table.fixed, table.thetas)):
        for j, (x, y) in enumerate(zip(thetas, table.thetas[inverse])):
            if x + y != (0 if fixed >> j & 1 else d):
                detail = f"theta complement fails for {table.label(s)} at coordinate {j}"
                return PhaseResult(name, "fail", detail)
    return PhaseResult(name, "pass", f"{len(table.codes)} sectors closed under inverse")


def _label_phase(ring: ChenRuanRing, phase: PhaseResult) -> PhaseResult:
    """``phase``, the passed involution phase, failed at the first sector whose
    label does not read back as its sector: to its position through
    ``SectorTable.position``, and to its table row through
    ``ValidatedDatum.sector_row``, the route of every point request
    (``shift``, ``pair``, ``cup``, ``triple`` and ``wallcross``) and of the
    wire reader given a datum, and through ``theta_numerators``, the route
    of the API's ``thetas`` (whose zeros are the fixed set) and
    ``degree_shift``."""
    vd, table = ring.vd, ring.table
    for s, (t, *row) in enumerate(zip(table.labels, table.codes, table.thetas, table.fixed)):
        if table.position(t) != s:
            return PhaseResult(phase.name, "fail", f"label {t} does not read back as its sector")
        try:
            same = vd.sector_row(t, ring.chamber) == tuple(row)
        except DomainError:
            same = False
        if not same or vd.theta_numerators(t) != (table.denominator, row[1]):
            return PhaseResult(phase.name, "fail", f"label {t} reads back as another table row")
    return phase


def _line(table: SectorTable, s: int, t: int, j: int) -> str:
    return f"({table.label(s)}, {table.label(t)}) line {j}"


def _triple(table: SectorTable, s: int, t: int, r: int, powers: tuple[int, ...]) -> str:
    return " ".join(f"({table.label(x)},{k})" for x, k in zip((s, t, r), powers))


def _obstruction_phase(vd: ValidatedDatum, ring: ChenRuanRing, name: str) -> PhaseResult:
    """The carry mask of every ordered sector pair (s, t) against the index
    count, on every normal line j that s, t and r = (st)^-1 all move: such a
    line is moved by st, so it is an obstruction direction exactly when it
    carries, that is, when ``obstruction_rank_oracle`` gives rank 1.

    The phase sweeps one sector row s at a time and reads only the carries
    of ``ring.pairs``.  One comprehension per code component gives the code
    of r for every t, sector or not, and for each coordinate j that s moves
    ``vd.theta_column`` gives theta_r(j) from those codes, never off the
    carry or the table; the line is normal where theta_r(j) is not 0 and t
    moves j.  One comprehension lists the (phase sum, carry bit) of every
    normal line in t order.  The oracle reads the three phases only through
    their sum, so it runs once per distinct sum in the phase, in
    first-occurrence order.  A failure names the first failing line in (s,
    t, j) order from the verdicts of its row, without asking the oracle
    again."""
    table = ring.table
    d, fixed, lines = table.denominator, table.fixed, 0
    code_columns, columns = ring._columns
    ranks = {}  # phase sum -> the oracle's rank, or the text of its refusal
    for s, carries in enumerate(ring.pairs[1]):
        # the code of r = (st)^-1 for every t, one comprehension per component
        r_columns = [
            [-(x + a) % m for x in column]
            for column, a, m in zip(code_columns, table.codes[s], table.moduli)
        ]
        failures = []  # (t, j, text) of the first failing line at each coordinate
        for j, x in enumerate(table.thetas[s]):
            bit = 1 << j
            if fixed[s] & bit:
                continue
            theta_r = vd.theta_column(j, r_columns)
            keys = [
                (x + y + z, c & bit)
                for y, z, f, c in zip(columns[j], theta_r, fixed, carries)
                if z and not f & bit
            ]
            lines += len(keys)
            verdicts = {}  # failing key -> its text
            for key in dict.fromkeys(keys):
                total, carry = key
                if total not in ranks:
                    try:
                        ranks[total] = obstruction_rank_oracle(total, 0, 0, d)
                    except DomainError as exc:
                        ranks[total] = str(exc)
                rank = ranks[total]
                if type(rank) is str:
                    verdicts[key] = rank
                elif (rank == 1) != bool(carry):
                    verdicts[key] = f"index rank {rank} vs exponent rule"
            if verdicts:
                i = next(i for i, key in enumerate(keys) if key in verdicts)
                t = [t for t, (z, f) in enumerate(zip(theta_r, fixed)) if z and not f & bit][i]
                failures.append((t, j, verdicts[keys[i]]))
        if failures:
            t, j, text = min(failures)
            return PhaseResult(name, "fail", f"{_line(table, s, t, j)}: {text}")
    return PhaseResult(name, "pass", f"{lines} normal lines agree with the index count")


def _agreement_phase(vd: ValidatedDatum, ring: ChenRuanRing, symmetric: bool) -> PhaseResult:
    """Both 3-point paths on every composable basis triple, then the
    localized report.  The sweep visits ordered sector pairs (s, t)
    in row order, with the kernel on (s, t, r = (st)^-1) and the direct side
    on the product of that order.  Each side is nonzero at one sigma = k1 +
    k2 + k3 at most, so the first failing basis triple in (k1, k2, k3) order
    lies at the smallest sigma in [0, dim(s) + dim(t) + dim(r)] that holds a
    nonzero side alone or two different values.  When ``symmetric`` (the
    axiom check passed), only t >= s and r >= t are visited, and each basis
    triple counts once per distinct order of its sectors.  This is exact:
    the direct side is <x*y, z> as ``heads``, ``partner`` and
    ``pairing_value`` state it, and unit, commutativity and Frobenius give
    <x, y> = <1, x*y> = <1, y*x> = <y, x>, so <x*y, z> = <y*x, z> =
    <x, y*z> = <y*z, x>; the kernel reads its rows only through their sum.
    So the failing ordered triples are whole orbits under reordering of
    their sectors, and the ordered sweep's first failure (s, t, r) is the
    sorted order of the orbit with the least (min, middle): the first
    unordered visit that misses, which it names alike.  The ordered sweep
    runs only after a failed axiom check.  Then ``localized_report``, which
    ``triple_localized`` and the commands read, on (1_(s), eta^k2 1_(s^-1),
    eta^k3 1), s <= s^-1 and k2 + k3 = dim(s), with the table's rows (the
    identity's is the first), must report the pairing at u-power -1 and
    every sector on the ring's side."""
    name = "path_agreement"
    table = ring.table
    dims, thetas, inverses, zero = table.dims, table.thetas, table.inverse, Fraction(0)
    pairings = [(v.numerator, v.denominator) for v in map(ring.pairing_value, table.fixed)]
    triples = 0
    for s, (composite, _, products) in enumerate(zip(*ring.pairs)):
        if symmetric:  # s <= t <= r: each unordered triple once
            visits = [(t, h, r) for t, h in enumerate(composite[s:], s)
                      if h >= 0 and (r := inverses[h]) >= t]
        else:
            visits = [(t, h, inverses[h]) for t, h in enumerate(composite) if h >= 0]
        for t, h, r in visits:
            term = localized_residue(vd, thetas[s], thetas[t], thetas[r])
            if term is not None:
                numerator, bottom, _ = term
                # direct side: eta^k1 1_(s) * eta^k2 1_(t) = c eta^(k1+k2+shift) 1_(h),
                # paired with eta^k3 1_(r) when the degrees are complementary; a
                # product that vanishes has sigma -1, outside every range
                product = products[t]
                c = product[0] if product else 0
                top = dims[h] - product[1] if product else -1
                at = residue_sigma(term)
                span = dims[s] + dims[t] + dims[r]
                p, q = pairings[h]
                matched = top == at and c * bottom * p == numerator * q
                inside = () if matched else [x for x in (top, at) if 0 <= x <= span]
                if not inside:
                    orders = (1, 3, 6)[len({s, t, r}) - 1] if symmetric else 1
                    triples += orders * (dims[s] + 1) * (dims[t] + 1) * (dims[r] + 1)
                    continue
            if term is None:
                text = "the localized path finds that the sectors do not multiply to 1"
                return PhaseResult(name, "fail", f"{_triple(table, s, t, r, (0, 0, 0))}: {text}")
            sigma = min(inside)
            k1 = max(0, sigma - dims[t] - dims[r])
            k2 = max(0, sigma - k1 - dims[r])
            direct = Fraction(c * p, q) if sigma == top else zero
            localized = Fraction(numerator, bottom) if sigma == at else zero
            powers = k1, k2, sigma - k1 - k2
            text = f"direct {format_rational(direct)} != localized {format_rational(localized)}"
            return PhaseResult(name, "fail", f"{_triple(table, s, t, r, powers)}: {text}")
    # u-power -1: e_j is 0 on the dim(s) + 1 coordinates that s fixes, 1 elsewhere;
    # the eta powers go on two factors, so that both enter the sum that is read
    labels, identity = table.labels, vd.identity()
    rows = list(zip(table.codes, thetas, table.fixed))
    sides = {chamber: (chamber == ring.chamber,) * 3 for chamber in CHAMBERS}
    for s, (inverse, dim, (p, q)) in enumerate(zip(table.inverse, dims, pairings)):
        if s > inverse:
            continue
        k2, k3 = dim - dim // 2, dim // 2
        triple = (labels[s], 0), (labels[inverse], k2), (identity, k3)
        try:
            report = localized_report(vd, triple, (rows[s], rows[inverse], rows[0]))
            read = report.value, report.degree_check, report.side_existence
        except DomainError:
            read = None
        if read != (Fraction(p, q), -1, sides):
            return PhaseResult(
                name, "fail", f"{_triple(table, s, inverse, 0, (0, k2, k3))}: "
                "triple_localized does not report the pairing"
            )
    return PhaseResult(name, "pass", f"{triples} composable basis triples agree")


def run_selftest(vd: ValidatedDatum) -> SelfTestReport:
    """The phases of the module docstring, in order; the datum's chamber is
    the only nonempty one when every weight has its sign.  Phase names carry
    the chamber they checked whenever that is not simply the datum's own;
    the agreement phase gets the axiom check's verdict."""
    phases: list[PhaseResult] = []
    # the identity fixes every coordinate: a chamber is empty exactly when
    # no weight has its sign
    chambers = [chamber for chamber in CHAMBERS if vd.level_masks[chamber]]
    tagged = chambers != [vd.chamber]
    for chamber in chambers:
        suffix = f"[{chamber}]" if tagged else ""
        ring = ChenRuanRing(vd, chamber)
        failure = ring.verify_ring_axioms().first_failure()
        detail = None if failure is None else f"{failure.name}: {failure.detail}"
        phases.append(PhaseResult("ring_axioms" + suffix, "fail" if failure else "pass", detail))
        involution = _involution_phase(ring.table, "sector_involution" + suffix)
        phases.append(_label_phase(ring, involution) if involution.status == "pass" else involution)
        phases.append(_obstruction_phase(vd, ring, "obstruction_oracle" + suffix))
    if not tagged:
        phases.append(_agreement_phase(vd, ring, failure is None))
    else:
        skip = (
            "mixed-sign weights: both sides of the wall are noncompact, so only "
            "the localized delta is available (see the wallcross command)"
            if vd.chamber in chambers
            else f"the {vd.chamber} chamber of this datum is empty"
        )
        phases.append(PhaseResult("path_agreement", "skipped", skip))
    return SelfTestReport(tuple(phases))


def selftest_to_doc(report: SelfTestReport) -> dict:
    return {"phases": [p._asdict() for p in report.phases], "passed": report.passed}
