"""Command line front end and built-in verification suites.

Commands read a single datum file (a JSON document with fields n, weights,
finite, chamber) and write exact results to stdout or ``--out``.  All numbers
are rendered as exact "p/q" strings.  The structured (JSON) format is the
source of truth; ``--format tsv`` is for spreadsheets.

Exit codes: 0 on success, 1 on domain errors (the error class name goes to
stderr) or a failed self-test, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DatumFormatError, DomainError, EmptySector
from .exact import format_rational, parse_rational
from .localization import (
    localized_residue,
    report_to_doc,
    triple_localized,
    wall_crossing_delta,
)
from .quotient import (
    CHAMBERS,
    SectorInfo,
    SectorTable,
    ValidatedDatum,
    datum_from_doc,
    label_to_doc,
    validate_datum,
)
from .ring import (
    BasisElement,
    ChenRuanRing,
    CRClass,
    cr_class_to_doc,
    obstruction_rank_oracle,
    table_to_doc,
)

# -- self-test ----------------------------------------------------------------


@dataclass(frozen=True)
class PhaseResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str | None = None


@dataclass(frozen=True)
class SelfTestReport:
    phases: tuple[PhaseResult, ...]

    @property
    def passed(self) -> bool:
        return all(phase.status != "fail" for phase in self.phases)


def _involution_phase(vd: ValidatedDatum, table: SectorTable, name: str) -> PhaseResult:
    d = table.denominator
    for s, (inverse, fixed, thetas) in enumerate(zip(table.inverse, table.fixed, table.thetas)):
        label = table.infos[s].label
        if table.fixed[inverse] != fixed:
            return PhaseResult(name, "fail", f"fixed sets of {label} and its inverse differ")
        if sum(thetas) + sum(table.thetas[inverse]) != (vd.n - fixed.bit_count()) * d:
            return PhaseResult(
                name, "fail", f"age({label}) + age(inverse) != moved coordinate count"
            )
        for j, (x, y) in enumerate(zip(thetas, table.thetas[inverse])):
            if x + y != (0 if fixed >> j & 1 else d):
                return PhaseResult(
                    name, "fail", f"theta complement fails for {label} at coordinate {j}"
                )
    return PhaseResult(name, "pass", f"{len(table.codes)} sectors closed under inverse")


def _line(table: SectorTable, s: int, t: int, j: int) -> str:
    return f"({table.infos[s].label}, {table.infos[t].label}) line {j}"


def _triple(table: SectorTable, s: int, t: int, r: int, powers: tuple[int, ...]) -> str:
    return " ".join(f"({table.infos[x].label},{k})" for x, k in zip((s, t, r), powers))


def _obstruction_phase(vd: ValidatedDatum, ring: ChenRuanRing, name: str) -> PhaseResult:
    table = ring.table
    lines = 0
    for s, (composite, carry) in enumerate(zip(*ring.pairs)):
        for t, (h, interacting) in enumerate(zip(composite, carry)):
            if h >= 0:
                theta_r = table.thetas[table.inverse[h]]
            else:
                # re-derived from the codes: the index count must not read
                # theta_r off the carry of theta_s + theta_t
                theta_r = vd.code_numerators(
                    table.invert(table.compose(table.codes[s], table.codes[t]))
                )
            outside = ~(table.fixed[s] | table.fixed[t] | vd.fixed_mask(theta_r))
            # a line moved by r = (st)^-1 is moved by st, so it is an
            # obstruction direction exactly when it is interacting
            for j in range(vd.n):
                if not outside >> j & 1:
                    continue
                try:
                    rank = obstruction_rank_oracle(
                        table.thetas[s][j], table.thetas[t][j], theta_r[j], table.denominator
                    )
                except DomainError as exc:
                    return PhaseResult(name, "fail", f"{_line(table, s, t, j)}: {exc}")
                if (rank == 1) != bool(interacting >> j & 1):
                    return PhaseResult(
                        name, "fail", f"{_line(table, s, t, j)}: index rank {rank} vs exponent rule"
                    )
                lines += 1
    return PhaseResult(name, "pass", f"{lines} normal lines agree with the index count")


def _agreement_phase(vd: ValidatedDatum, ring: ChenRuanRing) -> PhaseResult:
    """Both 3-point paths on every composable basis triple.  The localized
    kernel runs once per sector triple (s, t, r = (st)^-1); of the eta
    powers only their sum enters either side."""
    name = "path_agreement"
    table = ring.table
    dims, thetas, zero = table.dims, table.thetas, Fraction(0)
    triples = 0
    for s, (composite, carry) in enumerate(zip(*ring.pairs)):
        for t, (h, interacting) in enumerate(zip(composite, carry)):
            if h < 0:
                continue
            r = table.inverse[h]
            term = localized_residue(vd, thetas[s], thetas[t], thetas[r])
            if term is None:
                return PhaseResult(
                    name, "fail", f"{_triple(table, s, t, r, (0, 0, 0))}: the localized "
                    "path finds that the sectors do not multiply to 1"
                )
            coeff, base = term
            # direct side: eta^k1 1_(s) * eta^k2 1_(t) = c eta^(k1+k2+shift) 1_(h),
            # paired with eta^k3 1_(r) when the degrees are complementary
            product = ring.sector_product(s, t, h, interacting)
            value = top = None
            if product is not None:
                value = Fraction(product[0], ring.pairing_denominator(h))
                top = dims[h] - product[1]
            for k1 in range(dims[s] + 1):
                for k2 in range(dims[t] + 1):
                    for k3 in range(dims[r] + 1):
                        direct = value if k1 + k2 + k3 == top else zero
                        localized = coeff if base + k1 + k2 + k3 == -1 else zero
                        if direct is not localized and direct != localized:
                            return PhaseResult(
                                name,
                                "fail",
                                f"{_triple(table, s, t, r, (k1, k2, k3))}: "
                                f"direct {format_rational(direct)} != "
                                f"localized {format_rational(localized)}",
                            )
                        triples += 1
    return PhaseResult(name, "pass", f"{triples} composable basis triples agree")


def run_selftest(vd: ValidatedDatum) -> SelfTestReport:
    """Ring axioms, sector involution identities, obstruction/index
    agreement, and (when every weight has the sign of the datum's chamber)
    the two-path 3-point check.  Phase names carry the chamber they checked
    whenever that is not simply the datum's own chamber."""
    phases: list[PhaseResult] = []
    chambers = [chamber for chamber in CHAMBERS if vd.sectors(chamber)]
    tagged = chambers != [vd.chamber]

    def tag(base: str, chamber: str) -> str:
        return f"{base}[{chamber}]" if tagged else base

    own = None
    for chamber in chambers:
        ring = ChenRuanRing(vd, chamber)
        if chamber == vd.chamber:
            own = ring
        report = ring.verify_ring_axioms()
        failure = report.first_failure()
        phases.append(
            PhaseResult(
                tag("ring_axioms", chamber),
                "pass" if report.passed else "fail",
                None if failure is None else f"{failure.name}: {failure.counterexample}",
            )
        )
        phases.append(_involution_phase(vd, ring.table, tag("sector_involution", chamber)))
        phases.append(_obstruction_phase(vd, ring, tag("obstruction_oracle", chamber)))
    sign = 1 if vd.chamber == "positive" else -1
    if own is None:
        skip = f"the {vd.chamber} chamber of this datum is empty"
    elif all(w * sign > 0 for w in vd.weights):
        skip = None
        phases.append(_agreement_phase(vd, own))
    else:
        skip = (
            "mixed-sign weights: both sides of the wall are noncompact, so only "
            "the localized delta is available (see the wallcross command)"
        )
    if skip:
        phases.append(PhaseResult("path_agreement", "skipped", skip))
    return SelfTestReport(tuple(phases))


def selftest_to_doc(report: SelfTestReport) -> dict:
    return {
        "phases": [
            {"name": p.name, "status": p.status, "detail": p.detail} for p in report.phases
        ],
        "passed": report.passed,
    }


# -- command plumbing ----------------------------------------------------------


class _UsageError(Exception):
    pass


def _sector_flag(text: str) -> tuple[Fraction, tuple[int, ...]]:
    """Parse the flag syntax c=p/q[,a=k1:k2:...] without datum context."""
    parts = text.split(",")
    if not parts[0].startswith("c="):
        raise argparse.ArgumentTypeError(f"expected c=p/q[,a=k1:k2:...], got {text!r}")
    try:
        c = parse_rational(parts[0][2:])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    finite: tuple[int, ...] = ()
    if len(parts) == 2:
        if not parts[1].startswith("a="):
            raise argparse.ArgumentTypeError(f"expected a=k1:k2:..., got {parts[1]!r}")
        try:
            finite = tuple(int(x) for x in parts[1][2:].split(":"))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    elif len(parts) > 2:
        raise argparse.ArgumentTypeError(f"too many comma fields in {text!r}")
    return c, finite


def _resolve(vd: ValidatedDatum, flag: tuple[Fraction, tuple[int, ...]]):
    try:
        return vd.label(flag[0], flag[1])
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _power(vd: ValidatedDatum, flag, k: int, chamber: str | None = None):
    """A (label, eta power) request.  EmptySector when the label fixes no
    coordinate (with a chamber: none on that side of the wall); a usage
    error when k lies outside [0, |fixed set| - 1]."""
    label = _resolve(vd, flag)
    if chamber:
        dim = vd.sector_info(label, chamber).dim
    else:
        dim = len(vd.fixed_set(label)) - 1
        if dim < 0:
            raise EmptySector(f"{label} fixes no coordinate")
    if not 0 <= k <= dim:
        raise _UsageError(f"eta power {k} of {label} is outside [0, {dim}]")
    return label, k


def _load(path: str) -> ValidatedDatum:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DatumFormatError(f"cannot read datum file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatumFormatError(f"datum file is not valid JSON: {exc}") from exc
    return validate_datum(datum_from_doc(doc))


def _structured(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _tsv(rows: list[list[str]]) -> str:
    return "".join("\t".join(row) + "\n" for row in rows)


def _sector_row(info: SectorInfo) -> list[str]:
    return [
        format_rational(info.label.c),
        ":".join(str(a) for a in info.label.finite),
        ",".join(str(j) for j in sorted(info.fixed_set)),
        ",".join(format_rational(th) for th in info.thetas),
        format_rational(info.shift),
        str(info.dim),
    ]


def _sector_doc(info: SectorInfo) -> dict:
    return {
        "label": label_to_doc(info.label),
        "fixed_set": sorted(info.fixed_set),
        "thetas": [format_rational(th) for th in info.thetas],
        "shift": format_rational(info.shift),
        "dim": info.dim,
    }


_SECTOR_HEADER = ["c", "finite", "fixed_set", "thetas", "shift", "dim"]


def _cmd_sectors(args, vd: ValidatedDatum) -> tuple[str, int]:
    sectors = vd.sectors()
    if args.format == "tsv":
        return _tsv([_SECTOR_HEADER] + [_sector_row(s) for s in sectors]), 0
    return _structured({"sectors": [_sector_doc(s) for s in sectors]}), 0


def _cmd_shift(args, vd: ValidatedDatum) -> tuple[str, int]:
    info = vd.sector_info(_resolve(vd, args.t))
    if args.format == "tsv":
        return _tsv([_SECTOR_HEADER, _sector_row(info)]), 0
    return _structured(_sector_doc(info)), 0


def _cmd_basis(args, vd: ValidatedDatum) -> tuple[str, int]:
    ring = ChenRuanRing(vd)
    basis = [(e, format_rational(ring.degree(e))) for e in ring.basis()]
    if args.format == "tsv":
        rows = [["index", "c", "finite", "eta_power", "degree"]]
        for i, (e, degree) in enumerate(basis):
            finite = ":".join(str(a) for a in e.sector.finite)
            rows.append([str(i), format_rational(e.sector.c), finite, str(e.k), degree])
        return _tsv(rows), 0
    records = [
        {"sector": label_to_doc(e.sector), "eta_power": e.k, "degree": degree}
        for e, degree in basis
    ]
    return _structured({"basis": records}), 0


def _basis_class(vd: ValidatedDatum, flag, k: int) -> CRClass:
    return CRClass.single(BasisElement(*_power(vd, flag, k, vd.chamber)))


def _cmd_pair(args, vd: ValidatedDatum) -> tuple[str, int]:
    ring = ChenRuanRing(vd)
    value = ring.pairing(
        _basis_class(vd, args.t1, args.k1), _basis_class(vd, args.t2, args.k2)
    )
    return _value_output(args, value), 0


def _cmd_cup(args, vd: ValidatedDatum) -> tuple[str, int]:
    ring = ChenRuanRing(vd)
    product = ring.cup(
        _basis_class(vd, args.t1, args.k1), _basis_class(vd, args.t2, args.k2)
    )
    if args.format == "tsv":
        rows = [["c", "finite", "eta_power", "coeff"]]
        for element, coeff in product.items():
            rows.append(
                [
                    format_rational(element.sector.c),
                    ":".join(str(a) for a in element.sector.finite),
                    str(element.k),
                    format_rational(coeff),
                ]
            )
        return _tsv(rows), 0
    return _structured(cr_class_to_doc(product)), 0


def _value_output(args, value: Fraction) -> str:
    if args.format == "tsv":
        return format_rational(value) + "\n"
    return _structured(format_rational(value))


def _triple_flags(args) -> list:
    return [(args.t1, args.k1), (args.t2, args.k2), (args.t3, args.k3)]


def _cmd_triple(args, vd: ValidatedDatum) -> tuple[str, int]:
    if args.method == "direct":
        classes = [_basis_class(vd, t, k) for t, k in _triple_flags(args)]
        value = ChenRuanRing(vd).triple_direct(*classes)
    else:
        value = triple_localized(vd, *(_power(vd, t, k) for t, k in _triple_flags(args))).value
    return _value_output(args, value), 0


def _cmd_table(args, vd: ValidatedDatum) -> tuple[str, int]:
    table = ChenRuanRing(vd).structure_constants()
    if args.format == "tsv":
        rows = [["section", "i", "j", "value"]]
        for i, e in enumerate(table.basis):
            rows.append(["basis", str(i), str(e.k), str(e.sector)])
        for i, row in enumerate(table.pairing):
            for j, v in enumerate(row):
                if v != 0:
                    rows.append(["pairing", str(i), str(j), format_rational(v)])
        for (i, j), value in sorted(table.products.items()):
            cell = " + ".join(
                f"{format_rational(c)}*{e}" for e, c in value.items()
            )
            rows.append(["product", str(i), str(j), cell])
        return _tsv(rows), 0
    return _structured(table_to_doc(table)), 0


def _cmd_wallcross(args, vd: ValidatedDatum) -> tuple[str, int]:
    report = wall_crossing_delta(vd, *(_power(vd, t, k) for t, k in _triple_flags(args)))
    if args.format == "tsv":
        rows = [
            ["value", format_rational(report.value)],
            ["degree_check", str(report.degree_check)],
        ]
        for chamber, flags in report.side_existence.items():
            rows.append([f"exists_{chamber}"] + [str(flag).lower() for flag in flags])
        if report.note:
            rows.append(["note", report.note])
        return _tsv(rows), 0
    return _structured(report_to_doc(report)), 0


def _cmd_selftest(args, vd: ValidatedDatum) -> tuple[str, int]:
    report = run_selftest(vd)
    code = 0 if report.passed else 1
    if args.format == "tsv":
        rows = [["phase", "status", "detail"]]
        for phase in report.phases:
            rows.append([phase.name, phase.status, phase.detail or ""])
        return _tsv(rows), code
    return _structured(selftest_to_doc(report)), code


# name -> (handler, help line, extra arguments, sector flags); every sector
# flag but shift's lone --t comes with its eta power --k<i>
_METHOD = ("--method", {"choices": ("direct", "localization"), "required": True})
_TRIPLE = ("--t1", "--t2", "--t3")
_COMMANDS = {
    "sectors": (
        _cmd_sectors, "list twisted sectors with fixed sets, phases, and degree shifts", (), ()
    ),
    "shift": (_cmd_shift, "degree shift (age) and fixed set of one sector", (), ("--t",)),
    "basis": (_cmd_basis, "graded basis of the Chen-Ruan ring", (), ()),
    "pair": (_cmd_pair, "Poincare pairing of two basis classes", (), _TRIPLE[:2]),
    "cup": (_cmd_cup, "cup product of two basis classes", (), _TRIPLE[:2]),
    "triple": (_cmd_triple, "3-point function by either computation path", (_METHOD,), _TRIPLE),
    "table": (_cmd_table, "full structure-constant and pairing tables", (), ()),
    "wallcross": (_cmd_wallcross, "wall-crossing delta of a 3-point function", (), _TRIPLE),
    "selftest": (_cmd_selftest, "run the built-in verification suites on the datum", (), ()),
}
_CHOICES = "{" + ",".join(_COMMANDS) + "}"


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """Only the subparser that ``argv[0]`` names; all nine for anything else
    (help, an empty argv, an unknown command or a leading option)."""
    parser = argparse.ArgumentParser(
        prog="crring",
        description="Exact Chen-Ruan cohomology of diagonal abelian quotients.",
    )
    lean = bool(argv) and argv[0] in _COMMANDS
    # a fixed metavar keeps all nine names in the lean tree's usage line; the
    # full tree keeps the default, under which its errors name it "command"
    sub = parser.add_subparsers(dest="command", required=True, metavar=_CHOICES if lean else None)
    for name in [argv[0]] if lean else _COMMANDS:
        _, help_text, extras, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("datum", help="datum file (JSON: n, weights, finite, chamber)")
        p.add_argument("--format", choices=("structured", "tsv"), default="structured")
        p.add_argument("--out", help="write output to this file instead of stdout")
        for flag, options in extras:
            p.add_argument(flag, **options)
        for flag in flags:
            p.add_argument(flag, required=True, type=_sector_flag, metavar="c=p/q[,a=k1:k2:...]")
            if flag != "--t":
                p.add_argument(flag.replace("--t", "--k"), type=int, default=0, metavar="K")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        vd = _load(args.datum)
        text, code = _COMMANDS[args.command][0](args, vd)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"usage error: cannot write output file: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
