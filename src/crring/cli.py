"""Command line front end and built-in verification suites.

Commands read a single datum file (a JSON document with fields n, weights,
finite, chamber) and write exact results to stdout or ``--out``.  All numbers
are rendered as exact "p/q" strings.  The structured (JSON) format is the
source of truth.  Its bytes are those of ``json.dumps(doc, indent=2)``, but
written by this module's own writer, which pays per byte rather than per
call: inside a list or dict each item is dispatched on its exact type (a
str or int is written in place, a dict or list by a direct call); a list
of only str or only int is joined in C; a list of two or more records
(dicts) with one key sequence is written through one ``%`` template built
from the first record's quoted keys, ``%`` doubled; and a list holding a
record, met again at the same indentation, is written once (a memo).
``--format tsv`` prints each of its records as one row
(``basis`` prefixes the index): a label gives two cells, c and the finite
components joined by ':'; a list one cell joined by ','; null an empty cell;
anything else its str.  ``table`` and ``wallcross`` keep their own layouts.

``main`` reads argv (``sys.argv[1:]`` when given none) with the parser of
the command that argv[0] names; the top-level parser reads it only when
argv[0] names no command or arguments are left over.  The namespace and
every help page and error are those of ``build_parser().parse_args(argv)``.

Exit codes: 0 on success, 1 on domain errors (the error class name goes to
stderr) or a failed self-test, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote

from .errors import DatumFormatError, DomainError
from .exact import format_rational, parse_rational
from .localization import (
    localized_residue,
    report_to_doc,
    residue_sigma,
    triple_localized,
    wall_crossing_delta,
)
from .quotient import (
    CHAMBERS,
    Code,
    SectorTable,
    ValidatedDatum,
    datum_from_doc,
    sector_dim,
    validate_datum,
)
from .ring import (
    BasisElement,
    ChenRuanRing,
    CRClass,
    PhaseResult,
    SelfTestReport,
    cr_class_to_doc,
    obstruction_rank_oracle,
    table_to_doc,
)

# -- self-test ----------------------------------------------------------------


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
    ``SectorTable.position``, the lookup of ``cup`` and ``pair``, and to its
    table row through ``ValidatedDatum.sector_row``, the route of ``shift``,
    ``triple --method localization`` and ``wallcross``, and through
    ``theta_numerators``, the route of the API's ``thetas``, ``fixed_set``
    and ``degree_shift``."""
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
    normal line in t order, and the oracle, which reads the three phases
    only through their sum, runs once per distinct pair, in first-occurrence
    order.  A failure names the first failing line in (s, t, j) order from
    the verdicts of its row, without asking the oracle again."""
    table = ring.table
    d, fixed, lines = table.denominator, table.fixed, 0
    code_columns, columns = ring._columns
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
                try:
                    rank = obstruction_rank_oracle(total, 0, 0, d)
                except DomainError as exc:
                    verdicts[key] = str(exc)
                    continue
                if (rank == 1) != bool(carry):
                    verdicts[key] = f"index rank {rank} vs exponent rule"
            if verdicts:
                i = next(i for i, key in enumerate(keys) if key in verdicts)
                t = [t for t, (z, f) in enumerate(zip(theta_r, fixed)) if z and not f & bit][i]
                failures.append((t, j, verdicts[keys[i]]))
        if failures:
            t, j, text = min(failures)
            return PhaseResult(name, "fail", f"{_line(table, s, t, j)}: {text}")
    return PhaseResult(name, "pass", f"{lines} normal lines agree with the index count")


def _agreement_phase(vd: ValidatedDatum, ring: ChenRuanRing) -> PhaseResult:
    """Both 3-point paths on every composable basis triple, then the report
    of ``triple_localized``.  The sweep visits the ordered sector pairs
    (s, t) in row order; the symmetric kernel runs at s <= t, on (s, t, r =
    (st)^-1), and (t, s) reuses and drops that term when its own r is the
    same, while the direct side reads both orders.  Each side is nonzero at
    one sigma = k1 + k2 + k3 at most, so the first failing basis triple in
    (k1, k2, k3) order lies at the smallest sigma in [0, dim(s) + dim(t) +
    dim(r)] that holds a nonzero side alone or two different values.  Then
    ``triple_localized`` on (1_(s), eta^k2 1_(s^-1), eta^k3 1), s <= s^-1 and
    k2 + k3 = dim(s), must report the pairing at u-power -1 and every
    sector on the ring's side."""
    name = "path_agreement"
    table = ring.table
    dims, thetas, zero = table.dims, table.thetas, Fraction(0)
    pairings = [(v.numerator, v.denominator) for v in map(ring.pairing_value, range(len(dims)))]
    triples, first = 0, {}  # (t, s) -> r and term of the first order (s, t), s < t
    for s, (composite, _, products) in enumerate(zip(*ring.pairs)):
        for t, (h, product) in enumerate(zip(composite, products)):
            if h < 0:
                continue
            r = table.inverse[h]
            if s > t and (known := first.pop((s, t), None)) and known[0] == r:
                term = known[1]
            else:
                term = localized_residue(vd, thetas[s], thetas[t], thetas[r])
                if term is None:
                    return PhaseResult(
                        name, "fail", f"{_triple(table, s, t, r, (0, 0, 0))}: the localized "
                        "path finds that the sectors do not multiply to 1"
                    )
                if s < t:
                    first[t, s] = r, term
            numerator, bottom, _ = term
            # direct side: eta^k1 1_(s) * eta^k2 1_(t) = c eta^(k1+k2+shift) 1_(h),
            # paired with eta^k3 1_(r) when the degrees are complementary; a
            # product that vanishes has sigma None
            c = product[0] if product else 0
            top = dims[h] - product[1] if product else None
            at = residue_sigma(term)
            span = dims[s] + dims[t] + dims[r]
            p, q = pairings[h]
            matched = top == at and c * bottom * p == numerator * q
            inside = () if matched else [x for x in (top, at) if x is not None and 0 <= x <= span]
            if inside:
                sigma = min(inside)
                k1 = max(0, sigma - dims[t] - dims[r])
                k2 = max(0, sigma - k1 - dims[r])
                direct = Fraction(c * p, q) if sigma == top else zero
                localized = Fraction(numerator, bottom) if sigma == at else zero
                return PhaseResult(
                    name,
                    "fail",
                    f"{_triple(table, s, t, r, (k1, k2, sigma - k1 - k2))}: "
                    f"direct {format_rational(direct)} != "
                    f"localized {format_rational(localized)}",
                )
            triples += (dims[s] + 1) * (dims[t] + 1) * (dims[r] + 1)
    # u-power -1: e_j is 0 on the dim(s) + 1 coordinates that s fixes, 1 elsewhere;
    # the eta powers go on two factors, so that both enter the sum that is read
    labels, identity = table.labels, vd.identity()
    sides = {chamber: (chamber == ring.chamber,) * 3 for chamber in CHAMBERS}
    for s, (inverse, dim, (p, q)) in enumerate(zip(table.inverse, dims, pairings)):
        if s > inverse:
            continue
        k2, k3 = dim - dim // 2, dim // 2
        try:
            report = triple_localized(vd, (labels[s], 0), (labels[inverse], k2), (identity, k3))
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
    """Ring axioms, sector involution identities with every label read back
    to its sector and table row, obstruction/index agreement, and (when the
    datum's chamber is the only nonempty one, that is, when every weight has
    its sign) the two-path 3-point check.  Phase names carry the chamber
    they checked whenever that is not simply the datum's own chamber."""
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
        phases.append(_agreement_phase(vd, ring))
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
    dim = sector_dim(vd.sector_row(label, chamber)[2])
    if not 0 <= k <= dim:
        raise _UsageError(f"eta power {k} of {label} is outside [0, {dim}]")
    return label, k


def _load(path: str) -> ValidatedDatum:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise DatumFormatError(f"cannot read datum file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatumFormatError(f"datum file is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatumFormatError(f"datum file is not valid JSON: {exc}") from exc
    return validate_datum(datum_from_doc(doc))


def _structured(doc) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, byte for byte, for a
    document of str, int, bool, None, lists, tuples and str-keyed dicts, by
    the rules of the module docstring, which ``_json`` spells out."""
    return _json(doc, "", {}) + "\n"


def _json(value, pad: str, memo: dict) -> str:
    """The indent-2 JSON text of ``value`` at indentation ``pad``, by
    ``isinstance``, so that str and int subclasses, bool and None render as
    ``json.dumps`` renders them.  The loops of ``_list``, ``_dict`` and
    ``_texts`` dispatch each item on its exact type: str to ``_quote``, int
    to ``int.__repr__``, dict and list to a direct call, anything else back
    here.  ``_list`` joins a list of only str or only int in C and writes
    two or more dicts with one key sequence through one ``%`` template: the
    first dict's quoted keys, ``%`` doubled, each followed by a ``%s`` slot
    that a record fills with its value texts.  ``memo`` maps the id of a
    list or tuple holding a dict to its last indentation and text; it is
    read before any item is rendered.  The loops are written out: before
    CPython 3.12 a comprehension makes the names it reads closure cells,
    built on every call."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _list(value, pad, memo)
    if isinstance(value, dict):
        return _dict(value, pad, memo)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _texts(values, pad: str, memo: dict) -> list[str]:
    """The texts of ``values`` at indentation ``pad``, by exact type."""
    texts = []
    for v in values:
        kind = type(v)
        if kind is str:
            texts.append(_quote(v))
        elif kind is int:
            texts.append(int.__repr__(v))
        elif kind is dict:
            texts.append(_dict(v, pad, memo))
        elif kind is list:
            texts.append(_list(v, pad, memo))
        else:
            texts.append(_json(v, pad, memo))
    return texts


def _dict(value: dict, pad: str, memo: dict) -> str:
    if not value:
        return "{}"
    inner = pad + "  "
    items = []
    # the dispatch of _texts, written out: a dict pays no second call
    for k, v in value.items():
        kind = type(v)
        if kind is str:
            text = _quote(v)
        elif kind is int:
            text = int.__repr__(v)
        elif kind is dict:
            text = _dict(v, inner, memo)
        elif kind is list:
            text = _list(v, inner, memo)
        else:
            text = _json(v, inner, memo)
        items.append(f"{_quote(k)}: {text}")
    return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"


def _list(value, pad: str, memo: dict) -> str:
    if not value:
        return "[]"
    types = set(map(type, value))
    kind = types.pop() if len(types) == 1 else None
    shared = kind is dict or dict in types
    if shared:
        known = memo.get(id(value))
        if known is not None and known[0] == pad:
            return known[1]
    inner = pad + "  "
    if kind is str:
        items = map(_quote, value)
    elif kind is int:
        items = map(int.__repr__, value)
    elif kind is dict and len(value) > 1 and value[0] and len(set(map(tuple, value))) == 1:
        # one template for every record; a quoted key holds no raw newline
        keys = "\n".join(map(_quote, value[0])).replace("%", "%%")
        template = f"{{\n{inner}  " + keys.replace("\n", f": %s,\n{inner}  ") + f": %s\n{inner}}}"
        deeper, items = inner + "  ", []
        for v in value:
            items.append(template % tuple(_texts(v.values(), deeper, memo)))
    else:
        items = _texts(value, inner, memo)
    text = f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if shared:
        memo[id(value)] = pad, text
    return text


def _tsv(rows: list[list[str]]) -> str:
    return "".join("\t".join(row) + "\n" for row in rows)


def _flat(record: dict) -> list[str]:
    """One TSV row of a structured record, by the rule in the module docstring."""
    row = []
    for value in record.values():
        if isinstance(value, dict):
            row += [value["c"], ":".join(map(str, value["finite"]))]
        elif isinstance(value, list):
            row.append(",".join(map(str, value)))
        else:
            row.append("" if value is None else str(value))
    return row


def _records(args, header: str, records: list[dict], doc) -> str:
    """The TSV flattening of ``records`` under ``header``, or ``doc``, the
    structured output that prints them."""
    if args.format == "tsv":
        return _tsv([header.split(), *map(_flat, records)])
    return _structured(doc)


def _numerator_text(d: int):
    """The text of a numerator over ``d``, formatted once per distinct
    numerator for the life of the returned function."""
    return cache(lambda x: format_rational(Fraction(x, d)))


def _label_doc(code: Code, text) -> dict:
    """The label cells of a sector code, c through ``text``."""
    return {"c": text(code[0]), "finite": list(code[1:])}


def _sector_records(d: int, rows: Iterable[tuple[Code, tuple[int, ...], int]]) -> list[dict]:
    """The records of sectors given as integer rows (code, theta numerators
    over D, fixed-set mask), as a sector table holds them; each distinct
    numerator over D is formatted once per call, and records with one mask
    share its fixed-set list, read only."""
    text = _numerator_text(d)
    sets: dict[int, list[int]] = {}  # mask -> fixed-set list
    records = []
    for code, thetas, mask in rows:
        fixed = sets.get(mask)
        if fixed is None:
            fixed = sets[mask] = [j for j in range(len(thetas)) if mask >> j & 1]
        records.append({
            "label": _label_doc(code, text),
            "fixed_set": fixed,
            "thetas": list(map(text, thetas)),
            "shift": text(sum(thetas)),
            "dim": sector_dim(mask),
        })
    return records


_SECTOR_HEADER = "c finite fixed_set thetas shift dim"


def _cmd_sectors(args, vd: ValidatedDatum) -> tuple[str, int]:
    table = vd.sector_table()
    records = _sector_records(table.denominator, zip(table.codes, table.thetas, table.fixed))
    return _records(args, _SECTOR_HEADER, records, {"sectors": records}), 0


def _cmd_shift(args, vd: ValidatedDatum) -> tuple[str, int]:
    row = vd.sector_row(_resolve(vd, args.t), vd.chamber)
    (record,) = _sector_records(vd.denominator, [row])
    return _records(args, _SECTOR_HEADER, [record], record), 0


def _cmd_basis(args, vd: ValidatedDatum) -> tuple[str, int]:
    ring = ChenRuanRing(vd)
    text = _numerator_text(vd.denominator)
    labels = [_label_doc(code, text) for code in ring.table.codes]  # shared, read only
    records = [
        {"sector": labels[s], "eta_power": k, "degree": format_rational(ring.degree_at(start + k))}
        for s, (start, ks) in enumerate(zip(ring.start, ring.powers))
        for k in ks
    ]
    doc = {"basis": records}
    if args.format == "tsv":
        records = [{"index": i, **record} for i, record in enumerate(records)]
    return _records(args, "index c finite eta_power degree", records, doc), 0


def _basis_class(vd: ValidatedDatum, flag, k: int) -> CRClass:
    return CRClass.single(BasisElement(*_power(vd, flag, k, vd.chamber)))


def _cmd_pair(args, vd: ValidatedDatum) -> tuple[str, int]:
    ring = ChenRuanRing(vd)
    classes = _basis_class(vd, args.t1, args.k1), _basis_class(vd, args.t2, args.k2)
    return _value_output(args, ring.pairing(*classes)), 0


def _cmd_cup(args, vd: ValidatedDatum) -> tuple[str, int]:
    ring = ChenRuanRing(vd)
    classes = _basis_class(vd, args.t1, args.k1), _basis_class(vd, args.t2, args.k2)
    records = cr_class_to_doc(ring.cup(*classes))
    return _records(args, "c finite eta_power coeff", records, records), 0


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


# the TSV of table and wallcross is no flattening of their documents: table
# prints labels as c=...,a=... and only the nonzero pairings, and wallcross
# renames its keys
def _cmd_table(args, vd: ValidatedDatum) -> tuple[str, int]:
    table = ChenRuanRing(vd).structure_constants()
    if args.format == "tsv":
        rows = [["section", "i", "j", "value"]]
        for i, e in enumerate(table.basis):
            rows.append(["basis", str(i), str(e.k), str(e.sector)])
        for i, row in enumerate(table.pairing):
            for j in compress(range(len(row)), row):
                rows.append(["pairing", str(i), str(j), format_rational(row[j])])
        cells: dict[int, str] = {}  # id of a product value -> its cell
        for (i, j), value in sorted(table.products.items()):
            cell = cells.get(id(value))
            if cell is None:
                cell = cells[id(value)] = " + ".join(
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
    doc = selftest_to_doc(report)
    return _records(args, "phase status detail", doc["phases"], doc), 0 if report.passed else 1


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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of all nine commands, built once per process.  Its
    ``commands`` attribute maps each command name to that command's own
    parser."""
    parser = argparse.ArgumentParser(
        prog="crring",
        description="Exact Chen-Ruan cohomology of diagonal abelian quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, extras, flags) in _COMMANDS.items():
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
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read by the command's own parser
    when argv[0] names one and it leaves no argument over."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
            with open(args.out, "w") as file:
                file.write(text)
        except OSError as exc:
            print(f"usage error: cannot write output file: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
