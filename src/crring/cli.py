"""Command line front end.

Commands read a single datum file (a JSON document with fields n, weights,
finite, chamber) and write exact results to stdout or ``--out``.  All numbers
are rendered as exact "p/q" strings.  The structured (JSON) format is the
source of truth.  Its bytes are those of ``json.dumps(doc, indent=2)``, but
written by this module's own writer, which pays per byte rather than per
call: inside a list or dict each item is dispatched on its exact type (a
str or int is written in place, a dict or list by a direct call); a list
of only str or only int is joined in C; a list of more than eight records
(dicts) with one key sequence is written by columns, each field of all its
records in C passes; and in a column of more than eight lists each distinct
list is written once.
``--format tsv`` prints each of its records as one row
(``basis`` prefixes the index): a label gives two cells, c and the finite
components joined by ':'; a list one cell joined by ','; null an empty cell;
anything else its str.  ``table`` and ``wallcross`` keep their own layouts.

``main`` reads argv (``sys.argv[1:]`` when given none) into the namespace
of ``build_parser().parse_args(argv)``.  The plain form ``command datum
(--option value)*``, each option spelled in full and given once and no value
starting with '-', is read by ``_read`` from the options table that
``build_parser`` reads too, and builds no parser.  Help, errors and every
other spelling go to argparse, which builds the parser once per process:
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
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .errors import DatumFormatError, DomainError, EtaPowerRange
from .exact import format_rational, parse_rational
from .localization import WallCrossingReport, localized_report, report_to_doc, wall_note
from .quotient import Code, ValidatedDatum, datum_from_doc, sector_dim, validate_datum
from .ring import BasisElement, ChenRuanRing, CRClass, cr_class_to_doc, table_to_doc
from .selftest import selftest_to_doc

# perfbench/tracer.py looks these four up on cli until ROADMAP D12 lets modules move
from .selftest import _agreement_phase, _involution_phase, _obstruction_phase, run_selftest


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


def _elements(args, vd: ValidatedDatum) -> list[BasisElement]:
    """The element of each flag --t<i> with its --k<i>, every label resolved
    before any row is read; whether it exists is left to ``sector_row``."""
    flags = [(args.t1, args.k1), (args.t2, args.k2)]
    if "t3" in args:
        flags.append((args.t3, args.k3))
    return [BasisElement(_resolve(vd, t), k) for t, k in flags]


def _localized(args, vd: ValidatedDatum) -> WallCrossingReport:
    """The localized report of the request's elements, each row read once by
    ``sector_row`` with its eta power and no chamber: the report takes any k."""
    triple = tuple(_elements(args, vd))
    return localized_report(vd, triple, [vd.sector_row(t, None, k) for t, k in triple])


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
    return _json(doc, "") + "\n"


def _json(value, pad: str) -> str:
    """The indent-2 JSON text of ``value`` at indentation ``pad``, by
    ``isinstance``, so that str and int subclasses, bool and None render as
    ``json.dumps`` renders them.  ``_list`` joins the texts of its items from
    ``_texts``, which writes a column (the items of a list, or one field of
    its records) of only str or only int by one ``map``; of more than eight
    records with one key sequence by one ``%`` template, their quoted keys
    (``%`` doubled) each with a ``%s`` slot that the texts of its own column
    fill; of more than eight lists as ``[]`` if all are empty, else each
    distinct list (by id) once, joined in C if all hold only str or only int;
    and any other item by item on its exact type (dict and list by a direct
    call, anything else back here).  The loops are written out: before
    CPython 3.12 a comprehension makes the names it reads closure cells."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _list(value, pad)
    if isinstance(value, dict):
        return _dict(value, pad)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _texts(values, pad: str) -> Iterable[str]:
    """The texts of ``values`` at indentation ``pad``, by the rule of ``_json``."""
    types = set(map(type, values))
    kind = types.pop() if len(types) == 1 else None
    if kind is str or kind is int:
        return map(_quote if kind is str else int.__repr__, values)
    wide = len(values) > 8  # below about ten items a column costs more than it saves
    if wide and kind is dict and values[0] and len(set(map(tuple, values))) == 1:
        # one template for every record; a quoted key holds no raw newline
        keys = "\n".join(map(_quote, values[0])).replace("%", "%%")
        template = f"{{\n{pad}  " + keys.replace("\n", f": %s,\n{pad}  ") + f": %s\n{pad}}}"
        columns = map(_texts, zip(*map(dict.values, values)), repeat(pad + "  "))
        return map(template.__mod__, zip(*columns))
    if wide and kind is list:
        items = set(map(type, chain.from_iterable(values)))
        if not items:
            return ["[]"] * len(values)
        lists = dict(zip(map(id, values), values))  # a shared list is written once
        if all(values) and (items == {str} or items == {int}):
            texts = map(map, repeat(_quote if str in items else int.__repr__), lists.values())
            texts = map(f"[\n{pad}  %s\n{pad}]".__mod__, map(f",\n{pad}  ".join, texts))
        else:
            texts = map(_list, lists.values(), repeat(pad))
        return map(dict(zip(lists, texts)).__getitem__, map(id, values))
    texts = []
    for v in values:
        kind = type(v)
        if kind is str:
            texts.append(_quote(v))
        elif kind is int:
            texts.append(int.__repr__(v))
        elif kind is dict:
            texts.append(_dict(v, pad))
        elif kind is list:
            texts.append(_list(v, pad))
        else:
            texts.append(_json(v, pad))
    return texts


def _dict(value: dict, pad: str) -> str:
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
            text = _dict(v, inner)
        elif kind is list:
            text = _list(v, inner)
        else:
            text = _json(v, inner)
        items.append(f"{_quote(k)}: {text}")
    return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"


def _list(value, pad: str) -> str:
    if not value:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(_texts(value, inner)) + f"\n{pad}]"


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
    """The text of a numerator over ``d``, p/q in lowest terms or p when q
    is 1, as ``format_rational`` writes it, formatted once per distinct
    numerator for the life of the returned function."""
    def text(x: int) -> str:
        g = gcd(x, d)
        return str(x // g) if g == d else f"{x // g}/{d // g}"

    return cache(text)


def _label_doc(code: Code, text) -> dict:
    """The label cells of a sector code, c through ``text``."""
    return {"c": text(code[0]), "finite": list(code[1:])}


def _sector_records(d: int, rows: Iterable[tuple[Code, tuple[int, ...], int]]) -> list[dict]:
    """The records of sectors given as integer rows (code, theta numerators
    over D, fixed-set mask), as a sector table holds them; each distinct
    numerator over D is formatted once per call, and each distinct mask
    gives its fixed-set list and dim once, the list shared and read only."""
    text = _numerator_text(d)
    masks = cache(lambda mask, n: ([j for j in range(n) if mask >> j & 1], sector_dim(mask)))
    return [
        {
            "label": _label_doc(code, text),
            "fixed_set": fixed,
            "thetas": list(map(text, thetas)),
            "shift": text(sum(thetas)),
            "dim": dim,
        }
        for code, thetas, mask in rows
        for fixed, dim in [masks(mask, len(thetas))]
    ]


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
        {"sector": labels[s], "eta_power": k, "degree": text(2 * ring.degrees[start + k])}
        for s, (start, ks) in enumerate(zip(ring.start, ring.powers))
        for k in ks
    ]
    doc = {"basis": records}
    if args.format == "tsv":
        records = [{"index": i, **record} for i, record in enumerate(records)]
    return _records(args, "index c finite eta_power degree", records, doc), 0


def _classes(args, vd: ValidatedDatum) -> list[CRClass]:
    return list(map(CRClass.single, _elements(args, vd)))


def _cmd_pair(args, vd: ValidatedDatum) -> tuple[str, int]:
    return _value_output(args, ChenRuanRing(vd).pairing(*_classes(args, vd))), 0


def _cmd_cup(args, vd: ValidatedDatum) -> tuple[str, int]:
    records = cr_class_to_doc(ChenRuanRing(vd).cup(*_classes(args, vd)))
    return _records(args, "c finite eta_power coeff", records, records), 0


def _value_output(args, value: Fraction) -> str:
    if args.format == "tsv":
        return format_rational(value) + "\n"
    return _structured(format_rational(value))


def _cmd_triple(args, vd: ValidatedDatum) -> tuple[str, int]:
    if args.method == "direct":
        value = ChenRuanRing(vd).triple_direct(*_classes(args, vd))
    else:
        value = _localized(args, vd).value
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
    report = wall_note(vd, _localized(args, vd))
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


# the options that every command or every sector flag takes, as add_argument
# keywords; _options lists a command's, for build_parser and _read alike
_FORMAT = ("--format", {"choices": ("structured", "tsv"), "default": "structured"})
_OUT = ("--out", {"help": "write output to this file instead of stdout"})
_LABEL = {"required": True, "type": _sector_flag, "metavar": "c=p/q[,a=k1:k2:...]"}
_POWER = {"type": int, "default": 0, "metavar": "K"}

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


def _options(extras, flags) -> list[tuple[str, dict]]:
    """A command's options after its datum, as (flag, ``add_argument``
    keywords), in the order of its help page."""
    options = [_FORMAT, _OUT, *extras]
    for flag in flags:
        options.append((flag, _LABEL))
        if flag != "--t":
            options.append((flag.replace("--t", "--k"), _POWER))
    return options


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of all nine commands, built once per process."""
    parser = argparse.ArgumentParser(
        prog="crring",
        description="Exact Chen-Ruan cohomology of diagonal abelian quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, extras, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("datum", help="datum file (JSON: n, weights, finite, chamber)")
        for flag, options in _options(extras, flags):
            p.add_argument(flag, **options)
    return parser


# command -> flag -> add_argument keywords
_READER = {name: dict(_options(extras, flags)) for name, (_, _, extras, flags) in _COMMANDS.items()}


def _read(argv: list[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for the plain form ``command
    datum (--option value)*``, each option of the command's ``_options``
    spelled in full and given once, no value starting with '-', every value
    valid and every required option given; None for any other argv.  It
    never prints and never exits."""
    options = _READER.get(argv[0]) if argv else None
    if options is None or len(argv) % 2 or argv[1][:1] == "-":
        return None
    values = {"command": argv[0], "datum": argv[1]}
    for flag, text in zip(argv[2::2], argv[3::2]):
        option = options.get(flag)
        if option is None or flag[2:] in values or text[:1] == "-":
            return None
        try:
            value = option.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in option and value not in option["choices"]:
            return None
        values[flag[2:]] = value
    for flag, option in options.items():
        if flag[2:] not in values:
            if option.get("required"):
                return None
            values[flag[2:]] = option.get("default")
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``; the parser is built only for an
    argv that ``_read`` declines."""
    return _read(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        vd = _load(args.datum)
        text, code = _COMMANDS[args.command][0](args, vd)
    except (_UsageError, EtaPowerRange) as exc:
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
