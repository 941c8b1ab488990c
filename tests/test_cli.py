from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from crring import cli
from crring.cli import build_parser, main
from crring import (
    BasisElement,
    ChenRuanRing,
    CRClass,
    QuotientDatum,
    ValidatedDatum,
    run_selftest,
    validate_datum,
)
from test_frontend import CASES as FRONT_END
from test_golden import CASES as GOLDEN, DATA, point_flags

WP122333 = {"n": 6, "weights": [1, 2, 2, 3, 3, 3], "finite": [], "chamber": "positive"}
WP112 = {"n": 3, "weights": [1, 1, 2], "finite": [], "chamber": "positive"}
MIXED = {"n": 3, "weights": [1, 1, -1], "finite": [], "chamber": "positive"}


@pytest.fixture
def datum_file(tmp_path):
    def write(doc, name="input.datum"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sectors_table_contains_age(datum_file, capsys):
    path = datum_file(WP122333)
    code, out, _ = run(capsys, "sectors", path)
    assert code == 0
    doc = json.loads(out)
    shifts = [s["shift"] for s in doc["sectors"]]
    assert "5/3" in shifts
    assert [s["label"]["c"] for s in doc["sectors"]] == ["0", "1/3", "1/2", "2/3"]

    code, out, _ = run(capsys, "sectors", path, "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0].split("\t") == ["c", "finite", "fixed_set", "thetas", "shift", "dim"]
    assert any("5/3" in line.split("\t") for line in out.splitlines()[1:])


def test_shift_command(datum_file, capsys):
    code, out, _ = run(capsys, "shift", datum_file(WP122333), "--t", "c=1/3")
    assert code == 0
    doc = json.loads(out)
    assert doc["shift"] == "5/3"
    assert doc["fixed_set"] == [3, 4, 5]


def test_triple_both_methods(datum_file, capsys):
    path = datum_file(WP122333)
    base = ["triple", path, "--t1", "c=1/3", "--k1", "0", "--t2", "c=1/3",
            "--k2", "0", "--t3", "c=1/3", "--k3", "0"]
    for method in ("direct", "localization"):
        code, out, _ = run(capsys, *base, "--method", method)
        assert code == 0
        assert out == '"4/27"\n'


def test_triple_direct_wp112(datum_file, capsys):
    code, out, _ = run(
        capsys, "triple", datum_file(WP112), "--method", "direct",
        "--t1", "c=1/2", "--t2", "c=1/2", "--t3", "c=0",
    )
    assert code == 0
    assert out == '"1/2"\n'


def test_pair_and_cup(datum_file, capsys):
    path = datum_file(WP112)
    code, out, _ = run(capsys, "pair", path, "--t1", "c=1/2", "--t2", "c=1/2")
    assert code == 0
    assert out == '"1/2"\n'
    code, out, _ = run(capsys, "cup", path, "--t1", "c=1/2", "--t2", "c=1/2")
    assert code == 0
    assert json.loads(out) == [
        {"sector": {"c": "0", "finite": []}, "eta_power": 2, "coeff": "1"}
    ]


def test_basis_command(datum_file, capsys):
    code, out, _ = run(capsys, "basis", datum_file(WP122333))
    assert code == 0
    records = json.loads(out)["basis"]
    assert len(records) == 14
    assert records[6] == {"sector": {"c": "1/3", "finite": []}, "eta_power": 0, "degree": "10/3"}


def test_table_reemission_is_byte_identical(datum_file, capsys):
    path = datum_file(WP122333)
    code, first, _ = run(capsys, "table", path)
    assert code == 0
    code, second, _ = run(capsys, "table", path)
    assert first == second
    reemitted = json.dumps(json.loads(first), indent=2) + "\n"
    assert reemitted == first


def test_wallcross_mixed(datum_file, capsys):
    path = datum_file(MIXED)
    code, out, _ = run(
        capsys, "wallcross", path,
        "--t1", "c=0", "--k1", "1", "--t2", "c=0", "--k2", "1", "--t3", "c=0", "--k3", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "-1"
    assert doc["degree_check"] == -1
    assert doc["side_existence"] == {"positive": [True] * 3, "negative": [True] * 3}
    assert "note" not in doc


def test_wallcross_positive_only_notes_empty_side(datum_file, capsys):
    code, out, _ = run(
        capsys, "wallcross", datum_file(WP122333),
        "--t1", "c=1/3", "--t2", "c=1/3", "--t3", "c=1/3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "4/27"
    assert "negative chamber is empty" in doc["note"]


def test_wallcross_negative_only_notes_the_sign(datum_file, capsys):
    # on the negative side (-1,-1,-1) is P^2, where the integral of H^2 is +1;
    # by Res = int_+ - int_-, the delta is minus it
    negative = {"n": 3, "weights": [-1, -1, -1], "finite": [], "chamber": "negative"}
    code, out, _ = run(
        capsys, "wallcross", datum_file(negative),
        "--t1", "c=0", "--k1", "2", "--t2", "c=0", "--t3", "c=0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "-1"
    assert doc["note"] == (
        "positive chamber is empty: the delta equals minus the negative-side 3-point function"
    )


def test_selftest_passes(datum_file, capsys):
    code, out, _ = run(capsys, "selftest", datum_file(WP112))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert {p["name"] for p in doc["phases"]} == {
        "ring_axioms", "sector_involution", "obstruction_oracle", "path_agreement",
    }


def test_selftest_mixed_runs_per_chamber(datum_file, capsys):
    code, out, _ = run(capsys, "selftest", datum_file(MIXED))
    assert code == 0
    doc = json.loads(out)
    names = [p["name"] for p in doc["phases"]]
    assert "ring_axioms[positive]" in names
    assert "ring_axioms[negative]" in names
    agreement = next(p for p in doc["phases"] if p["name"] == "path_agreement")
    assert agreement["status"] == "skipped"
    assert agreement["detail"]


def test_domain_error_exit_code(datum_file, capsys):
    code, out, err = run(capsys, "shift", datum_file(WP122333), "--t", "c=1/6")
    assert code == 1
    assert out == ""
    assert err.startswith("EmptySector:")

    code, _, err = run(capsys, "sectors", datum_file({"n": 2, "weights": [2, 2], "finite": [], "chamber": "positive"}))
    assert code == 1
    assert err.startswith("IneffectiveAction:")


def test_usage_error_exit_codes(datum_file, capsys):
    path = datum_file(WP122333)
    assert run(capsys, "shift", path, "--t", "nonsense")[0] == 2
    assert run(capsys, "no-such-command", path)[0] == 2
    assert run(capsys, "triple", path, "--method", "direct", "--t1", "c=1/3",
               "--t2", "c=1/3", "--t3", "c=1/3,a=1")[0] == 2  # finite part mismatch


def test_missing_or_malformed_file(tmp_path, capsys):
    code, _, err = run(capsys, "sectors", str(tmp_path / "absent.datum"))
    assert code == 1
    assert err.startswith("DatumFormatError:")
    bad = tmp_path / "bad.datum"
    bad.write_text("{not json")
    assert run(capsys, "sectors", str(bad))[0] == 1
    binary = tmp_path / "binary.datum"
    binary.write_bytes(b"\xff\xfe")  # no UTF-8 text: refused, not a traceback
    code, _, err = run(capsys, "shift", str(binary), "--t", "c=0")
    assert code == 1
    assert err.startswith("DatumFormatError: datum file is not UTF-8 text:")
    assert err.count("\n") == 1


def test_out_flag_writes_file(datum_file, tmp_path, capsys):
    target = tmp_path / "sectors.json"
    code, out, _ = run(capsys, "sectors", datum_file(WP112), "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["sectors"][1]["shift"] == "1"


def test_shipped_datum_files_parse(capsys):
    data_dir = Path(__file__).resolve().parent.parent / "demos" / "data"
    for path in sorted(data_dir.glob("*.datum")):
        code, out, _ = run(capsys, "sectors", str(path))
        assert code == 0, path
        assert json.loads(out)["sectors"], path


def test_finite_component_flags(datum_file, capsys):
    z3 = {
        "n": 3,
        "weights": [1, 1, 1],
        "finite": [{"order": 3, "phases": [0, 1, 2]}],
        "chamber": "positive",
    }
    path = datum_file(z3)
    code, out, _ = run(capsys, "shift", path, "--t", "c=0,a=1")
    assert code == 0
    doc = json.loads(out)
    assert doc["fixed_set"] == [0]
    assert doc["shift"] == "1"
    code, out, _ = run(
        capsys, "triple", path, "--method", "localization",
        "--t1", "c=0,a=1", "--t2", "c=0,a=1", "--t3", "c=0,a=1",
    )
    assert code == 0
    assert out == '"0"\n'  # degree-short triple: collapsed power is 0, not -1
    code, _, err = run(
        capsys, "triple", path, "--method", "localization",
        "--t1", "c=0,a=1", "--t2", "c=0,a=1", "--t3", "c=0,a=2",
    )
    assert code == 1
    assert err.startswith("NonComposable:")


def test_selftest_tsv(datum_file, capsys):
    code, out, _ = run(capsys, "selftest", datum_file(WP112), "--format", "tsv")
    assert code == 0
    lines = [line.split("\t") for line in out.splitlines()]
    assert lines[0] == ["phase", "status", "detail"]
    assert all(row[1] == "pass" for row in lines[1:])


def test_run_selftest_counts_triples():
    vd = validate_datum(QuotientDatum((1, 1, 2)))
    report = run_selftest(vd)
    agreement = next(p for p in report.phases if p.name == "path_agreement")
    assert agreement.status == "pass"
    assert "36" in agreement.detail


def test_eta_power_outside_the_fixed_set_is_a_usage_error(datum_file, capsys):
    path = datum_file(WP112)
    code, out, err = run(capsys, "pair", path, "--t1", "c=0", "--k1", "-1", "--t2", "c=0", "--k2", "3")
    assert (code, out) == (2, "")
    assert err.startswith("usage error:")
    for method in ("direct", "localization"):
        code, out, _ = run(
            capsys, "triple", path, "--method", method,
            "--t1", "c=0", "--k1", "-5", "--t2", "c=0", "--t3", "c=0",
        )
        assert (code, out) == (2, "")
    # c=1/2 fixes one coordinate, so its only eta power is 0
    assert run(capsys, "cup", path, "--t1", "c=1/2", "--k1", "1", "--t2", "c=0")[0] == 2
    assert run(
        capsys, "wallcross", path, "--t1", "c=0", "--k1", "3", "--t2", "c=0", "--t3", "c=0"
    )[0] == 2


def test_both_paths_refuse_a_label_that_fixes_nothing(datum_file, capsys):
    path = datum_file(WP112)
    thirds = ["--t1", "c=1/3", "--t2", "c=1/3", "--t3", "c=1/3"]
    for command in (["triple", path, "--method", "localization"],
                    ["triple", path, "--method", "direct"],
                    ["wallcross", path]):
        code, out, err = run(capsys, *command, *thirds)
        assert (code, out) == (1, "")
        assert err.startswith("EmptySector:")


def test_shift_refuses_a_label_that_fixes_only_the_other_side(datum_file, capsys):
    # on weights (1, -2), c=1/2 fixes only the coordinate of weight -2
    doc = {"n": 2, "weights": [1, -2], "finite": [], "chamber": "positive"}
    code, out, err = run(capsys, "shift", datum_file(doc), "--t", "c=1/2")
    assert (code, out) == (1, "")
    assert err == "EmptySector: c=1/2 has no fixed coordinate on the positive side of the wall\n"
    doc["chamber"] = "negative"
    code, out, _ = run(capsys, "shift", datum_file(doc), "--t", "c=1/2")
    assert code == 0
    assert json.loads(out)["fixed_set"] == [1]


def test_selftest_checks_the_other_chamber_when_its_own_is_empty(datum_file, capsys):
    doc = {"n": 2, "weights": [1, 1], "finite": [], "chamber": "negative"}
    code, out, _ = run(capsys, "selftest", datum_file(doc))
    assert code == 0
    phases = {p["name"]: p for p in json.loads(out)["phases"]}
    assert set(phases) == {
        "ring_axioms[positive]", "sector_involution[positive]",
        "obstruction_oracle[positive]", "path_agreement",
    }
    assert phases["path_agreement"]["status"] == "skipped"
    assert phases["path_agreement"]["detail"] == "the negative chamber of this datum is empty"


def test_selftest_compares_paths_on_all_negative_weights(datum_file, capsys):
    doc = {"n": 3, "weights": [-1, -2, -2], "finite": [], "chamber": "negative"}
    code, out, _ = run(capsys, "selftest", datum_file(doc))
    assert code == 0
    phases = {p["name"]: p for p in json.loads(out)["phases"]}
    assert phases["path_agreement"]["status"] == "pass"
    code, out, _ = run(capsys, "selftest", datum_file(MIXED))
    skipped = next(p for p in json.loads(out)["phases"] if p["name"] == "path_agreement")
    assert "both sides of the wall are noncompact" in skipped["detail"]


def test_python_dash_m_crring_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-m", "crring", "selftest", str(root / "demos" / "data" / "wp112.datum")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert json.loads(done.stdout)["passed"] is True


def test_out_flag_that_cannot_be_written_is_a_usage_error(datum_file, tmp_path, capsys):
    path = datum_file(WP112)
    for target in (tmp_path, tmp_path / "absent" / "sectors.json"):
        code, out, err = run(capsys, "sectors", path, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: cannot write output file: ")
        assert err.count("\n") == 1


def test_empty_datum_and_out_paths(datum_file, capsys):
    """An empty datum path names no file (``open('')``, not ``Path('')``, the
    current directory); an empty ``--out`` is no file to write, so the
    output goes to stdout."""
    code, out, err = run(capsys, "sectors", "")
    assert (code, out) == (1, "")
    assert err == "DatumFormatError: cannot read datum file: [Errno 2] No such file or directory: ''\n"
    path = datum_file(WP112)
    code, out, err = run(capsys, "sectors", path, "--out", "")
    assert (code, out, err) == (0, run(capsys, "sectors", path)[1], "")


def test_datum_path_is_opened_as_given(datum_file, capsys):
    # no normalizing: a trailing slash names a directory, and an error
    # quotes the path as typed
    path = datum_file(WP112)
    code, _, err = run(capsys, "sectors", path + "/")
    assert code == 1
    assert err.endswith(f"Not a directory: {path + '/'!r}\n")
    absent = path.replace("input.datum", ".//absent.datum")
    assert run(capsys, "sectors", absent)[2].endswith(f"No such file or directory: {absent!r}\n")


def test_the_parser_is_built_once_and_reused(datum_file, monkeypatch, capsys):
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = datum_file(WP112)
    requests = [
        (["shift", path, "--t", "c=1/2"], 0),
        (["shift", path, "--t", "nonsense"], 2),
        (["--help"], 0),
        (["no-such-command", path], 2),
        (["pair", path, "--t1", "c=1/2", "--t2", "c=1/2"], 0),
    ]
    counts = []
    for argv, code in requests:
        built.clear()
        assert run(capsys, *argv)[0] == code
        counts.append(len(built))
    # a well-formed request builds none; the first that _read declines builds
    # the top level and all nine commands, once
    assert counts == [0, 10, 0, 0, 0]


def test_each_request_rereads_its_datum(datum_file, capsys):
    path = datum_file(WP112)
    code, out, _ = run(capsys, "sectors", path)
    assert code == 0
    assert len(json.loads(out)["sectors"]) == 2
    datum_file(WP122333)  # same path, new content
    code, out, _ = run(capsys, "sectors", path)
    assert code == 0
    assert len(json.loads(out)["sectors"]) == 4


def test_main_reads_sys_argv_when_given_no_argv(datum_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["crring", "shift", datum_file(WP112), "--t", "c=1/2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["shift"] == "1"


def test_no_sector_table_is_built_to_test_a_chamber_for_emptiness(datum_file, monkeypatch, capsys):
    built = []
    build = ValidatedDatum._build_table

    def counting_build(self, chamber):
        built.append(chamber)
        return build(self, chamber)

    monkeypatch.setattr(ValidatedDatum, "_build_table", counting_build)
    path = datum_file(WP112)
    for argv, tables in (
        (["wallcross", path, "--t1", "c=1/2", "--t2", "c=1/2", "--t3", "c=0"], []),
        (["selftest", path], ["positive"]),
        (["pair", path, "--t1", "c=1/2", "--t2", "c=1/2"], []),
    ):
        built.clear()
        assert run(capsys, *argv)[0] == 0
        assert built == tables, argv


class _TableBuilt(Exception):
    pass


def test_point_requests_answer_without_a_sector_table(datum_file, monkeypatch, capsys):
    """With no sector table to be had, ``pair``, ``cup`` and ``triple
    --method direct`` answer through ``main``, and ``pairing_basis``,
    ``cup_basis`` and ``triple_direct`` through the ring, on P(1,10^6),
    whose table holds 10^6 sectors, and on P(1,2,2,3,3,3); ``sectors``,
    ``basis``, ``table`` and ``selftest`` still build the table."""
    def refuse(vd, chamber):
        raise _TableBuilt(chamber)

    monkeypatch.setattr(ValidatedDatum, "_build_table", refuse)
    big = {"n": 2, "weights": [1, 1000000], "finite": [], "chamber": "positive"}
    top, low, high = "c=0", "c=1/1000000", "c=999999/1000000"
    cases = {
        datum_file(big, "big.datum"): [
            (["pair", "--t1", low, "--t2", high], '"1/1000000"\n'),
            (["pair", "--t1", low, "--t2", low], '"0"\n'),
            (["cup", "--t1", low, "--t2", high], [{"c": "0", "eta_power": 1, "coeff": "1"}]),
            (["cup", "--t1", low, "--t2", low], [{"c": "1/500000", "eta_power": 0, "coeff": "1"}]),
            (["cup", "--t1", top, "--k1", "1", "--t2", top, "--k2", "1"], []),
            (["triple", "--method", "direct", "--t1", low, "--t2", high, "--t3", top],
             '"1/1000000"\n'),
        ],
        datum_file(WP122333): [
            (["pair", "--t1", "c=1/3", "--t2", "c=2/3", "--k2", "2"], '"1/27"\n'),
            (["cup", "--t1", "c=1/3", "--t2", "c=1/3"],
             [{"c": "2/3", "eta_power": 2, "coeff": "4"}]),
            (["cup", "--t1", "c=1/3", "--t2", "c=1/2"], []),
            (["triple", "--method", "direct", "--t1", "c=1/3", "--t2", "c=1/3", "--t3", "c=1/3"],
             '"4/27"\n'),
        ],
    }
    for path, requests in cases.items():
        for (command, *flags), expected in requests:
            code, out, err = run(capsys, command, path, *flags)
            assert (code, err) == (0, ""), (command, flags)
            if command == "cup":
                out = [{"c": t["sector"]["c"], "eta_power": t["eta_power"], "coeff": t["coeff"]}
                       for t in json.loads(out)]
            assert out == expected, (command, flags)
        for command in ("sectors", "basis", "table", "selftest"):
            with pytest.raises(_TableBuilt):
                main([command, path])
    vd = validate_datum(QuotientDatum((1, 1000000)))
    ring, step = ChenRuanRing(vd), Fraction(1, 1000000)
    low, high = BasisElement(vd.label(step), 0), BasisElement(vd.label(1 - step), 0)
    assert ring.pairing_basis(low, high) == step
    assert ring.pairing_basis(low, low) == 0
    assert ring.cup_basis(low, high) == (1, BasisElement(vd.identity(), 1))
    assert ring.cup_basis(low, low) == (1, BasisElement(vd.label(2 * step), 0))
    classes = [CRClass.single(e) for e in (low, high, BasisElement(vd.identity(), 0))]
    assert ring.triple_direct(*classes) == step
    vd = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
    ring = ChenRuanRing(vd)
    third, two_thirds = (BasisElement(vd.label(Fraction(k, 3)), 0) for k in (1, 2))
    assert ring.pairing_basis(third, two_thirds._replace(k=2)) == Fraction(1, 27)
    assert ring.cup_basis(third, third) == (4, two_thirds._replace(k=2))
    cube_root = CRClass.single(third)
    assert ring.triple_direct(cube_root, cube_root, cube_root) == Fraction(4, 27)


def test_localized_requests_read_each_row_once(datum_file, monkeypatch, capsys):
    """``triple --method localization`` and ``wallcross`` read each label's
    row once, by ``sector_row`` with its eta power and no chamber, and hand
    those rows to the localized report: 3 reads for 3 labels on P(1,10^5)."""
    sector_row, reads = ValidatedDatum.sector_row, []

    def counted(vd, t, chamber=None, k=None):
        reads.append((str(t), chamber, k))
        return sector_row(vd, t, chamber, k)

    monkeypatch.setattr(ValidatedDatum, "sector_row", counted)
    path = datum_file({"n": 2, "weights": [1, 100000], "finite": [], "chamber": "positive"})
    flags = ["--t1", "c=1/100000", "--t2", "c=99999/100000", "--t3", "c=0", "--k3", "1"]
    for command, printed in (
        (["triple", "--method", "localization"], '"0"'),
        (["wallcross", "--format", "tsv"], "value\t0"),
    ):
        reads.clear()
        code, out, err = run(capsys, command[0], path, *command[1:], *flags)
        assert (code, err, out.splitlines()[0]) == (0, "", printed), command
        assert reads == [("c=1/100000", None, 0), ("c=99999/100000", None, 0), ("c=0", None, 1)]


def test_a_zero_factor_hides_no_bad_label_and_every_label_is_read_first(datum_file, capsys):
    """On P(1,1,2) the first two classes of this ``triple --method direct``
    multiply to 0, and its third label, which fixes no coordinate, is still
    refused.  Every label command reads all of its labels before any row,
    so a second label with a finite component too many is a usage error
    ahead of a first label that fixes no coordinate."""
    path = datum_file(WP112)
    triple = ["--method", "direct", "--t1", "c=1/2", "--t2", "c=0", "--k2", "2", "--t3", "c=1/5"]
    assert run(capsys, "triple", path, *triple) == (1, "", "EmptySector: c=1/5 fixes no coordinate\n")
    flags = ["--t1", "c=1/5", "--t2", "c=0,a=1"]
    usage = (2, "", "usage error: label has 1 finite components, datum has 0\n")
    for command in (["pair"], ["cup"], ["triple", "--method", "direct"],
                    ["triple", "--method", "localization"], ["wallcross"]):
        third = ["--t3", "c=0"] if command[0] in ("triple", "wallcross") else []
        assert run(capsys, command[0], path, *command[1:], *flags, *third) == usage, command


def test_point_requests_build_no_basis_tuple(datum_file, monkeypatch, capsys):
    """A direct-path point request builds no sector table, so neither the
    basis tuple and degrees of its ring nor any labels, and ``sectors`` and
    ``basis`` write their records from the table's integer rows without
    labels (``basis`` reads the degrees); ``table`` and ``selftest`` build
    them all.  No command builds a ``SectorInfo`` view."""
    rings, tables, views = [], [], []
    init, build, info = ChenRuanRing.__init__, ValidatedDatum._build_table, ValidatedDatum._info

    def recording_init(self, *args):
        init(self, *args)
        rings.append(self)

    def recording_build(self, chamber):
        tables.append(build(self, chamber))
        return tables[-1]

    def recording_info(self, *args):
        views.append(args)
        return info(self, *args)

    monkeypatch.setattr(ChenRuanRing, "__init__", recording_init)
    monkeypatch.setattr(ValidatedDatum, "_build_table", recording_build)
    monkeypatch.setattr(ValidatedDatum, "_info", recording_info)
    path = datum_file(WP122333)
    point = [path, "--t1", "c=1/3", "--t2", "c=2/3"]
    # per command: (sector table, basis tuple, degrees, labels) built
    for argv, built in (
        (["pair", *point], (False, False, False, False)),
        (["cup", *point], (False, False, False, False)),
        (["triple", *point, "--t3", "c=0", "--method", "direct"], (False, False, False, False)),
        (["basis", path], (True, False, True, False)),
        (["sectors", path], (True, False, False, False)),
        (["table", path], (True, True, True, True)),
        (["selftest", path], (True, True, True, True)),
    ):
        rings.clear()
        tables.clear()
        assert run(capsys, *argv)[0] == 0
        assert bool(tables) == built[0], argv
        assert rings or argv[0] == "sectors", argv
        for ring in rings:
            assert ("_basis" in vars(ring), "degrees" in vars(ring)) == built[1:3], argv
        for table in tables:
            assert ("labels" in vars(table)) == built[3], argv
    for argv in (
        ["shift", path, "--t", "c=1/3"],
        ["triple", *point, "--t3", "c=0", "--method", "localization"],
        ["wallcross", *point, "--t3", "c=0"],
    ):
        assert run(capsys, *argv)[0] == 0
    assert views == []


def test_each_command_parser_gives_the_top_level_namespace(tmp_path, monkeypatch, capsys):
    """``main`` hands each command argparse's reading of the request, whether
    ``_read`` or the parser reads it.  On every golden request and front-end
    case, the handler receives the namespace of
    ``build_parser().parse_args(argv)``, and a request that parser refuses
    exits with its code and reaches no handler; the front-end texts pin what
    the refusals print."""
    received = []

    def recording_handler(args, vd):
        received.append(vars(args))
        return "", 0

    monkeypatch.setattr(cli, "_load", lambda path: None)
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, (recording_handler, *cli._COMMANDS[name][1:]))
    out = str(tmp_path / "out")
    requests = [
        [command.partition("_")[0], str(DATA[name]), *point_flags(name, command),
         "--format", fmt, "--out", out]
        for name, command, fmt in GOLDEN
    ]
    for argv in [*requests, *FRONT_END.values()]:
        try:
            expected, code = vars(build_parser().parse_args(argv)), 0
        except SystemExit as exc:
            expected, code = None, exc.code
        received.clear()
        assert main(list(argv)) == code, argv
        assert received == ([] if expected is None else [expected]), argv
    capsys.readouterr()
    # with no argument, main reads sys.argv[1:], left-over arguments included
    shift = ["shift", str(DATA["wp112"]), "--t", "c=1/2"]
    for tail, code, namespaces in (
        ([], 0, [vars(build_parser().parse_args(shift))]),
        (["extra"], 2, []),
    ):
        received.clear()
        monkeypatch.setattr(sys, "argv", ["crring", *shift, *tail])
        assert main() == code
        assert received == namespaces
    assert "unrecognized arguments: extra" in capsys.readouterr().err
