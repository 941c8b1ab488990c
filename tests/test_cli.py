from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crring.cli import main, run_selftest
from crring import QuotientDatum, validate_datum

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


def test_a_named_command_builds_only_its_own_parser(datum_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = datum_file(WP112)
    assert run(capsys, "shift", path, "--t", "c=1/2")[0] == 0
    assert len(built) <= 2
    built.clear()
    assert run(capsys, "no-such-command", path)[0] == 2
    assert len(built) == 10  # the top level and all nine commands


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
