"""Importing crring needs neither ``dataclasses`` nor ``typing``: no module
under ``src/crring`` imports either, and a fresh interpreter without site
packages loads neither ``dataclasses`` nor the ``inspect`` module it pulls
in, nor ``pathlib``, when it imports ``crring`` and ``crring.cli``.  The
library import alone loads no command line: ``crring`` takes ``run_selftest``
from ``crring.selftest``, so neither ``crring.cli`` nor its ``argparse`` and
``json`` load with it."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import crring
import crring.cli
import crring.selftest

SRC = Path(__file__).resolve().parents[1] / "src"


def _imported(path: Path) -> set[str]:
    """The top-level names of the absolute imports of a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses_or_typing():
    paths = sorted((SRC / "crring").glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        assert not _imported(path) & {"dataclasses", "typing"}, path.name


def _fresh_import_loads(names: set[str], imports: str = "crring, crring.cli") -> str:
    """The sorted list of those of ``names`` that a fresh ``python -S`` has
    loaded after ``import`` of ``imports``, as printed."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {imports}; "
        f"print(sorted(set({sorted(names)!r}) & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


def test_a_fresh_import_loads_no_dataclasses():
    assert _fresh_import_loads({"dataclasses", "inspect"}) == "[]\n"


def test_a_fresh_import_loads_no_pathlib():
    # the datum is read and --out written through open(); pathlib would pull
    # in urllib.parse and ipaddress at start-up
    assert _fresh_import_loads({"pathlib"}) == "[]\n"


def test_the_library_import_loads_no_command_line():
    assert _fresh_import_loads({"crring.cli", "argparse", "json"}, "crring") == "[]\n"


def test_run_selftest_is_one_function_under_every_name():
    assert crring.run_selftest is crring.selftest.run_selftest is crring.cli.run_selftest


def test_the_package_exports_its_names_and_no_submodule():
    assert crring.__all__ == [
        "BasisElement", "CRClass", "ChenRuanRing", "DatumFormatError", "DomainError",
        "EmptySector", "EtaPowerRange", "FiniteCyclicFactor", "IneffectiveAction", "NonComposable",
        "PhaseResult", "QuotientDatum", "SectorInfo", "SectorLabel", "SelfTestReport",
        "StructureTable", "ValidatedDatum", "WallCrossingReport", "ZeroWeight",
        "cr_class_from_doc", "cr_class_to_doc", "datum_from_doc", "datum_to_doc",
        "format_rational", "frac_part", "label_from_doc", "label_to_doc",
        "localized_residue", "obstruction_rank_oracle", "parse_rational", "run_selftest",
        "table_from_doc", "table_to_doc", "triple_localized", "validate_datum",
        "wall_crossing_delta",
    ]
