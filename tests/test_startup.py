"""Importing crring needs neither ``dataclasses`` nor ``typing``: no module
under ``src/crring`` imports either, and a fresh interpreter without site
packages loads neither ``dataclasses`` nor the ``inspect`` module it pulls
in, nor ``pathlib``, when it imports ``crring`` and ``crring.cli``."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

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


def _fresh_import_loads(names: set[str]) -> str:
    """The sorted list of those of ``names`` that a fresh ``python -S`` has
    loaded after importing ``crring`` and ``crring.cli``, as printed."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import crring, crring.cli; "
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
