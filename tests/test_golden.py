"""Golden corpus: the structured and TSV output of ``table``, ``basis``,
``sectors`` and ``selftest`` on fixed data must stay byte-identical.

The expected files live in ``tests/golden/`` as ``<datum>.<command>.<ext>``.
A deliberate output change re-records them with

    PYTHONPATH=src python tests/test_golden.py

and the diff of the recorded files belongs in the same change.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from crring import cli

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
DEMOS = TESTS.parent / "demos" / "data"
DATA = {
    **{name: DEMOS / f"{name}.datum" for name in ("wp112", "wp122333", "z3_on_p2", "wall_11m1")},
    "p1_25": GOLDEN / "data" / "p1_25.datum",
    "z4_154": GOLDEN / "data" / "z4_154.datum",
}
COMMANDS = ("table", "basis", "sectors", "selftest")
FORMATS = {"structured": "json", "tsv": "tsv"}
CASES = [(name, command, fmt) for name in DATA for command in COMMANDS for fmt in FORMATS]


def golden_path(name: str, command: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{command}.{FORMATS[fmt]}"


def render(name: str, command: str, fmt: str, work: Path) -> bytes:
    out = work / f"{name}.{command}.{FORMATS[fmt]}"
    code = cli.main([command, str(DATA[name]), "--format", fmt, "--out", str(out)])
    assert code == 0, f"{command} on {name} exited {code}"
    return out.read_bytes()


@pytest.mark.parametrize("name,command,fmt", CASES, ids=["-".join(case) for case in CASES])
def test_output_matches_golden(name, command, fmt, tmp_path):
    assert render(name, command, fmt, tmp_path) == golden_path(name, command, fmt).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for case in CASES:
            golden_path(*case).write_bytes(render(*case, Path(work)))
    print(f"recorded {len(CASES)} files under {GOLDEN}", file=sys.stderr)
