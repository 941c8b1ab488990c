"""Golden corpus: the structured and TSV output of every command on fixed
data must stay byte-identical.  The whole-datum commands (``table``,
``basis``, ``sectors``, ``selftest``) take no flags; the point commands
(``shift``, ``pair``, ``cup``, ``triple`` by both methods, ``wallcross``)
take the fixed flags of ``POINTS``.

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
# per datum: a non-identity sector (wall_11m1's positive chamber has only
# the identity), its inverse at its top eta power, and a composable triple
# with a nonzero 3-point function
POINTS = {
    "wp112": ("c=1/2", ("c=1/2", 0), [("c=1/2", 0), ("c=1/2", 0), ("c=0", 0)]),
    "wp122333": ("c=1/3", ("c=2/3", 2), [("c=1/3", 0), ("c=1/3", 0), ("c=1/3", 0)]),
    "z3_on_p2": (
        "c=1/3,a=1",
        ("c=2/3,a=2", 0),
        [("c=1/3,a=1", 0), ("c=2/3,a=2", 0), ("c=0,a=0", 0)],
    ),
    "wall_11m1": ("c=0", ("c=0", 2), [("c=0", 1), ("c=0", 1), ("c=0", 0)]),
    "p1_25": ("c=1/25", ("c=24/25", 0), [("c=1/25", 0), ("c=1/25", 0), ("c=23/25", 0)]),
    "z4_154": (
        "c=1/10,a=1",
        ("c=9/10,a=3", 0),
        [("c=0,a=2", 0), ("c=1/10,a=1", 0), ("c=9/10,a=1", 0)],
    ),
}
COMMANDS = (
    "table",
    "basis",
    "sectors",
    "selftest",
    "shift",
    "pair",
    "cup",
    "triple_direct",
    "triple_localization",
    "wallcross",
)
FORMATS = {"structured": "json", "tsv": "tsv"}
CASES = [(name, command, fmt) for name in DATA for command in COMMANDS for fmt in FORMATS]


def golden_path(name: str, command: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{command}.{FORMATS[fmt]}"


def point_flags(name: str, command: str) -> list[str]:
    """The flags of a point command on ``name``; none for the others."""
    sector, (inverse, top), triple = POINTS[name]
    if command == "shift":
        return ["--t", sector]
    if command == "pair":
        return ["--t1", sector, "--t2", inverse, "--k2", str(top)]
    if command == "cup":
        triple = triple[:2]
    elif command not in ("wallcross", "triple_direct", "triple_localization"):
        return []
    flags = [x for i, (t, k) in enumerate(triple, 1) for x in (f"--t{i}", t, f"--k{i}", str(k))]
    if command.startswith("triple_"):
        flags += ["--method", command.partition("_")[2]]
    return flags


def render(name: str, command: str, fmt: str, work: Path) -> bytes:
    out = work / f"{name}.{command}.{FORMATS[fmt]}"
    argv = [command.partition("_")[0], str(DATA[name]), *point_flags(name, command)]
    code = cli.main([*argv, "--format", fmt, "--out", str(out)])
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
