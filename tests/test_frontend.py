"""Front-end texts: the help pages, usage errors and load errors of the
command line must stay byte-identical.  Each case records the exit code,
stdout and stderr of one ``cli.main(argv)`` call, run from the root of the
checkout with ``COLUMNS=80`` so that argparse wraps at a fixed width.

The expected files live in ``tests/golden/frontend/`` as ``<case>.txt``.
A deliberate change re-records them with

    PYTHONPATH=src python tests/test_frontend.py

and ``PYTHONPATH=src python tests/test_frontend.py DIR`` writes them to DIR
instead, so that an interpreter without pytest can be checked with ``cmp``.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from crring import cli

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
FRONTEND = TESTS / "golden" / "frontend"
DATUM = "demos/data/wp112.datum"
COMMANDS = ("sectors", "shift", "basis", "pair", "cup", "triple", "table", "wallcross", "selftest")
CASES = {
    "help": ["--help"],
    "dash-h": ["-h"],
    **{f"{command}-help": [command, "--help"] for command in COMMANDS},
    "empty": [],
    "unknown-command": ["no-such-command", DATUM],
    "leading-option": ["--bogus", "sectors", DATUM],
    "missing-datum-argument": ["sectors"],
    "missing-datum-file": ["sectors", "demos/data/absent.datum"],
    "bad-t": ["shift", DATUM, "--t", "nonsense"],
    "non-int-k1": ["pair", DATUM, "--t1", "c=0", "--k1", "x", "--t2", "c=0"],
    "missing-method": ["triple", DATUM, "--t1", "c=0", "--t2", "c=0", "--t3", "c=0"],
    "format-xml": ["sectors", DATUM, "--format", "xml"],
    "extra-argument": ["shift", DATUM, "--t", "c=1/2", "extra"],
    "unknown-option": ["shift", DATUM, "--t", "c=1/2", "--bogus"],
}


def render(argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one request, as one document."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


def test_front_end_texts_match_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    changed = [
        name for name, argv in CASES.items()
        if render(argv) != (FRONTEND / f"{name}.txt").read_bytes()
    ]
    assert changed == []


if __name__ == "__main__":
    target = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else FRONTEND
    target.mkdir(parents=True, exist_ok=True)
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    for name, argv in CASES.items():
        (target / f"{name}.txt").write_bytes(render(argv))
    print(f"recorded {len(CASES)} files under {target}", file=sys.stderr)
