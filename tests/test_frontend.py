"""Front-end texts: the help pages, usage errors, load errors and domain
refusals of the command line must stay byte-identical.  Each case records the exit code,
stdout and stderr of one ``cli.main(argv)`` call, run from the root of the
checkout with ``COLUMNS=80`` so that argparse wraps at a fixed width.

The expected files live in ``tests/golden/frontend/`` as ``<case>.txt``.
Where a case's text refuses a value that is not among an argument's
choices, the file holds ``REFUSAL`` in place of argparse's words, and the
expected text takes them from the running interpreter: newer CPython patch
releases list the choices unquoted.
A deliberate change re-records them with

    PYTHONPATH=src python tests/test_frontend.py

and ``PYTHONPATH=src python tests/test_frontend.py DIR`` writes them to DIR
instead, so that an interpreter without pytest can be checked with ``cmp``.
"""

from __future__ import annotations

import argparse
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
WALL = "tests/golden/data/wall_1m2.datum"  # weights (1, -2), positive chamber
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
    "pair-empty-sector": ["pair", DATUM, "--t1", "c=1/5", "--t2", "c=4/5"],
    "triple-empty-sector": [
        "triple", DATUM, "--t1", "c=1/5", "--t2", "c=4/5", "--t3", "c=0",
        "--method", "localization",
    ],
    "shift-other-side": ["shift", WALL, "--t", "c=1/2"],
    "triple-non-composable": [
        "triple", DATUM, "--t1", "c=1/2", "--t2", "c=0", "--t3", "c=0",
        "--method", "localization",
    ],
    "pair-eta-power-out-of-range": ["pair", DATUM, "--t1", "c=0", "--k1", "3", "--t2", "c=0"],
}


# case -> (argument, its choices, the value refused)
CHOICES = {
    "unknown-command": ("command", tuple(cli._COMMANDS), "no-such-command"),
    "format-xml": ("--format", cli._FORMAT[1]["choices"], "xml"),
}
REFUSAL = b"<argparse refusal>"


def refusal(name: str) -> bytes:
    """The running interpreter's argparse refusal of the value of case
    ``name``, from a throwaway parser with the same choices."""
    argument, choices, value = CHOICES[name]
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument(argument, choices=choices)
    try:
        parser.parse_args([argument, value] if argument.startswith("-") else [value])
    except argparse.ArgumentError as exc:
        return str(exc).encode()
    raise AssertionError(f"{value!r} is among the choices of {argument}")


def expected(name: str) -> bytes:
    text = (FRONTEND / f"{name}.txt").read_bytes()
    return text.replace(REFUSAL, refusal(name)) if name in CHOICES else text


def render(argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one request, as one document."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


ORDERS = {"recorded": list(CASES), "reversed": list(CASES)[::-1]}


def pytest_generate_tests(metafunc):
    # a module-level hook rather than a decorator: recording needs no pytest
    metafunc.parametrize("order", ORDERS)


def test_front_end_texts_match_golden(monkeypatch, order):
    # every case in one process, through the one parser the process builds:
    # no help page, usage error or refusal may change a later request's text
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    changed = [name for name in ORDERS[order] if render(CASES[name]) != expected(name)]
    assert changed == []


if __name__ == "__main__":
    target = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else FRONTEND
    target.mkdir(parents=True, exist_ok=True)
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    for name, argv in CASES.items():
        text = render(argv)
        if name in CHOICES:
            text = text.replace(refusal(name), REFUSAL)
        (target / f"{name}.txt").write_bytes(text)
    print(f"recorded {len(CASES)} files under {target}", file=sys.stderr)
