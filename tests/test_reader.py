"""``cli._read`` is argparse on its domain.  It reads the plain form
``command datum (--option value)*`` into the namespace that
``build_parser().parse_args(argv)`` gives, and declines (None) every other
argv, so that argparse alone answers help, errors and other spellings.
Argv are drawn from a token grammar that mixes the plain form with
abbreviated, joined (``--opt=value``) and repeated options, ``-h``, ``--``,
unknown options, negative, empty and ``-`` values, a datum placed after the
options, and bad choices, labels and ints."""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crring import cli
from crring.cli import build_parser
from test_golden import DATA

DATUM = str(DATA["wp112"])
OUT = "{out}"  # replaced by a file in a temporary directory
# valid values per option on wp112, then values of every other kind
VALID = {
    "--format": ["structured", "tsv"],
    "--out": [OUT, ""],
    "--method": ["direct", "localization"],
    **{flag: ["c=0", "c=1/2"] for flag in ("--t", "--t1", "--t2", "--t3")},
    **{flag: ["0", "1"] for flag in ("--k1", "--k2", "--k3")},
}
VALUES = [
    *sorted({v for values in VALID.values() for v in values}),
    "xml", "loc", "c=1/0", "c=one", "x=1/2", "c=1/2,a=1", "-1", "2", "x", " 1", "-", "",
]
ODD_FLAGS = ["--form", "--meth", "--fo", "--o", "--k", "--bogus", "-h", "--help", "--"]


@st.composite
def argvs(draw) -> list[str]:
    """The plain form of a request, and in half the draws a stray from it."""
    command = draw(st.sampled_from([*cli._COMMANDS, "no-such-command"]))
    options = cli._READER.get(command, {})
    pairs = [
        [flag, draw(st.sampled_from(VALID[flag]))]
        for flag, option in options.items()
        if option.get("required") or draw(st.booleans())
    ]
    pairs = draw(st.permutations(pairs))
    datum = DATUM
    if draw(st.booleans()):
        token = st.sampled_from([*VALID, *ODD_FLAGS, *VALUES])
        pairs += draw(st.lists(st.lists(token, min_size=2, max_size=2), max_size=2))
        for i in draw(st.sets(st.integers(0, len(pairs) - 1), max_size=2)) if pairs else ():
            flag, value = pairs[i]
            action = draw(st.sampled_from(["join", "abbreviate", "repeat", "value", "drop"]))
            if action == "join":
                pairs[i] = [f"{flag}={value}"]
            elif action == "abbreviate":
                pairs[i] = [flag[:-1] if len(flag) > 3 else flag, value]
            elif action == "repeat":
                pairs.append([flag, draw(st.sampled_from(VALUES))])
            elif action == "value":
                pairs[i] = [flag, draw(st.sampled_from(VALUES))]
            else:
                pairs[i] = draw(st.sampled_from([[flag], []]))
        datum = draw(st.sampled_from([DATUM, "", "-", "-h", None, "after the options"]))
        command = draw(st.sampled_from([command, command, None]))
    tokens = [token for pair in pairs for token in pair]
    if datum == "after the options":
        tokens.append(DATUM)
    elif datum is not None:
        tokens.insert(0, datum)
    return tokens if command is None else [command, *tokens]


def outcome(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A working directory for the drawn requests: ``--out x`` writes ./x."""
    path = tmp_path_factory.mktemp("reader")
    cwd = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(cwd)


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_the_reader_is_argparse_on_its_domain(workdir, argv):
    argv = [str(workdir / "out.txt") if token == OUT else token for token in argv]
    args = cli._read(argv)
    if args is not None:
        assert args == build_parser().parse_args(argv)
    expected = outcome(argv)
    with mock.patch.object(cli, "_read", lambda argv: None):
        assert outcome(argv) == expected


PLAIN = ["pair", DATUM, "--t1", "c=1/2", "--t2", "c=1/2"]
DECLINED = {
    "no argv": [],
    "no command": ["no-such-command", DATUM],
    "no datum": ["sectors"],
    "option before the datum": ["shift", "--t", "c=1/2", DATUM],
    "odd token count": ["shift", DATUM, "--t", "c=1/2", "extra"],
    "a flag without its value": ["sectors", DATUM, "--format"],
    "abbreviated option": ["triple", DATUM, "--meth", "direct", *PLAIN[2:], "--t3", "c=0"],
    "joined option": ["shift", DATUM, "--t=c=1/2", "--format=tsv"],
    "repeated option": [*PLAIN, "--t1", "c=0"],
    "unknown option": [*PLAIN, "--bogus", "x"],
    "another command's option": [*PLAIN, "--t3", "c=0"],
    "help": [*PLAIN, "-h", "x"],
    "negative value": [*PLAIN, "--k1", "-1"],
    "dash value": [*PLAIN, "--out", "-"],
    "invalid choice": ["sectors", DATUM, "--format", "xml"],
    "bad label": ["shift", DATUM, "--t", "c=1/0"],
    "bad int": [*PLAIN, "--k2", "x"],
    "missing required option": ["triple", DATUM, *PLAIN[2:], "--t3", "c=0"],
    "missing sector flag": ["shift", DATUM],
}


@pytest.mark.parametrize("argv", DECLINED.values(), ids=DECLINED)
def test_the_reader_declines_every_other_spelling(argv):
    assert cli._read(argv) is None


def test_a_well_formed_request_builds_no_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    triple = ["--t1", "c=1/2", "--t2", "c=1/2", "--t3", "c=0"]
    for argv in (
        ["sectors", DATUM],
        ["shift", DATUM, "--t", "c=1/2", "--format", "tsv"],
        ["basis", DATUM],
        PLAIN,
        ["cup", DATUM, "--t1", "c=0", "--k1", "1", "--t2", "c=1/2"],
        ["triple", DATUM, "--method", "direct", *triple],
        ["triple", DATUM, *triple, "--method", "localization"],
        ["table", DATUM, "--format", "structured"],
        ["wallcross", DATUM, *triple, "--out", ""],
        ["selftest", DATUM],
    ):
        assert cli._read(argv) is not None, argv
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
