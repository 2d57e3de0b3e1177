"""The command line read two ways.  `cli._parse` reads a well-formed line
straight from the command table and declines anything else; argparse, built
from the same table by `cli._build_parser`, reads the declined lines and
writes help, usage lines and errors.  On generated lines, a line the table
reads has exactly argparse's namespace, and the built parser behaves as the
hand-written one it replaced (`oracles.argparse_parser`) byte for byte."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import implicit_deriv.cli as cli  # noqa: E402
from oracles import argparse_parser  # noqa: E402

BUILT = cli._build_parser()
REFERENCE = argparse_parser()

# Texts a value may take: numbers of each form, negative ones (the
# exponent forms too), non-finite ones, an empty text, texts that start
# with "-" and are no number, flags, every choice, and a few that only
# int() or float() accept ("1_0", " 3", Arabic-Indic digits).
VALUES = [
    "0", "1", "3", "7", "-1", "-2", "1.5", "-0.75", "-1e-3", "-2.5E+0", "-.5e1", "-.5",
    "1e999", "-1e999", "inf", "-inf", "nan", "-nan", "", " 3", "1_0", "٣", "-٣",
    "abc", "-x", "-", "-.", "-.x", "--", "-h", "--help", "--n", "-1 2", "a=b",
    "x^2+y^2-1", "x-exp(y)", "text", "latex", "json", "enum", "gf", "both", "GUESS",
]
FLAGS = sorted({flag for _, _, options in cli._COMMANDS.values() for flag in options})
# Prefixes that argparse expands to a flag, or finds ambiguous.
ABBREVIATIONS = ["--f", "--fo", "--form", "--m", "--me", "--ma", "--c", "--cf", "--co",
                 "--j", "--e", "--s", "--solve", "--fd", "--h", "--he", "--x=", "--"]
TOKEN = st.one_of(
    st.sampled_from([*cli._COMMANDS, "frobnicate", "", *FLAGS, *ABBREVIATIONS, "-h", *VALUES]),
    st.builds("{}={}".format, st.sampled_from(FLAGS + ABBREVIATIONS), st.sampled_from(VALUES)),
    st.text(max_size=4),
)


def _value(convert):
    # mostly a text the option's converter or choices accept
    if convert is None:
        return st.sampled_from(VALUES)
    if isinstance(convert, tuple):
        accepted = st.sampled_from(convert)
    elif convert is str:
        # any text, and expressions that start with "-", numbers or not
        accepted = st.one_of(
            st.text(max_size=8), st.sampled_from(["-y", "-x+y", "-.5*y", "-1e-3+y", "-"]),
        )
    elif convert is cli._positive_int:
        accepted = st.integers(-3, 40).map(str)
    else:
        accepted = st.floats().map(repr)
    return st.one_of(accepted, accepted, accepted, st.sampled_from(VALUES))


@st.composite
def command_lines(draw):
    """A subcommand and most of its options in any order, each as "--flag
    value" or "--flag=value", each value mostly one it accepts, with now and
    then a flag repeated and a few tokens of any kind put anywhere."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[command][2]
    flags = draw(st.permutations(list(options)))
    # most often one option of a choice of exactly one, and now and then
    # none or more than one
    one_of = [flag for flag in flags if options[flag][1] is cli._ONE_OF]
    dropped = one_of[1:] if draw(st.integers(0, 3)) else []
    flags = [flag for flag in flags if flag not in dropped and draw(st.integers(0, 7))]
    if flags and draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(flags)))
    argv = [command]
    for flag in flags:
        convert = options[flag][0]
        if convert is None:
            argv.append(draw(st.sampled_from([flag, flag, flag, f"{flag}=", f"{flag}=1"])))
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(_value(convert))}")
        else:
            argv += [flag, draw(_value(convert))]
    while draw(st.integers(0, 3)) == 3:
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKEN))
    return argv


ARGV = st.one_of(command_lines(), command_lines(), st.lists(TOKEN, max_size=8))


def outcome(parse, argv):
    """What parse(argv) makes of argv: the namespace's attributes, or the
    exit status with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(ARGV)
def test_the_table_reads_a_line_as_argparse_does_or_declines(argv):
    parsed = cli._parse(argv)
    if parsed is not None:
        assert vars(parsed) == outcome(BUILT.parse_args, argv)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(ARGV)
def test_the_built_parser_is_the_hand_written_one(argv):
    assert outcome(BUILT.parse_args, argv) == outcome(REFERENCE.parse_args, argv)


def test_the_table_reads_every_well_formed_line():
    # each command with its options in both forms, a negative number in
    # exponent form and the defaults filled in
    lines = {
        ("expand", "--n", "15", "--format", "json"): {"n": 15, "format": "json"},
        ("partitions", "--n=13"): {"n": 13, "format": "text"},
        ("count", "--method", "both", "--max", "12"): {"max": 12, "method": "both"},
        ("verify",): {"max": 8, "cf_mode": False, "json": False},
        ("verify", "--max", "9", "--cf-mode", "--json"): {"max": 9, "cf_mode": True, "json": True},
        ("compare-cf", "--n", "30", "--count"): {"n": 30, "count": True},
        ("eval", "--expr", "x-exp(y)", "--x", "-1e-3", "--solve-y=-.5", "--n", "7"): {
            "expr": "x-exp(y)", "x": -1e-3, "y": None, "solve_y": -0.5, "n": 7,
            "fd_check": False,
        },
    }
    for argv, values in lines.items():
        parsed = cli._parse(list(argv))
        assert parsed is not None, argv
        assert vars(parsed) == {
            "command": argv[0], "run": cli._COMMANDS[argv[0]][0], **values
        }
        assert vars(parsed) == outcome(BUILT.parse_args, list(argv))


# Lines the table declines: help, and the usage errors of test_cli's
# TestUsage and TestEval.
DECLINED = [
    ["--help"], ["-h"], [],
    *([command, "--help"] for command in cli._COMMANDS),
    ["frobnicate"], ["expand"], ["expand", "--n", "0"], ["expand", "--n=1.5"],
    ["expand", "--n=abc"], ["expand", "--n=-2"], ["expand", "--n", "1", "--format", "html"],
    ["eval", "--expr", "x-exp(y)", "--x", "1", "--n", "1"],
    ["eval", "--expr", "x-exp(y)", "--x", "1", "--y", "0", "--solve-y", "0", "--n", "1"],
    ["eval", "--expr", "y", "--x", "-1e999", "--y", "1", "--n", "2"],
    ["expand", "--n", "3", "--n", "4"], ["expand", "--form", "json", "--n", "3"],
    ["count", "--", "--max", "3"],
]


@pytest.mark.parametrize("argv", DECLINED, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors_are_argparse_own(argv, monkeypatch):
    # the same width as a terminal of 80 columns, whatever runs the tests
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._parse(argv) is None
    reference = outcome(REFERENCE.parse_args, argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if isinstance(reference, dict):
        # argparse reads an abbreviated or repeated flag; the command runs
        assert code == 0
    else:
        assert (code, out.getvalue(), err.getvalue()) == reference
        assert code == (0 if "--help" in argv or "-h" in argv else 1)
