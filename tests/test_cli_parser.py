"""heckeg7.cli's table-driven parser against the argparse parser it replaced.

argparse_reference keeps the old parser verbatim.  Each command line below,
fixed or drawn by Hypothesis, goes through both: where argparse accepts it,
both give the same dests and handler; where argparse refuses it, so does
the new parser; where argparse prints help, both exit 0.  Messages are not
compared, since argparse words them differently from one Python version to
the next.  The new parser's own words are pinned instead:
fixtures/cli_parser_words.json holds its exact refusal message or help
text for each fixed line that it refuses or answers with help.

argparse itself answers a few kinds of line differently across Python
3.10-3.13.  INTENDED_DIFFERENCES lists them, each with the one answer the
new parser gives; no other difference passes.
"""

import json
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argparse_reference import build_parser as build_argparse_parser
from heckeg7.cli import _is_negative_number, build_parser
from heckeg7.representation import InvalidParams

COMMON = ("--tolerance", "--r-sign", "--output")
FLAGS = {
    "check": COMMON,
    "sweep": (
        "--samples", "--seed", "--domain", "--inject-reducible-rate",
        "--log10-modulus-min", "--log10-modulus-max", "--regime-filter",
        "--fixtures-out", *COMMON,
    ),
    "identities": ("--only", "--output"),
    "relations": COMMON,
}
ALL_FLAGS = sorted({flag for flags in FLAGS.values() for flag in flags}) + ["--help", "-h"]
PREFIXES = [
    "--s", "--sa", "--se", "--samp", "--t", "--tol", "--r", "--r-", "--re",
    "--l", "--log10-modulus-m", "--log10-modulus-mi", "--o", "--ou", "--on",
    "--d", "--i", "--f", "--h", "--he", "--x",
]
VALUES = [
    "1", "+1", "0", "2", "20", ".5", "1e-9", "nan", "inf", "1_0", " 1", "1.",
    "x", "", "json", "text", "positive-real", "general-complex", "equal",
    "distinct", "w-factorization", "p.json",
]
NEGATIVE = ["-1", "-3", "-0", "-0.5", "-.5", "-1.", "-1e5", "-inf", "-1.5", "-٣"]
JUNK = [
    "--bogus", "-x", "frobnicate", "-hx", "-hh", "-h=h", "--help=x", "---",
    "-=1", "--=1", "=", "-", "-x y", "--a b", "-1\n", "--5",
]

REFUSED = "refused"
HELP = ("exit", 0)


def outcome(parser, argv):
    try:
        with redirect_stdout(StringIO()):
            args = parser.parse_args(argv)
    except InvalidParams:
        return REFUSED
    except SystemExit as exc:
        return ("exit", exc.code)
    # repr tells nan from nan and -0.0 from 0.0
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(args).items()}


ARGPARSE = build_argparse_parser()
PARSER = build_parser()
WORDS = json.loads(
    (Path(__file__).parent / "fixtures" / "cli_parser_words.json").read_text(encoding="utf-8")
)


def is_help(token):
    return token in ("--h", "--he", "--hel", "--help") or (
        token[:2] == "-h" and not token[2:].strip("h")
    )


def help_before_ambiguous(argv, expected, got):
    """argparse up to 3.12 refuses an ambiguous abbreviation (sweep --s)
    before it reads anything; argparse 3.13 and the new parser read in
    order, so a -h/--help before it prints help."""
    if (expected, got) != (REFUSED, HELP):
        return False
    names = [i for i, token in enumerate(argv) if token in FLAGS]
    if not names:
        return False
    flags = FLAGS[argv[names[0]]] + ("--help",)

    def ambiguous(token):
        prefix = token.partition("=")[0]
        return token.startswith("--") and prefix not in flags and (
            sum(flag.startswith(prefix) for flag in flags) > 1
        )

    rest = argv[names[0] + 1:]
    first_help = next((i for i, token in enumerate(rest) if is_help(token)), None)
    return first_help is not None and any(map(ambiguous, rest[first_help + 1:]))


def separator_before_command(argv, expected, got):
    """argparse up to 3.12 takes a "--" before the subcommand for the
    subcommand's name and refuses it; argparse 3.13 and the new parser read
    the next token as the subcommand, whatever it looks like, and parse the
    rest as without the "--"."""
    if expected != REFUSED or "--" not in argv:
        return False
    at = argv.index("--")
    if not all(token.startswith("-") and token != "-" for token in argv[:at]):
        return False
    if argv[at + 1:at + 2] and argv[at + 1] in FLAGS:
        return got == outcome(ARGPARSE, argv[:at] + argv[at + 1:])
    return got == REFUSED


def joined_help(argv, expected, got):
    """-h joined to characters other than more h's: argparse up to 3.12
    refuses -hx but prints help for -h=h, argparse 3.13 prints help for -hx
    and refuses -h=h; the new parser refuses both (and reads -hh as -h)."""
    return (expected, got) == (HELP, REFUSED) and any(
        token[:2] == "-h" and token[2:].lstrip("h") for token in argv
    )


def dash_equals(argv, expected, got):
    """A token starting with "-=": argparse 3.13 refuses it as an ambiguous
    option where it meets it, argparse up to 3.12 and the new parser refuse
    it as an unknown argument at the end, so a later -h still prints help."""
    return (expected, got) == (REFUSED, HELP) and any(
        token.startswith("-=") for token in argv
    )


INTENDED_DIFFERENCES = (
    help_before_ambiguous, separator_before_command, joined_help, dash_equals,
)


def assert_same(argv):
    expected, got = outcome(ARGPARSE, argv), outcome(PARSER, argv)
    if expected != got:
        explained = [d.__name__ for d in INTENDED_DIFFERENCES if d(argv, expected, got)]
        assert explained, (argv, expected, got)


FIXED = [
    ["check", "p.json"],
    ["check", "p.json", "--tol", "1e-3", "--r-sign=-1", "--out", "text"],
    ["check", "p.json", "--tolerance=1e-3", "--output=text"],
    ["check", "p.json", "--r-sign", "+1"],
    ["check", "p.json", "--r-sign", "0"],
    ["check", "p.json", "--r-sign", "2"],
    ["check", "p.json", "--tolerance", "nan"],
    ["check", "p.json", "--tolerance", "x"],
    ["check", "p.json", "--force-regime", "equal"],
    ["check", "p.json", "extra"],
    ["check", "p.json", "--help=x"],
    ["check", "p.json", "--", "--"],
    ["check", "p.json", "--"],
    ["check", "--", "-p.json"],
    ["check", "--output", "--"],
    ["check", "-1"],
    ["check", "-"],
    ["check", "-1e5"],
    ["check", "-x y"],
    ["check"],
    ["sweep", "--samp", "5", "--seed", "-3"],
    ["sweep", "--s", "5"],
    ["sweep", "--samples", "1", "--samples", "2"],
    ["sweep", "--samples", "x"],
    ["sweep", "--samples", "1_000"],
    ["sweep", "--samples"],
    ["sweep", "--samples="],
    ["sweep", "--r-sign", "-1", "--log10-modulus-min", "-3"],
    ["sweep", "--log10-modulus-min", "-1e5"],
    ["sweep", "--log10-modulus-min=-1e5"],
    ["sweep", "--log10-modulus-m", "-1"],
    ["sweep", "--r", "-1"],
    ["sweep", "--regime-filter", "equal", "--domain", "general-complex"],
    ["sweep", "--domain", "made-up"],
    ["sweep", "--tolerance", "inf"],
    ["sweep", "--fixtures-out="],
    ["sweep", "--fixtures-out", "-"],
    ["sweep", "--"],
    ["sweep", "-h", "--samples", "x"],
    ["sweep", "--samples", "x", "-h"],
    ["sweep", "--bogus", "-h"],
    ["identities"],
    ["identities", "--only", "w-factorization", "--output", "text"],
    ["identities", "--o", "text"],
    ["identities", "--ou", "text"],
    ["identities", "--r-sign", "-1"],
    ["identities", "--tolerance", "1e-9"],
    ["relations", "p.json", "--r", "-1"],
    ["relations", "p.json", "--r-sign", "-1", "--output", "text"],
    [],
    ["frobnicate"],
    ["--bogus"],
    ["--bogus", "sweep"],
    ["--help"],
    ["--he", "frobnicate"],
    ["-h"],
    ["sweep", "--help"],
    ["check", "--h"],
    ["-1", "sweep"],
    ["--bogus", "check", "p.json", "extra"],
    ["-x", "sweep", "--samples", "x"],
    ["--bogus", "sweep", "-h"],
    ["--", "--"],
    ["--"],
    ["-h", "--", "sweep"],
    ["--", "check", "p.json", "--", "-1"],
    ["--bogus", "--", "check"],
    ["check", "p.json", "--", "extra"],
    ["--he=x", "sweep"],
]


def line_id(argv):
    return " ".join(argv) or "(empty)"


@pytest.mark.parametrize("argv", FIXED, ids=line_id)
def test_fixed_lines_match_argparse(argv):
    assert_same(argv)


@pytest.mark.parametrize("argv", FIXED, ids=line_id)
def test_fixed_lines_keep_their_words(argv):
    expected = WORDS["lines"].get(line_id(argv))  # None where the line is accepted
    if expected is not None and "help" in expected:
        expected = {"help": WORDS["help"][expected["help"]]}
    out, got = StringIO(), None
    try:
        with redirect_stdout(out):
            PARSER.parse_args(argv)
    except InvalidParams as exc:
        got = {"refused": str(exc)}
    except SystemExit as exc:
        assert exc.code == 0
        got = {"help": out.getvalue()}
    assert got == expected


def test_fixed_lines_cover_every_answer():
    answers = [outcome(PARSER, argv) for argv in FIXED]
    assert REFUSED in answers and HELP in answers
    assert {a["command"] for a in answers if isinstance(a, dict)} == set(FLAGS)
    assert set(WORDS["lines"]) <= set(map(line_id, FIXED))


tokens = st.one_of(
    st.sampled_from(list(FLAGS)),
    st.sampled_from(ALL_FLAGS),
    st.sampled_from(PREFIXES),
    st.builds(
        "{}={}".format,
        st.sampled_from(ALL_FLAGS + PREFIXES),
        st.sampled_from(VALUES + NEGATIVE),
    ),
    st.sampled_from(VALUES),
    st.sampled_from(NEGATIVE),
    st.sampled_from(JUNK),
    st.just("--"),
)
command_lines = st.one_of(
    st.builds(
        lambda name, rest: [name, *rest],
        st.sampled_from(list(FLAGS)),
        st.lists(tokens, max_size=6),
    ),
    st.lists(tokens, max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(command_lines)
def test_token_sequences_match_argparse(argv):
    assert_same(argv)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["sweep", "-h", "--s", "5"], HELP),
        (["--", "sweep", "--samples", "5"], {"samples": 5}),
        (["--", "-h"], REFUSED),
        (["check", "p.json", "-hx"], REFUSED),
        (["check", "p.json", "-h=h"], REFUSED),
        (["check", "p.json", "-hh"], HELP),
        (["check", "p.json", "-=1", "-h"], HELP),
    ],
)
def test_intended_differences_answer_as_listed(argv, expected):
    got = outcome(PARSER, argv)
    if isinstance(expected, dict):
        assert expected.items() <= got.items()
    else:
        assert got == expected


def test_help_names_every_flag_of_its_level(capsys):
    for argv, flags in [([], ()), *(([name], FLAGS[name]) for name in FLAGS)]:
        with pytest.raises(SystemExit) as exc:
            PARSER.parse_args([*argv, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert out == WORDS["help"][" ".join(["heckeg7", *argv])]
        assert out.startswith(f"usage: heckeg7 {' '.join(argv)}".rstrip())
        assert all(flag in out for flag in ("-h, --help", *flags))
        if not argv:
            assert all(name in out for name in FLAGS)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="-.0123456789٣²\n x", max_size=7))
def test_negative_numbers_are_argparses(token):
    # argparse takes a token for a value only if it matches this pattern
    # (Python 3.10-3.13); $ also matches before a final newline
    assert _is_negative_number(token) == bool(re.match(r"^-\d+$|^-\d*\.\d+$", token))
