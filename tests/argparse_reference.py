"""The argparse parser of heckeg7.cli as it read before the table-driven
parser replaced it, kept verbatim as a reference for the tests.

tests/test_cli_parser.py runs the same command lines through this parser
and through heckeg7.cli.build_parser(): where this one accepts a line, both
must produce the same dests and handler; where it refuses one, so must the
new parser; where it prints help, both exit 0.
"""

import argparse

from heckeg7.cli import cmd_check, cmd_identities, cmd_relations, cmd_sweep
from heckeg7.identities import REGISTRY
from heckeg7.numerics import VERDICT_TOL
from heckeg7.representation import InvalidParams
from heckeg7.sweep import DOMAINS


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through exit code 1
        raise InvalidParams(f"{self.prog}: {message}")


def _add_output_flag(sub) -> None:
    sub.add_argument(
        "--output",
        choices=("json", "text"),
        default="json",
        help="output format (default json)",
    )


def _add_common_flags(sub) -> None:
    sub.add_argument(
        "--tolerance",
        type=float,
        default=VERDICT_TOL,
        help=f"relative comparison tolerance (default {VERDICT_TOL:g})",
    )
    sub.add_argument(
        "--r-sign",
        type=int,
        choices=(1, -1),
        default=1,
        metavar="{+1,-1}",
        help="sign of the square root r used in the matrices (default +1)",
    )
    _add_output_flag(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heckeg7",
        description=(
            "Build 2-dimensional Hecke-algebra representations at complex "
            "parameter values, decide irreducibility against a brute-force "
            "oracle, and verify the underlying identities exactly."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser(
        "check", help="decide irreducibility for one parameter file"
    )
    check.add_argument("param_file", help="JSON parameter file")
    _add_common_flags(check)
    check.set_defaults(handler=cmd_check)

    sweep = subs.add_parser(
        "sweep", help="randomized criteria-vs-oracle agreement sweep"
    )
    sweep.add_argument("--samples", type=int, default=10000, help="sample count")
    sweep.add_argument("--seed", type=int, default=42, help="random seed")
    sweep.add_argument(
        "--domain",
        choices=DOMAINS,
        default="positive-real",
        help="sampling domain (default positive-real)",
    )
    sweep.add_argument(
        "--inject-reducible-rate",
        type=float,
        default=0.1,
        help="fraction of samples replaced by constructed reducible tuples "
        "(default 0.1)",
    )
    sweep.add_argument(
        "--log10-modulus-min",
        type=float,
        default=-1.0,
        help="lower log10 modulus bound (default -1)",
    )
    sweep.add_argument(
        "--log10-modulus-max",
        type=float,
        default=1.0,
        help="upper log10 modulus bound (default 1)",
    )
    sweep.add_argument(
        "--regime-filter",
        choices=("equal", "distinct"),
        default=None,
        help="restrict samples and injections to one regime",
    )
    sweep.add_argument(
        "--fixtures-out",
        default=None,
        metavar="FILE",
        help="also write all disagreement records to FILE as JSON",
    )
    _add_common_flags(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    identities = subs.add_parser(
        "identities", help="run the exact symbolic identity suite"
    )
    identities.add_argument(
        "--only",
        default=None,
        metavar="NAME",
        help=f"run a single identity; one of: {', '.join(REGISTRY)}",
    )
    _add_output_flag(identities)
    identities.set_defaults(handler=cmd_identities)

    relations = subs.add_parser(
        "relations", help="braid/eigenvalue relation residuals for one file"
    )
    relations.add_argument("param_file", help="JSON parameter file")
    _add_common_flags(relations)
    relations.set_defaults(handler=cmd_relations)

    return parser
