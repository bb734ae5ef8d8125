"""Command-line interface.

Subcommands:

  check      decide irreducibility for one parameter file: closed-form
             criteria vs. the brute-force oracle, with relation residuals
             and (on disagreement) the flipped-branch diagnosis
  sweep      randomized agreement sweep with injected reducible tuples
  identities run the exact symbolic identity suite
  relations  braid/quadratic (and optional cubic) relation residuals for
             one parameter file

Parameter files are JSON objects with required complex fields x1, x2, y1,
y2, z1, z2 and optional y3, z3; each complex value is either
{"re": <num>, "im": <num>} or {"modulus": <num >= 0>, "argument": <num>}
with the argument in (-pi, pi].

All JSON output carries schema_version, is rendered by render.dumps, and
is deterministic: identical inputs, flags, and seeds produce byte-identical
documents.  Exit codes:
0 success/agreement, 1 input error, 2 mathematical disagreement or
identity failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import render
from .identities import REGISTRY, report_as_dict, run_all
from .irreducibility import DISTINCT_X, EQUAL_X, Verdict, decide, regime
from .numerics import VERDICT_TOL, from_polar
from .render import params_as_dict, verdict_as_dict
from .representation import (
    GeneratorTriple,
    InvalidParams,
    Params,
    braid_residual,
    build_general,
    hecke_residuals,
)
# Not called here: perfbench/tracing.py wraps this name on this module.
from .representation import build_equal_x  # noqa: F401
from .sweep import DOMAINS, SCHEMA_VERSION, DrawFailed, SweepConfig, run_sweep

OK = 0
INPUT_ERROR = 1
MATH_FAILURE = 2


class InputError(ValueError):
    """Any problem with files, flags, or parameter values (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through exit code 1
        raise InputError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# parameter files

def _as_number(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{field}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"{field}: {exc}") from exc


def parse_complex_value(field: str, obj) -> complex:
    if not isinstance(obj, dict):
        raise InputError(
            f"{field}: expected an object with re/im or modulus/argument keys"
        )
    keys = set(obj)
    if keys == {"re", "im"}:
        return complex(
            _as_number(f"{field}.re", obj["re"]), _as_number(f"{field}.im", obj["im"])
        )
    if keys == {"modulus", "argument"}:
        modulus = _as_number(f"{field}.modulus", obj["modulus"])
        argument = _as_number(f"{field}.argument", obj["argument"])
        if modulus < 0:
            raise InputError(f"{field}.modulus: must be >= 0")
        if not -math.pi < argument <= math.pi:
            raise InputError(f"{field}.argument: must lie in (-pi, pi]")
        return from_polar(modulus, argument)
    raise InputError(
        f"{field}: keys must be exactly {{re, im}} or {{modulus, argument}}, "
        f"got {sorted(keys)}"
    )


def load_params(path: str) -> Params:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read parameter file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, huge int, too deep
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(doc) - set(Params._fields))
    if unknown:
        raise InputError(f"{path}: unknown field(s) {', '.join(unknown)}")
    missing = [
        name for name in Params._fields
        if name not in doc and name not in Params._field_defaults
    ]
    if missing:
        raise InputError(f"{path}: missing required field(s) {', '.join(missing)}")
    values = {name: parse_complex_value(name, doc[name]) for name in doc}
    try:
        return Params(**values)
    except InvalidParams as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# rendering

def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _fmt_vec(v) -> str:
    if v is None:
        return "none"
    return f"({_fmt_complex(complex(v[0]['re'], v[0]['im']))}, {_fmt_complex(complex(v[1]['re'], v[1]['im']))})"


def _emit(doc: dict, output: str, text_lines) -> None:
    if output == "json":
        print(render.dumps(doc))
    else:
        print("\n".join(text_lines(doc)))


def _check_text(doc: dict) -> list[str]:
    v = doc["verdict"]
    lines = [
        f"regime: {v['regime']} (r sign {v['r-sign']:+d}, tolerance {v['tolerance']:g})",
        f"criteria decision: {v['theorem-decision']}",
    ]
    for flag in v["conditions"]:
        lines.append(
            f"  {flag['condition']}: holds={flag['holds']} "
            f"lhs={_fmt_complex(complex(flag['lhs']['re'], flag['lhs']['im']))} "
            f"rhs={_fmt_complex(complex(flag['rhs']['re'], flag['rhs']['im']))}"
        )
    lines.append(f"oracle decision: {v['oracle-decision']}")
    lines.append(f"invariant vector: {_fmt_vec(v['invariant-vector'])}")
    lines.append(f"agreement: {'yes' if v['agreement'] else 'no'}")
    diag = v["branch-diagnosis"]
    if diag is None:
        lines.append("branch diagnosis: not needed")
    else:
        lines.append(
            f"branch diagnosis: {diag['note']} "
            f"(flipped r sign {diag['flipped-r-sign']:+d} -> "
            f"{diag['flipped-oracle-decision']}, witness "
            f"{_fmt_vec(diag['flipped-invariant-vector'])})"
        )
    rel = doc["relations"]
    lines.append(f"braid residual: {rel['braid-residual']:.3e}")
    hecke = " ".join(f"{k}={val:.3e}" for k, val in sorted(rel["hecke-residuals"].items()))
    lines.append(f"hecke residuals: {hecke}")
    return lines


def _relations_doc(p: Params, r_sign: int, tolerance: float) -> dict:
    g = build_general(p, r_sign)
    braid, hecke = braid_residual(g), hecke_residuals(g, p)
    worst = max([braid, *hecke.values()])
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "relation-residuals",
        "params": params_as_dict(p),
        "regime": regime(p, tolerance),
        "r-sign": r_sign,
        "tolerance": tolerance,
        "braid-residual": braid,
        "hecke-residuals": hecke,
        "within-tolerance": worst <= tolerance,
    }


def _relations_text(doc: dict) -> list[str]:
    lines = [
        f"regime: {doc['regime']} (r sign {doc['r-sign']:+d})",
        f"braid residual: {doc['braid-residual']:.3e}",
    ]
    for name, value in sorted(doc["hecke-residuals"].items()):
        lines.append(f"{name} relation residual: {value:.3e}")
    lines.append(
        f"within tolerance {doc['tolerance']:g}: "
        f"{'yes' if doc['within-tolerance'] else 'no'}"
    )
    return lines


def _identities_text(doc: dict) -> list[str]:
    lines = []
    for rep in doc["reports"]:
        lines.append(f"{rep['name']}: {rep['status']}")
        for check in rep["checks"]:
            if not check["ok"]:
                lines.append(f"  FAILED: {check['name']}")
                if check["residual"]:
                    lines.append(f"    residual: {check['residual']}")
    lines.append(f"failed reports: {doc['failed']}")
    return lines


def _sweep_text(doc: dict) -> list[str]:
    counts = doc["counts"]
    lines = [
        f"samples: {doc['config']['samples']} "
        f"(domain {doc['config']['domain']}, seed {doc['config']['seed']})",
    ]
    for key in sorted(counts):
        lines.append(f"{key}: {counts[key]}")
    injected = doc["injected"]
    per_case = " ".join(f"{k}={v}" for k, v in sorted(injected["per-case"].items()))
    lines.append(f"injected reducible tuples: {injected['total']} ({per_case})")
    lines.append(f"witness failures: {len(injected['witness-failures'])}")
    lines.append(
        f"predicted-direction mismatches: "
        f"{len(injected['predicted-direction-mismatches'])}"
    )
    lines.append(f"archived disagreements: {len(doc['disagreements'])}")
    return lines


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    p = load_params(args.param_file)
    triples: dict[int, GeneratorTriple] = {}
    verdict: Verdict = decide(
        p,
        r_sign=args.r_sign,
        tol=args.tolerance,
        triples=triples,
    )
    g = triples[args.r_sign]
    braid, hecke = braid_residual(g), hecke_residuals(g, p)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "check-verdict",
        "params": params_as_dict(p),
        "verdict": verdict_as_dict(verdict),
        "relations": {"braid-residual": braid, "hecke-residuals": hecke},
    }
    _emit(doc, args.output, _check_text)
    return OK if verdict.agreement else MATH_FAILURE


def cmd_sweep(args) -> int:
    values = {name: getattr(args, name) for name in SweepConfig._fields}
    if args.regime_filter is not None:
        regimes = {"equal": EQUAL_X, "distinct": DISTINCT_X}
        values["regime_filter"] = regimes[args.regime_filter]
    cfg = SweepConfig(**values)
    try:
        cfg.validate()
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        result = run_sweep(cfg)
    except DrawFailed as exc:  # the band leaves no sane tuple to draw
        raise InputError(str(exc)) from exc
    doc = result.as_dict()
    _emit(doc, args.output, _sweep_text)
    if args.fixtures_out:
        fixtures = {
            "schema_version": SCHEMA_VERSION,
            "kind": "disagreement-fixtures",
            "config": doc["config"],
            "disagreements": doc["disagreements"],
        }
        try:
            with open(args.fixtures_out, "w", encoding="utf-8") as fh:
                fh.write(render.dumps(fixtures) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.fixtures_out}: {exc}") from exc
    return MATH_FAILURE if result.unresolved() > 0 else OK


def cmd_identities(args) -> int:
    try:
        reports = run_all(args.only)
    except KeyError as exc:
        raise InputError(exc.args[0]) from exc
    failed = sum(1 for rep in reports if rep.failed())
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "identity-reports",
        "reports": [report_as_dict(rep) for rep in reports],
        "failed": failed,
    }
    _emit(doc, args.output, _identities_text)
    return MATH_FAILURE if failed else OK


def cmd_relations(args) -> int:
    p = load_params(args.param_file)
    doc = _relations_doc(p, args.r_sign, args.tolerance)
    _emit(doc, args.output, _relations_text)
    return OK if doc["within-tolerance"] else MATH_FAILURE


# ---------------------------------------------------------------------------
# parser

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # through the module global, so that a wrapper set on cli.build_parser
    # (perfbench/tracing.py) sees the one build
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    The parser is built on the first call, not at import, and every later
    call in the process reuses it.  That is safe because parse_args does
    not mutate the parser, _Parser.error raises InputError instead of
    exiting, prog is fixed, and each subcommand's handler is bound when
    the parser is built (so patching a cmd_* function after the first call
    would not reach it; nothing does).
    """
    try:
        args = _parser().parse_args(argv)
        # identities takes no --tolerance
        if "tolerance" in args and not args.tolerance > 0:
            raise InputError("--tolerance must be positive")
        return args.handler(args)
    except (InputError, InvalidParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
