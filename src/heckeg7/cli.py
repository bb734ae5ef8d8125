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
identity failure.  Every input error, here or in the library, is a
representation.InvalidParams; main alone turns it into exit code 1 with
one "error:" line on stderr and nothing on stdout.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from types import SimpleNamespace

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
from .sweep import DOMAINS, SCHEMA_VERSION, SweepConfig, run_sweep

OK = 0
INPUT_ERROR = 1
MATH_FAILURE = 2


# ---------------------------------------------------------------------------
# parameter files

def _as_number(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParams(f"{field}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InvalidParams(f"{field}: {exc}") from exc


def parse_complex_value(field: str, obj) -> complex:
    if not isinstance(obj, dict):
        raise InvalidParams(
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
            raise InvalidParams(f"{field}.modulus: must be >= 0")
        if not -math.pi < argument <= math.pi:
            raise InvalidParams(f"{field}.argument: must lie in (-pi, pi]")
        return from_polar(modulus, argument)
    raise InvalidParams(
        f"{field}: keys must be exactly {{re, im}} or {{modulus, argument}}, "
        f"got {sorted(keys)}"
    )


def load_params(path: str) -> Params:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParams(f"cannot read parameter file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, huge int, too deep
        raise InvalidParams(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InvalidParams(f"{path}: top level must be a JSON object")
    unknown = sorted(set(doc) - set(Params._fields))
    if unknown:
        raise InvalidParams(f"{path}: unknown field(s) {', '.join(unknown)}")
    missing = [
        name for name in Params._fields
        if name not in doc and name not in Params._field_defaults
    ]
    if missing:
        raise InvalidParams(f"{path}: missing required field(s) {', '.join(missing)}")
    try:
        return Params(**{name: parse_complex_value(name, doc[name]) for name in doc})
    except InvalidParams as exc:
        raise InvalidParams(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# rendering

def _fmt_complex(z: dict) -> str:
    return f"{z['re']:.12g}{z['im']:+.12g}i"


def _fmt_vec(v) -> str:
    return "none" if v is None else f"({_fmt_complex(v[0])}, {_fmt_complex(v[1])})"


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
            f"lhs={_fmt_complex(flag['lhs'])} rhs={_fmt_complex(flag['rhs'])}"
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

def _residuals(p: Params, g: GeneratorTriple) -> dict:
    """The relation residual block that check and relations both report."""
    return {"braid-residual": braid_residual(g), "hecke-residuals": hecke_residuals(g, p)}


def cmd_check(args) -> int:
    p = load_params(args.param_file)
    triples: dict[int, GeneratorTriple] = {}
    verdict: Verdict = decide(
        p,
        r_sign=args.r_sign,
        tol=args.tolerance,
        triples=triples,
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "check-verdict",
        "params": params_as_dict(p),
        "verdict": verdict_as_dict(verdict),
        "relations": _residuals(p, triples[args.r_sign]),
    }
    _emit(doc, args.output, _check_text)
    return OK if verdict.agreement else MATH_FAILURE


def cmd_sweep(args) -> int:
    values = {name: getattr(args, name) for name in SweepConfig._fields}
    if args.regime_filter is not None:
        regimes = {"equal": EQUAL_X, "distinct": DISTINCT_X}
        values["regime_filter"] = regimes[args.regime_filter]
    result = run_sweep(SweepConfig(**values))
    doc = result.as_dict()
    if args.fixtures_out:
        fixtures = {
            "schema_version": SCHEMA_VERSION,
            "kind": "disagreement-fixtures",
            "config": doc["config"],
            "disagreements": doc["disagreements"],
        }
        # rendered first, so that a document render refuses leaves no file
        text = render.dumps(fixtures) + "\n"
        try:
            with open(args.fixtures_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParams(f"cannot write {args.fixtures_out}: {exc}") from exc
    _emit(doc, args.output, _sweep_text)
    return MATH_FAILURE if result.unresolved() > 0 else OK


def cmd_identities(args) -> int:
    try:
        reports = run_all(args.only)
    except KeyError as exc:
        raise InvalidParams(exc.args[0]) from exc
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
    residuals = _residuals(p, build_general(p, args.r_sign))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "relation-residuals",
        "params": params_as_dict(p),
        "regime": regime(p, args.tolerance),
        "r-sign": args.r_sign,
        "tolerance": args.tolerance,
        **residuals,
        # every residual, so that a NaN one counts as outside the tolerance
        "within-tolerance": all(
            value <= args.tolerance
            for value in (residuals["braid-residual"], *residuals["hecke-residuals"].values())
        ),
    }
    _emit(doc, args.output, _relations_text)
    return OK if doc["within-tolerance"] else MATH_FAILURE


# ---------------------------------------------------------------------------
# parser

def _option(flag, convert, default, help, choices=None, metavar=None):
    """One row of an option table; its dest is the flag without its dashes,
    with "_" for "-" (--r-sign -> r_sign).

    choices are checked after convert, so they hold converted values;
    metavar None shows the choices in braces, or else the dest in capitals.
    """
    return SimpleNamespace(
        flag=flag, dest=flag[2:].replace("-", "_"), convert=convert, default=default,
        help=help, choices=choices, metavar=metavar,
    )


def _is_negative_number(token: str) -> bool:
    # argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches before a final
    # newline and whose \d is any Unicode decimal digit; spelled out because
    # compiling the pattern cost a cold request about 0.2 ms
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    return token[:1] == "-" and (
        fraction.isdecimal() and (not whole or whole.isdecimal())
        if dot else whole.isdecimal()
    )


_HELP = _option("--help", None, None, "show this help message and exit")
_TOP_FLAGS = {"-h": _HELP, "--help": _HELP}


class _Parser:
    """The heckeg7 command line, read from one table of subcommands.

    parse_args walks argv once and keeps the forms argparse accepted:
    "--flag value" and "--flag=value"; any unique prefix of a long flag;
    the last value of a repeated flag; a value that looks like a negative
    number; "--" to end the options; int/float conversion with choices
    checked after it.  Everything before the subcommand belongs to the top
    level, which knows only -h/--help; everything after it belongs to the
    subcommand.  Errors in a flag or its value are raised where they are
    met, so a -h/--help met first wins; unknown tokens and a missing
    positional are refused at the end.
    """

    def __init__(self, prog: str, description: str, commands) -> None:
        self.prog = prog
        self.description = description
        self.commands = {command.name: command for command in commands}
        self._flags = {
            command.name: {**_TOP_FLAGS, **{o.flag: o for o in command.options}}
            for command in commands
        }

    def _classify(self, prog: str, flags: dict, token: str):
        """None if token is a value here, else (option, explicit value or None).

        option is None for an option-like token that names no option.
        """
        if not token or token[0] != "-":
            return None
        if token in flags:
            return flags[token], None
        if len(token) == 1:
            return None
        if token[1] == "-":
            prefix, sep, value = token.partition("=")
            if sep and prefix in flags:
                matches = [prefix]
            else:
                matches = [flag for flag in flags if flag.startswith(prefix)]
            if len(matches) > 1:
                raise InvalidParams(
                    f"{prog}: ambiguous option: {token} could match {', '.join(matches)}"
                )
            if matches:
                return flags[matches[0]], value if sep else None
        elif token[:2] in flags:  # -h joined to more: -hh is -h -h
            return flags[token[:2]], token[2:].lstrip("h") or None
        if _is_negative_number(token) or " " in token:
            return None
        return None, None

    def _convert(self, prog: str, option, text: str):
        try:
            value = option.convert(text)
        except ValueError:
            raise InvalidParams(
                f"{prog}: argument {option.flag}: "
                f"invalid {option.convert.__name__} value: {text!r}"
            ) from None
        if option.choices is not None and value not in option.choices:
            choices = ", ".join(map(repr, option.choices))
            raise InvalidParams(
                f"{prog}: argument {option.flag}: invalid choice: {value!r} "
                f"(choose from {choices})"
            )
        return value

    def _help(self, prog: str, explicit, command=None):
        if explicit is not None:
            raise InvalidParams(
                f"{prog}: argument -h/--help: ignored explicit argument {explicit!r}"
            )
        print(self.format_help(command))
        raise SystemExit(0)

    def format_help(self, command=None) -> str:
        """The help text of the top level, or of one subcommand."""
        if command is None:
            usage = f"{self.prog} [-h] {{{','.join(self.commands)}}} ..."
            lines = ["", self.description, "", "commands:"]
            lines += [f"  {c.name:<12}{c.help}" for c in self.commands.values()]
            options = ()
        else:
            dests = "".join(f" {dest}" for dest, _ in command.positionals)
            usage = f"{self.prog} {command.name} [-h] [options]{dests}"
            lines = ["", command.help]
            if command.positionals:
                lines += ["", "positional arguments:"]
                lines += [f"  {dest}\n      {text}" for dest, text in command.positionals]
            options = command.options
        lines += ["", "options:", f"  -h, --help\n      {_HELP.help}"]
        for o in options:
            metavar = o.metavar or (
                f"{{{','.join(map(str, o.choices))}}}" if o.choices else o.dest.upper()
            )
            lines.append(f"  {o.flag} {metavar}\n      {o.help}")
        return "\n".join([f"usage: {usage}", *lines])

    def parse_args(self, argv: list[str] | None = None) -> SimpleNamespace:
        """Return the subcommand's dests, command and handler as a namespace.

        -h/--help prints help to stdout and raises SystemExit(0); every
        refusal raises InvalidParams naming the subcommand and the flag.
        """
        tokens = list(sys.argv[1:] if argv is None else argv)
        unknown: list[str] = []
        for i, token in enumerate(tokens):
            if token == "--":  # the subcommand follows, whatever it looks like
                i += 1
                break
            found = self._classify(self.prog, _TOP_FLAGS, token)
            if found is None:
                break
            if found[0] is _HELP:
                self._help(self.prog, found[1])
            unknown.append(token)
        else:
            i = len(tokens)
        if i == len(tokens):
            raise InvalidParams(f"{self.prog}: the following arguments are required: command")
        command = self.commands.get(tokens[i])
        if command is None:
            raise InvalidParams(
                f"{self.prog}: argument command: invalid choice: {tokens[i]!r} "
                f"(choose from {', '.join(self.commands)})"
            )
        values = self._parse_command(command, tokens[i + 1:], unknown)
        if unknown:
            raise InvalidParams(f"{self.prog}: unrecognized arguments: {' '.join(unknown)}")
        return SimpleNamespace(command=command.name, handler=command.handler, **values)

    def _parse_command(self, command, tokens: list[str], unknown: list[str]) -> dict:
        prog = f"{self.prog} {command.name}"
        flags = self._flags[command.name]
        values = {o.dest: o.default for o in command.options}
        waiting = [dest for dest, _ in command.positionals]
        filled_by = None  # index of the token that filled the last positional
        i = 0
        while i < len(tokens):
            token = tokens[i]
            i += 1
            if token == "--":
                # argparse drops the "--" only where a positional takes it
                # in: before an unfilled one, or just after a filled one
                if not waiting and filled_by != i - 2:
                    unknown.append(token)
                rest = tokens[i:]
                values.update(zip(waiting, rest))
                unknown += rest[len(waiting):]
                waiting = waiting[len(rest):]
                break
            found = self._classify(prog, flags, token)
            if found is None:
                if waiting:
                    values[waiting.pop(0)] = token
                    filled_by = i - 1
                else:
                    unknown.append(token)
                continue
            option, text = found
            if option is None:
                unknown.append(token)
                continue
            if option is _HELP:
                self._help(prog, text, command)
            if text is None:
                if i == len(tokens) or tokens[i] == "--" or (
                    self._classify(prog, flags, tokens[i]) is not None
                ):
                    raise InvalidParams(
                        f"{prog}: argument {option.flag}: expected one argument"
                    )
                text = tokens[i]
                i += 1
            values[option.dest] = self._convert(prog, option, text)
        if waiting:
            raise InvalidParams(
                f"{prog}: the following arguments are required: {', '.join(waiting)}"
            )
        return values


def build_parser() -> _Parser:
    """Return a new parser for the heckeg7 command line."""
    output = _option(
        "--output", str, "json", "output format (default json)", choices=("json", "text")
    )
    common = (
        _option(
            "--tolerance", float, VERDICT_TOL,
            f"relative comparison tolerance (default {VERDICT_TOL:g})",
        ),
        _option(
            "--r-sign", int, 1,
            "sign of the square root r used in the matrices (default +1)",
            choices=(1, -1), metavar="{+1,-1}",
        ),
        output,
    )
    sweep = (
        _option("--samples", int, 10000, "sample count"),
        _option("--seed", int, 42, "random seed"),
        _option(
            "--domain", str, "positive-real",
            "sampling domain (default positive-real)", choices=DOMAINS,
        ),
        _option(
            "--inject-reducible-rate", float, 0.1,
            "fraction of samples replaced by constructed reducible tuples (default 0.1)",
        ),
        _option("--log10-modulus-min", float, -1.0, "lower log10 modulus bound (default -1)"),
        _option("--log10-modulus-max", float, 1.0, "upper log10 modulus bound (default 1)"),
        _option(
            "--regime-filter", str, None, "restrict samples and injections to one regime",
            choices=("equal", "distinct"),
        ),
        _option(
            "--fixtures-out", str, None,
            "also write all disagreement records to FILE as JSON", metavar="FILE",
        ),
    )
    only = _option(
        "--only", str, None,
        f"run a single identity; one of: {', '.join(REGISTRY)}", metavar="NAME",
    )
    # positionals: (dest, help) pairs, filled in order
    param_file = (("param_file", "JSON parameter file"),)
    return _Parser(
        "heckeg7",
        "Build 2-dimensional Hecke-algebra representations at complex parameter\n"
        "values, decide irreducibility against a brute-force oracle, and verify\n"
        "the underlying identities exactly.",
        (
            SimpleNamespace(
                name="check", handler=cmd_check, positionals=param_file, options=common,
                help="decide irreducibility for one parameter file",
            ),
            SimpleNamespace(
                name="sweep", handler=cmd_sweep, positionals=(), options=sweep + common,
                help="randomized criteria-vs-oracle agreement sweep",
            ),
            SimpleNamespace(
                name="identities", handler=cmd_identities, positionals=(),
                options=(only, output), help="run the exact symbolic identity suite",
            ),
            SimpleNamespace(
                name="relations", handler=cmd_relations, positionals=param_file,
                options=common, help="braid/eigenvalue relation residuals for one file",
            ),
        ),
    )


@functools.cache
def _parser() -> _Parser:
    # through the module global, so that a wrapper set on cli.build_parser
    # (perfbench/tracing.py) sees the one build
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    The parser is built on the first call, not at import, and every later
    call in the process reuses it.  That is safe because parse_args does
    not mutate the parser, every refusal raises InvalidParams instead of
    exiting, prog is fixed, and each subcommand's handler is bound when
    the parser is built (so patching a cmd_* function after the first call
    would not reach it; nothing does).  InvalidParams from anywhere below
    is the one exception mapped to INPUT_ERROR, here and nowhere else.
    """
    try:
        args = _parser().parse_args(argv)
        tolerance = getattr(args, "tolerance", 1.0)  # identities takes none
        if not 0 < tolerance < math.inf:
            raise InvalidParams("--tolerance must be positive and finite")
        return args.handler(args)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
