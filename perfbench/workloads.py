"""Benchmark workloads: seeded request generation and output checks.

Every request is an argv for ``heckeg7.cli.main``.  Request seeds are
distinct within a run and derived from the benchmark seed alone, so one
seed always yields the same requests.  ``check`` verifies each response
against how its input was made and returns a ``Checked`` record.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

SWEEP_SAMPLES = 1000
INJECT_RATE = 0.1  # the CLI default
IDENTITY_REPORTS = (
    "reducibility-condition-factorization",
    "w-factorization",
    "braid-hecke-relations",
    "conjugation-formulas",
    "conjugated-upper-right-vanishing",
    "invariant-line-eigenrelations",
)
CORPUS_FILES = 1024

SWEEP_ARGV = {
    "sweep-positive-real": ["sweep", "--samples", str(SWEEP_SAMPLES),
                            "--domain", "positive-real"],
    "sweep-complex-wide": ["sweep", "--samples", str(SWEEP_SAMPLES),
                           "--domain", "general-complex",
                           "--log10-modulus-min", "-3", "--log10-modulus-max", "3"],
}

WORKLOADS = {
    "sweep-positive-real": (
        "decide does ~3/4 of the work and almost no sample disagrees, so "
        "render and branch-flip changes should not move it"
    ),
    "sweep-complex-wide": (
        "~5% of samples disagree: exercises the flip oracle, disagreement "
        "rendering and wide-band redraws; known unresolved samples fail"
    ),
    "identities": (
        "exact arithmetic does ~98% of the work, one request per fresh "
        "interpreter, so import time counts and memoisation cannot"
    ),
    "check-corpus": (
        "warm check requests over a mixed file corpus: load_params, residuals "
        "and the fixed per-request CLI cost"
    ),
}

@dataclass
class Request:
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Checked:
    items: int  # sweep samples, identity checks, or checked points
    failed_items: int
    request_failed: bool
    problems: list[str]  # output checks that did not hold
    injected: int = 0
    sha256: str = ""


def request_seeds(seed: int):
    """Distinct request seeds derived from the benchmark seed."""
    base = random.Random(seed).randrange(2**31)
    k = 0
    while True:
        yield base + k
        k += 1


def sweep_requests(workload: str, seed: int):
    for request_seed in request_seeds(seed):
        yield Request(SWEEP_ARGV[workload] + ["--seed", str(request_seed)],
                      {"seed": request_seed, "samples": SWEEP_SAMPLES})


def expected_injections(samples: int, rate: float) -> int:
    return sum(1 for i in range(samples)
               if math.floor((i + 1) * rate) > math.floor(i * rate))


# ---------------------------------------------------------------------------
# check-corpus


def _draw(rng: random.Random) -> complex:
    modulus = 10.0 ** rng.uniform(-1.0, 1.0)
    argument = rng.uniform(-math.pi, math.pi)
    return complex(modulus * math.cos(argument), modulus * math.sin(argument))


def _separated(a: complex, b: complex) -> bool:
    return abs(a - b) >= 1e-3 * max(1.0, abs(a), abs(b))


def _point(rng: random.Random, case: str | None, params_cls, solve_case):
    while True:
        p = params_cls(*(_draw(rng) for _ in range(6)))
        if case is None:
            if _separated(p.x1, p.x2):
                return p
            continue
        if case.startswith("equal") and not (
            _separated(p.y1, p.y2) and _separated(p.y1, -p.y2)
        ):
            continue
        q = solve_case(case, p)
        solved = q.z1 if case.startswith("equal") else q.x1
        if 1e-3 <= abs(solved) <= 1e3 and (case.startswith("equal")
                                            or _separated(q.x1, q.x2)):
            return q


def _encode(z: complex, polar: bool) -> dict:
    if polar:
        argument = math.atan2(z.imag, z.real)
        # the CLI takes arguments in (-pi, pi]
        return {"modulus": abs(z), "argument": math.pi if argument <= -math.pi else argument}
    return {"re": z.real, "im": z.imag}


def write_corpus(directory: str, seed: int) -> tuple[list[Request], dict]:
    """Write the parameter files; return their requests and the mix."""
    from heckeg7.irreducibility import ALL_CASES, solve_case
    from heckeg7.representation import Params

    cases = tuple(ALL_CASES)

    rng = random.Random(f"check-corpus:{seed}")
    mix = {"injected": 0, "random": 0, "r-sign+1": 0, "r-sign-1": 0,
           "re-im": 0, "modulus-argument": 0, "cubic": 0, "json": 0, "text": 0}
    requests = []
    for k in range(CORPUS_FILES):
        case = cases[(k // 2) % len(cases)] if k % 2 == 0 else None
        p = _point(rng, case, Params, solve_case)
        polar = rng.random() < 0.5
        doc = {name: _encode(value, polar) for name, value in p.as_dict().items()}
        cubic = rng.random() < 0.25
        if cubic:
            doc["y3"] = _encode(_draw(rng), polar)
            doc["z3"] = _encode(_draw(rng), polar)
        r_sign = rng.choice(("1", "-1"))
        output = rng.choice(("json", "text"))
        path = os.path.join(directory, f"point-{k:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        requests.append(Request(
            ["check", path, "--r-sign", r_sign, "--output", output],
            {"injected": case is not None, "cubic": cubic, "output": output},
        ))
        mix["injected" if case else "random"] += 1
        mix["r-sign+1" if r_sign == "1" else "r-sign-1"] += 1
        mix["modulus-argument" if polar else "re-im"] += 1
        mix["cubic"] += cubic
        mix[output] += 1
    return requests, {k: v / CORPUS_FILES for k, v in mix.items()}


def corpus_requests(requests: list[Request]):
    """Cycle over the corpus without ever repeating an argv: before each
    pass after the first, every file is renamed to a name of that pass, so
    caching results by path or argv across requests cannot pay off."""
    yield from requests
    paths = [req.argv[1] for req in requests]
    for n in itertools.count(1):
        for k, req in enumerate(requests):
            renamed = req.argv[1].removesuffix(".json") + f".pass{n}.json"
            os.rename(paths[k], renamed)
            paths[k] = renamed
            yield Request([req.argv[0], renamed, *req.argv[2:]], req.expect)


# ---------------------------------------------------------------------------
# output checks


def _sweep_failed_samples(doc: dict) -> set[int]:
    """Samples that are unresolved, fail the witness check, or fail the
    predicted-direction check; each sample counts once."""
    failed = {d["index"] for d in doc["disagreements"]
              if d["classification"] == "disagree-unresolved"}
    failed.update(doc["injected"]["witness-failures"])
    failed.update(doc["injected"]["predicted-direction-mismatches"])
    return failed


def check_sweep(req: Request, code: int, out: str) -> Checked:
    if code not in (0, 2):
        samples = req.expect["samples"]
        return Checked(samples, samples, True, [f"exit code {code}"])
    problems = []
    doc = json.loads(out)
    counts, injected = doc["counts"], doc["injected"]
    samples = doc["config"]["samples"]
    if samples != req.expect["samples"] or doc["config"]["seed"] != req.expect["seed"]:
        problems.append("config does not echo the request")
    if sum(counts.values()) != samples:
        problems.append("counts do not sum to --samples")
    if injected["total"] != expected_injections(samples, INJECT_RATE):
        problems.append("injected total does not match the rate")
    if sum(injected["per-case"].values()) != injected["total"]:
        problems.append("per-case injections do not sum to the total")
    resolved = counts["disagree-resolved-by-branch"]
    unresolved = counts["disagree-unresolved"]
    if len(doc["disagreements"]) != resolved + unresolved:
        problems.append("disagreement records do not match the counts")
    if code != (2 if unresolved else 0):
        problems.append(f"exit code {code} with {unresolved} unresolved")
    return Checked(samples, len(_sweep_failed_samples(doc)), False, problems,
                   injected=injected["total"])


def check_identities(req: Request, code: int, out: str) -> Checked:
    if code not in (0, 2):
        return Checked(0, 0, True, [f"exit code {code}"])
    doc = json.loads(out)
    checks = [c for rep in doc["reports"] for c in rep["checks"]]
    failed = sum(1 for c in checks if not c["ok"])
    problems = []
    if tuple(rep["name"] for rep in doc["reports"]) != IDENTITY_REPORTS:
        problems.append("unexpected report list")
    if doc["failed"] != 0:
        problems.append(f"{doc['failed']} identity reports failed")
    return Checked(len(checks), failed, code != 0 or failed > 0, problems)


def _check_fields(out: str, output: str) -> tuple[str, bool, bool, set[str]]:
    """(criteria decision, agreement, resolved by the flip, residual rows)."""
    if output == "json":
        doc = json.loads(out)
        v = doc["verdict"]
        diag = v["branch-diagnosis"]
        return (v["theorem-decision"], v["agreement"],
                bool(diag and diag["resolved"]),
                set(doc["relations"]["hecke-residuals"]))
    lines = dict(line.split(": ", 1) for line in out.splitlines()
                 if not line.startswith("  "))
    rows = {item.split("=", 1)[0] for item in lines["hecke residuals"].split()}
    return (lines["criteria decision"], lines["agreement"] == "yes",
            lines["branch diagnosis"].startswith("disagreement disappears"), rows)


def check_point(req: Request, code: int, out: str) -> Checked:
    if code not in (0, 2):
        return Checked(1, 1, True, [])
    decision, agreement, resolved, rows = _check_fields(out, req.expect["output"])
    problems = []
    expected = "reducible" if req.expect["injected"] else "irreducible"
    if decision != expected:
        problems.append(f"criteria say {decision}, point was built {expected}")
    if code != (0 if agreement else 2):
        problems.append(f"exit code {code} with agreement={agreement}")
    cubic_rows = {"s2_cubic", "s3_cubic"} if req.expect["cubic"] else set()
    if rows != {"s1", "s2", "s3"} | cubic_rows:
        problems.append(f"residual rows {sorted(rows)}")
    failed = not agreement and not resolved
    return Checked(1, int(failed), failed, problems)


CHECKERS = {
    "sweep-positive-real": check_sweep,
    "sweep-complex-wide": check_sweep,
    "identities": check_identities,
    "check-corpus": check_point,
}


def check(workload: str, req: Request, code: int, body: bytes) -> Checked:
    out = body.decode()
    try:
        result = CHECKERS[workload](req, code, out)
    except (ValueError, KeyError, TypeError) as exc:
        result = Checked(0, 0, True, [f"unreadable output: {exc!r}"])
    result.sha256 = hashlib.sha256(body).hexdigest()
    return result
