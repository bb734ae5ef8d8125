"""Randomized validation sweeps over parameter space.

The sweep draws random specializations, runs the closed-form criteria and
the brute-force oracle on each, and tallies agreement.  Because a random
continuous draw satisfies a reducibility condition with probability zero,
the sweep also injects constructed reducible tuples at a configured rate:
five parameters are drawn and the remaining one is solved from a rotating
reducibility case so the condition holds exactly in floating point.  For
every injected tuple the produced invariant vector is re-checked against
all three generators of the triple it came with.  That pair comes from the
sweep's one split of the verdict (_classify): Verdict.invariant_vector and
.triple when the deciders agree, the flipped_ pair of the branch diagnosis
when the flip resolves a disagreement, and none (a witness failure)
otherwise.  For the first equal-x case the predicted direction must also
be invariant, and the witness must lie on it or on the complementary
invariant line (_predicted_direction_ok).

A disagreement counts as resolved only when the criteria and the flipped
branch's oracle both say reducible.  The regime filter only chooses what is
drawn; every sample goes through the same decide.

Results are JSON-ready dicts with deterministic content: one seed and one
config always produce byte-identical serialized output.  A sweep of at
least 256 samples, in a process with two CPUs and one thread, forks one
helper: this process draws samples [0, k), k = 7n/12, then classifies
them while the helper walks [k, n) on from the generator state it
inherits and sends its records back with marshal, which keeps every float
bit.  The draws stay sequential, so there is one helper at most.  It
changes no byte, exit code or error line: if it fails in any way this
process walks [k, n) itself, and a draw that fails in [0, k) sends the
sweep down the one-process walk from the start, which meets it in order.
"""

from __future__ import annotations

import marshal
import math
import os
import random
from collections import namedtuple

from .irreducibility import (
    DISTINCT_X,
    DISTINCT_X_CASES,
    EQUAL_X,
    EQUAL_X_CASES,
    REDUCIBLE,
    decide,
    s2_eigenlines,
    solve_case,
)
from .matrix2 import Vec2, normalize_direction, parallel
from .numerics import VERDICT_TOL, approx_eq, from_polar
from .render import params_as_dict, verdict_as_dict
from .representation import GeneratorTriple, InvalidParams, Params
# Not called here: perfbench/tracing.py wraps these names on this module.
from .representation import build_equal_x, build_general  # noqa: F401

SCHEMA_VERSION = 2

POSITIVE_REAL = "positive-real"
UNIT_MODULUS = "unit-modulus"
GENERAL_COMPLEX = "general-complex"
DOMAINS = (POSITIVE_REAL, UNIT_MODULUS, GENERAL_COMPLEX)

AGREE_IRREDUCIBLE = "agree-irreducible"
AGREE_REDUCIBLE = "agree-reducible"
DISAGREE_RESOLVED = "disagree-resolved-by-branch"
DISAGREE_UNRESOLVED = "disagree-unresolved"

# Each regime filter's injected cases, taken in turn by injection count; with
# no filter the regimes alternate: e1 d1 e2 d2 e1 d3 e2 d4.
_CASE_CYCLES = {
    EQUAL_X: tuple(EQUAL_X_CASES),
    DISTINCT_X: tuple(DISTINCT_X_CASES),
    None: tuple(c for pair in zip([*EQUAL_X_CASES] * 2, DISTINCT_X_CASES) for c in pair),
}

# Injected tuples are redrawn until they are robustly inside their intended
# case: the solved parameter must have sane modulus, distinct-x tuples must
# keep x1 and x2 separated, and equal-x tuples must keep y1 away from +-y2
# (at y1 = +-y2 the two equal-x conditions collapse into each other).
_SEPARATION = 1e-3
_SOLVED_MODULUS_MIN = 1e-6
_SOLVED_MODULUS_MAX = 1e6
_MAX_REDRAWS = 1000

# the shortest sweep that forks a helper; a fork costs about 100 samples' work
_HELPER_MIN_SAMPLES = 256


class SweepConfig(namedtuple(
    "SweepConfig",
    (
        "samples", "seed", "domain", "tolerance", "r_sign", "inject_reducible_rate",
        "log10_modulus_min", "log10_modulus_max", "regime_filter",
    ),
    defaults=(10000, 42, POSITIVE_REAL, VERDICT_TOL, 1, 0.1, -1.0, 1.0, None),
)):
    __slots__ = ()

    def validate(self) -> None:
        for name in ("samples", "seed", "r_sign"):
            if type(getattr(self, name)) is not int:  # bool included
                raise InvalidParams(f"{name} must be an int")
        if self.samples < 1:
            raise InvalidParams("samples must be >= 1")
        if self.domain not in DOMAINS:
            raise InvalidParams(f"domain must be one of {DOMAINS}")
        if not 0 < self.tolerance < math.inf:
            raise InvalidParams("tolerance must be positive and finite")
        if self.r_sign not in (1, -1):
            raise InvalidParams("r_sign must be +1 or -1")
        if not 0.0 <= self.inject_reducible_rate <= 1.0:
            raise InvalidParams("inject_reducible_rate must lie in [0, 1]")
        for bound in (self.log10_modulus_min, self.log10_modulus_max):
            if not math.isfinite(bound):
                raise InvalidParams(f"log10 modulus bound {bound} is not finite")
            try:
                10.0 ** bound
            except OverflowError:
                raise InvalidParams(
                    f"log10 modulus bound {bound:g} overflows: "
                    f"10 ** {bound:g} exceeds the largest float"
                ) from None
        lo = self.log10_modulus_min
        if 10.0 ** lo == 0.0:
            raise InvalidParams(
                f"log10 modulus bound {lo:g} underflows: "
                f"10 ** {lo:g} rounds to 0, below the smallest float"
            )
        if lo > self.log10_modulus_max:
            raise InvalidParams("log10 modulus band is empty")
        if self.regime_filter not in (None, EQUAL_X, DISTINCT_X):
            raise InvalidParams(f"regime_filter must be {EQUAL_X!r}, {DISTINCT_X!r} or None")


class SweepResult(namedtuple("SweepResult", (
    "config", "counts", "injected_total", "injected_per_case",
    "witness_failures", "predicted_mismatches", "disagreements",
))):
    __slots__ = ()

    def unresolved(self) -> int:
        return self.counts[DISAGREE_UNRESOLVED]

    def as_dict(self) -> dict:
        cfg = self.config
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep-summary",
            "config": {
                name.replace("_", "-"): value for name, value in cfg._asdict().items()
            },
            "counts": dict(self.counts),
            "injected": {
                "total": self.injected_total,
                "per-case": dict(self.injected_per_case),
                "witness-failures": list(self.witness_failures),
                "predicted-direction-mismatches": list(self.predicted_mismatches),
            },
            "disagreements": list(self.disagreements),
        }


# ---------------------------------------------------------------------------
# sampling

def _draw_values(rng: random.Random, cfg: SweepConfig) -> list[complex]:
    """Six values from_polar(modulus, argument), each modulus
    10 ** rng.uniform(lo, hi) (1.0 on the unit circle) drawn before its
    argument pi - rng.random() * 2.0 * pi (0.0 on the positive reals).
    uniform is written out as its own formula."""
    random_ = rng.random
    lo = cfg.log10_modulus_min
    span = cfg.log10_modulus_max - lo
    unit = cfg.domain == UNIT_MODULUS
    real = cfg.domain == POSITIVE_REAL
    pi = math.pi
    return [
        from_polar(
            1.0 if unit else 10.0 ** (lo + span * random_()),
            0.0 if real else pi - random_() * 2.0 * pi,
        )
        for _ in range(6)
    ]


def _separated(a: complex, b: complex) -> bool:
    d, mod_a, mod_b = abs(a - b), abs(a), abs(b)
    return d >= _SEPARATION and not (d < _SEPARATION * mod_a or d < _SEPARATION * mod_b)


def _solved_sane(z: complex) -> bool:
    return _SOLVED_MODULUS_MIN <= abs(z) <= _SOLVED_MODULUS_MAX


def _draw_random_sample(rng: random.Random, cfg: SweepConfig) -> Params:
    for _ in range(_MAX_REDRAWS):
        x1, x2, y1, y2, z1, z2 = _draw_values(rng, cfg)
        if cfg.regime_filter == EQUAL_X:
            return Params(x2, x2, y1, y2, z1, z2)
        if cfg.regime_filter == DISTINCT_X and not _separated(x1, x2):
            continue
        return Params(x1, x2, y1, y2, z1, z2)
    raise InvalidParams("could not draw a sample satisfying the regime filter")


def _draw_injected_sample(
    rng: random.Random, cfg: SweepConfig, case_id: str
) -> Params:
    equal_case = case_id in EQUAL_X_CASES
    for _ in range(_MAX_REDRAWS):
        # only the solved point is built, and so validated
        values = _draw_values(rng, cfg)
        y1, y2 = values[2], values[3]
        if equal_case and not (_separated(y1, y2) and _separated(y1, -y2)):
            continue
        try:
            q = solve_case(case_id, values)
        except InvalidParams:
            continue  # the solved value is zero or not finite: not sane either
        if equal_case:
            if not _solved_sane(q.z1):
                continue
        elif not (_solved_sane(q.x1) and _separated(q.x1, q.x2)):
            continue
        return q
    raise InvalidParams(f"could not construct a sane tuple for case {case_id}")


def _invariant(g: GeneratorTriple, v: Vec2, tol: float) -> bool:
    return all(parallel(m.apply(v), v, tol) for m in g)


def _direction_eq(u: Vec2, v: Vec2, tol: float) -> bool:
    un, vn = normalize_direction(u), normalize_direction(v)
    if approx_eq(un[0], vn[0], tol) and approx_eq(un[1], vn[1], tol):
        return True
    # fall back to a parallelism test in case normalization picked different
    # pivot components of two equal-modulus entries
    return parallel(un, vn, tol)


def _predicted_direction_ok(
    p: Params, g: GeneratorTriple, witness: Vec2, tol: float
) -> bool:
    """The equal-x Case 1 prediction check on the witness's triple g.

    The predicted invariant direction is (-1/(x1*y2), 1), the first of
    s2_eigenlines.  The invariant line is not unique in this case -- the
    representation splits completely and (-1/(x1*y1), 1) is invariant too
    (verified exactly by the identity suite) -- so the oracle may
    legitimately return either line.  The check requires (a) the predicted
    direction really is invariant under all three generators and (b) the
    produced witness is parallel to one of the two invariant lines.
    """
    predicted, complementary = map(normalize_direction, s2_eigenlines(p.x1, p.y1, p.y2))
    if not _invariant(g, predicted, tol):
        return False
    return _direction_eq(witness, predicted, tol) or _direction_eq(
        witness, complementary, tol
    )


def _draws(rng: random.Random, cfg: SweepConfig):
    """Each sample's (injected case or None, params), in sample order."""
    rate = cfg.inject_reducible_rate
    cycle = _CASE_CYCLES[cfg.regime_filter]
    injected = 0
    for i in range(cfg.samples):
        # sample i is injected when floor((i + 1) * rate) > floor(i * rate)
        if math.floor((i + 1) * rate) > math.floor(i * rate):
            case_id = cycle[injected % len(cycle)]
            injected += 1
            yield case_id, _draw_injected_sample(rng, cfg, case_id)
        else:
            yield None, _draw_random_sample(rng, cfg)


def _classify(cfg: SweepConfig, i: int, case_id: str | None, p: Params) -> tuple:
    """Sample i's record: (injected case, classification, witness failure,
    predicted-direction mismatch, disagreement record or None).  A witness
    is checked on the triple the verdict hands back with it."""
    tol = cfg.tolerance
    v = decide(p, r_sign=cfg.r_sign, tol=tol)
    # the one split of a verdict: its classification, and the invariant
    # vector it produced with the triple g it is an eigenline of
    d = v.branch_diagnosis
    if v.agreement:
        classification = (
            AGREE_REDUCIBLE if v.oracle_decision == REDUCIBLE else AGREE_IRREDUCIBLE
        )
        witness, g = v.invariant_vector, v.triple
    elif d is not None and d.resolved:
        classification = DISAGREE_RESOLVED
        witness, g = d.flipped_invariant_vector, d.flipped_triple
    else:
        classification = DISAGREE_UNRESOLVED
        witness = g = None
    # an injected sample's witness is re-checked on the triple that produced it
    failed = case_id is not None and (witness is None or not _invariant(g, witness, tol))
    mismatch = case_id == "equal-x-1" and not failed and not _predicted_direction_ok(
        p, g, witness, tol
    )
    record = None if v.agreement else {
        "index": i, "params": params_as_dict(p), "injected-case": case_id,
        "classification": classification, "verdict": verdict_as_dict(v),
    }
    return case_id, classification, failed, mismatch, record


def _helper_can_run(samples: int) -> bool:
    """Long enough to pay for a fork, with a second CPU and no second thread
    (a fork copies only the calling thread)."""
    try:
        return (
            samples >= _HELPER_MIN_SAMPLES
            and len(os.sched_getaffinity(0)) >= 2
            and len(os.listdir("/proc/self/task")) == 1
        )
    except (AttributeError, OSError):  # no affinity or no /proc: no helper
        return False


def _fork(walk, start: int, stop: int):
    """(pid, read end of a pipe) of a helper that writes the marshal of
    walk(start, stop) to it and leaves through os._exit; None if none starts."""
    fds = ()
    try:
        fds = rfd, wfd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(rfd)  # so that a write fails, not blocks, once the reader is gone
            with open(wfd, "wb") as pipe:
                pipe.write(marshal.dumps(walk(start, stop)))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _reap(helper, payload: bytes | None) -> list | None:
    """Reap the helper, killing it first unless its payload was read; its
    records, or None if it failed in any way."""
    pid, pipe = helper
    pipe.close()
    try:
        if payload is None:
            os.kill(pid, 9)  # SIGKILL, without importing signal
        ok = os.waitpid(pid, 0)[1] == 0 and payload is not None
        return marshal.loads(payload) if ok else None
    except (OSError, EOFError, ValueError):  # reaped elsewhere, or a garbled payload
        return None


def run_sweep(cfg: SweepConfig) -> SweepResult:
    cfg.validate()
    draws = _draws(random.Random(cfg.seed), cfg)

    def walk(start: int, stop: int) -> list:
        return [_classify(cfg, i, *next(draws)) for i in range(start, stop)]

    # the split of the module docstring; k = 0 is the one-process walk
    n = cfg.samples
    k = n * 7 // 12 if _helper_can_run(n) else 0
    try:
        drawn = [next(draws) for _ in range(k)]
    except Exception:  # a failed draw: the one-process walk raises it, in sample order
        drawn, k, draws = [], 0, _draws(random.Random(cfg.seed), cfg)
    helper = _fork(walk, k, n) if k else None
    payload = None
    try:
        samples = [_classify(cfg, i, *sample) for i, sample in enumerate(drawn)]
        payload = helper and helper[1].read()
    finally:
        tail = helper and _reap(helper, payload)
    samples += walk(k, n) if tail is None else tail

    counts = dict.fromkeys(
        (AGREE_IRREDUCIBLE, AGREE_REDUCIBLE, DISAGREE_RESOLVED, DISAGREE_UNRESOLVED), 0
    )
    per_case: dict[str, int] = {}
    for case_id, classification, *_ in samples:
        counts[classification] += 1
        if case_id is not None:
            per_case[case_id] = per_case.get(case_id, 0) + 1
    return SweepResult(
        config=cfg,
        counts=counts,
        injected_total=sum(per_case.values()),
        injected_per_case=dict(sorted(per_case.items())),
        witness_failures=tuple(i for i, s in enumerate(samples) if s[2]),
        predicted_mismatches=tuple(i for i, s in enumerate(samples) if s[3]),
        disagreements=tuple(s[4] for s in samples if s[4] is not None),
    )
