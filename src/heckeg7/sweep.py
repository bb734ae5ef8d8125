"""Randomized validation sweeps over parameter space.

The sweep draws random specializations, runs the closed-form criteria and
the brute-force oracle on each, and tallies agreement.  Because a random
continuous draw satisfies a reducibility condition with probability zero,
the sweep also injects constructed reducible tuples at a configured rate:
five parameters are drawn and the remaining one is solved from a rotating
reducibility case so the condition holds exactly in floating point.  For
every injected tuple the produced invariant vector is re-checked against
all three generators at the branch that produced it.  That vector comes
from run_sweep's one split of the verdict: the oracle's at the configured
r sign when the deciders agree, the flipped branch's at the opposite sign
when the flip resolves a disagreement, and none (a witness failure)
otherwise.  For the first equal-x case the predicted direction
(-1/(x2*y2), 1) is additionally verified to be invariant, and the witness
must land on it or on the complementary invariant direction
(-1/(x2*y1), 1) -- in that case the representation splits completely, so
the invariant line is not unique and the oracle may return either one.

A disagreement counts as resolved only when the criteria and the flipped
branch's oracle both say reducible.  The regime filter only chooses what is
drawn; every sample goes through the same decide.

Results are JSON-ready dicts with deterministic content: one seed and one
config always produce byte-identical serialized output.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .irreducibility import (
    DISTINCT_X,
    DISTINCT_X_CASES,
    EQUAL_X,
    EQUAL_X_CASES,
    REDUCIBLE,
    decide,
    equal_x_lines,
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

_EQUAL_CASE_IDS = tuple(EQUAL_X_CASES)
_DISTINCT_CASE_IDS = tuple(DISTINCT_X_CASES)

# Injected tuples are redrawn until they are robustly inside their intended
# case: the solved parameter must have sane modulus, distinct-x tuples must
# keep x1 and x2 separated, and equal-x tuples must keep y1 away from +-y2
# (at y1 = +-y2 the two equal-x conditions collapse into each other).
_SEPARATION = 1e-3
_SOLVED_MODULUS_MIN = 1e-6
_SOLVED_MODULUS_MAX = 1e6
_MAX_REDRAWS = 1000


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
    return abs(a - b) >= _SEPARATION * max(1.0, abs(a), abs(b))


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
    equal_case = case_id in _EQUAL_CASE_IDS
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


def _injection_case(cfg: SweepConfig, injection_index: int) -> str:
    if cfg.regime_filter == EQUAL_X:
        return _EQUAL_CASE_IDS[injection_index % len(_EQUAL_CASE_IDS)]
    if cfg.regime_filter == DISTINCT_X:
        return _DISTINCT_CASE_IDS[injection_index % len(_DISTINCT_CASE_IDS)]
    within = injection_index // 2
    if injection_index % 2 == 0:
        return _EQUAL_CASE_IDS[within % len(_EQUAL_CASE_IDS)]
    return _DISTINCT_CASE_IDS[within % len(_DISTINCT_CASE_IDS)]


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
    """The equal-x Case 1 prediction check on the producing branch's triple g.

    The predicted invariant direction is (-1/(x2*y2), 1).  The invariant
    line is not unique in this case -- the representation splits completely
    and (-1/(x2*y1), 1) is invariant too (verified exactly by the identity
    suite) -- so the oracle may legitimately return either line.  The check
    requires (a) the predicted direction really is invariant under all three
    generators and (b) the produced witness is parallel to one of the two
    invariant lines.
    """
    predicted, complementary = map(normalize_direction, equal_x_lines(p.x2, p.y1, p.y2))
    if not _invariant(g, predicted, tol):
        return False
    return _direction_eq(witness, predicted, tol) or _direction_eq(
        witness, complementary, tol
    )


def run_sweep(cfg: SweepConfig) -> SweepResult:
    cfg.validate()
    rng = random.Random(cfg.seed)
    counts = {
        AGREE_IRREDUCIBLE: 0,
        AGREE_REDUCIBLE: 0,
        DISAGREE_RESOLVED: 0,
        DISAGREE_UNRESOLVED: 0,
    }
    injected_total = 0
    injected_per_case: dict[str, int] = {}
    witness_failures: list[int] = []
    predicted_mismatches: list[int] = []
    disagreements: list[dict] = []

    rate = cfg.inject_reducible_rate
    tol = cfg.tolerance
    # sample i is injected when floor((i + 1) * rate) > floor(i * rate); each
    # floor is computed once and carried over to the next sample
    floor_below = math.floor(0 * rate)
    for i in range(cfg.samples):
        floor_above = math.floor((i + 1) * rate)
        case_id: str | None = None
        if floor_above > floor_below:
            case_id = _injection_case(cfg, injected_total)
            p = _draw_injected_sample(rng, cfg, case_id)
            injected_total += 1
            injected_per_case[case_id] = injected_per_case.get(case_id, 0) + 1
        else:
            p = _draw_random_sample(rng, cfg)
        floor_below = floor_above
        triples: dict[int, GeneratorTriple] = {}
        v = decide(p, r_sign=cfg.r_sign, tol=tol, triples=triples)
        # the one split of a verdict: its classification, and the invariant
        # vector it produced with the branch (r sign) that produced it
        d = v.branch_diagnosis
        if v.agreement:
            classification = (
                AGREE_REDUCIBLE if v.oracle_decision == REDUCIBLE else AGREE_IRREDUCIBLE
            )
            witness, sign = v.invariant_vector, v.r_sign
        elif d is not None and d.resolved:
            classification = DISAGREE_RESOLVED
            witness, sign = d.flipped_invariant_vector, -v.r_sign
        else:
            classification = DISAGREE_UNRESOLVED
            witness = sign = None
        counts[classification] += 1
        if case_id is not None:
            # the witness is re-checked on the triple that produced it
            if witness is None or not _invariant(triples[sign], witness, tol):
                witness_failures.append(i)
            elif case_id == "equal-x-1" and not _predicted_direction_ok(
                p, triples[sign], witness, tol
            ):
                predicted_mismatches.append(i)
        if not v.agreement:
            disagreements.append({
                "index": i,
                "params": params_as_dict(p),
                "injected-case": case_id,
                "classification": classification,
                "verdict": verdict_as_dict(v),
            })

    return SweepResult(
        config=cfg,
        counts=counts,
        injected_total=injected_total,
        injected_per_case=dict(sorted(injected_per_case.items())),
        witness_failures=tuple(witness_failures),
        predicted_mismatches=tuple(predicted_mismatches),
        disagreements=tuple(disagreements),
    )
