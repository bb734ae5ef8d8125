"""Randomized validation sweeps over parameter space.

The sweep draws random specializations, runs the closed-form criteria and
the brute-force oracle on each, and tallies agreement.  Because a random
continuous draw satisfies a reducibility condition with probability zero,
the sweep also injects constructed reducible tuples at a configured rate:
five parameters are drawn and the remaining one is solved from a rotating
reducibility case so the condition holds exactly in floating point.  For
every injected tuple the produced invariant vector is re-checked against
all three generators at the branch that produced it.  For the first equal-x
case the predicted direction (-1/(x2*y2), 1) is additionally verified to be
invariant, and the witness must land on it or on the complementary
invariant direction (-1/(x2*y1), 1) -- in that case the representation
splits completely, so the invariant line is not unique and the oracle may
return either one.

A disagreement counts as resolved only when the criteria and the flipped
branch's oracle both say reducible.  The regime filter only chooses what is
drawn; every sample goes through the same decide.

Results are JSON-ready dicts with deterministic content: one seed and one
config always produce byte-identical serialized output.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .irreducibility import (
    DISTINCT_X,
    DISTINCT_X_CASES,
    EQUAL_X,
    EQUAL_X_CASES,
    REDUCIBLE,
    Verdict,
    decide,
    equal_x_lines,
    solve_case,
)
from .matrix2 import Vec2, normalize_direction, parallel
from .numerics import VERDICT_TOL, approx_eq
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


class SweepConfig(NamedTuple):
    samples: int = 10000
    seed: int = 42
    domain: str = POSITIVE_REAL
    tolerance: float = VERDICT_TOL
    r_sign: int = 1
    inject_reducible_rate: float = 0.1
    log10_modulus_min: float = -1.0
    log10_modulus_max: float = 1.0
    regime_filter: str | None = None

    def validate(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.r_sign not in (1, -1):
            raise ValueError("r_sign must be +1 or -1")
        if not 0.0 <= self.inject_reducible_rate <= 1.0:
            raise ValueError("inject_reducible_rate must lie in [0, 1]")
        for bound in (self.log10_modulus_min, self.log10_modulus_max):
            if not math.isfinite(bound):
                raise ValueError(f"log10 modulus bound {bound} is not finite")
            try:
                10.0 ** bound
            except OverflowError:
                raise ValueError(
                    f"log10 modulus bound {bound:g} overflows: "
                    f"10 ** {bound:g} exceeds the largest float"
                ) from None
        if self.log10_modulus_min > self.log10_modulus_max:
            raise ValueError("log10 modulus band is empty")
        if self.regime_filter not in (None, EQUAL_X, DISTINCT_X):
            raise ValueError(f"regime_filter must be {EQUAL_X!r}, {DISTINCT_X!r} or None")


class SweepResult(NamedTuple):
    config: SweepConfig
    counts: dict[str, int]
    injected_total: int
    injected_per_case: dict[str, int]
    witness_failures: tuple[int, ...]
    predicted_mismatches: tuple[int, ...]
    disagreements: tuple[dict, ...]

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

class DrawFailed(RuntimeError):
    """No draw out of _MAX_REDRAWS met the sanity bounds within the band."""


def _draw_base(rng: random.Random, cfg: SweepConfig) -> Params:
    """Six values, each bit-for-bit from_polar(modulus, argument) with the
    modulus 10 ** rng.uniform(lo, hi) (1.0 on the unit circle) drawn before
    the argument pi - rng.random() * 2.0 * pi (0.0 on the positive reals).
    uniform is written out as its own formula; from_polar's products by
    1.0 and 0.0 are exact, so they are left out."""
    random_ = rng.random
    lo = cfg.log10_modulus_min
    span = cfg.log10_modulus_max - lo
    pi, cos, sin = math.pi, math.cos, math.sin
    if cfg.domain == POSITIVE_REAL:
        values = [complex(10.0 ** (lo + span * random_()), 0.0) for _ in range(6)]
    elif cfg.domain == UNIT_MODULUS:
        arguments = [pi - random_() * 2.0 * pi for _ in range(6)]
        values = [complex(cos(a), sin(a)) for a in arguments]
    else:
        values = []
        for _ in range(6):
            modulus = 10.0 ** (lo + span * random_())
            argument = pi - random_() * 2.0 * pi
            values.append(complex(modulus * cos(argument), modulus * sin(argument)))
    return Params(*values)


def _separated(a: complex, b: complex) -> bool:
    return abs(a - b) >= _SEPARATION * max(1.0, abs(a), abs(b))


def _solved_sane(z: complex) -> bool:
    return _SOLVED_MODULUS_MIN <= abs(z) <= _SOLVED_MODULUS_MAX


def _draw_random_sample(rng: random.Random, cfg: SweepConfig) -> Params:
    for _ in range(_MAX_REDRAWS):
        base = _draw_base(rng, cfg)
        if cfg.regime_filter == EQUAL_X:
            return Params(base.x2, base.x2, base.y1, base.y2, base.z1, base.z2)
        if cfg.regime_filter == DISTINCT_X and not _separated(base.x1, base.x2):
            continue
        return base
    raise DrawFailed("could not draw a sample satisfying the regime filter")


def _draw_injected_sample(
    rng: random.Random, cfg: SweepConfig, case_id: str
) -> Params:
    equal_case = case_id in _EQUAL_CASE_IDS
    for _ in range(_MAX_REDRAWS):
        base = _draw_base(rng, cfg)
        if equal_case and not (
            _separated(base.y1, base.y2) and _separated(base.y1, -base.y2)
        ):
            continue
        try:
            q = solve_case(case_id, base)
        except InvalidParams:
            continue  # the solved value is zero or not finite: not sane either
        if equal_case:
            if not _solved_sane(q.z1):
                continue
        elif not (_solved_sane(q.x1) and _separated(q.x1, q.x2)):
            continue
        return q
    raise DrawFailed(f"could not construct a sane tuple for case {case_id}")


def _injection_case(cfg: SweepConfig, injection_index: int) -> str:
    if cfg.regime_filter == EQUAL_X:
        return _EQUAL_CASE_IDS[injection_index % len(_EQUAL_CASE_IDS)]
    if cfg.regime_filter == DISTINCT_X:
        return _DISTINCT_CASE_IDS[injection_index % len(_DISTINCT_CASE_IDS)]
    within = injection_index // 2
    if injection_index % 2 == 0:
        return _EQUAL_CASE_IDS[within % len(_EQUAL_CASE_IDS)]
    return _DISTINCT_CASE_IDS[within % len(_DISTINCT_CASE_IDS)]


def _producing_witness(v: Verdict) -> tuple[Vec2, int] | None:
    """The invariant vector the run produced, with the branch it came from."""
    if v.agreement:
        if v.invariant_vector is None:
            return None
        return v.invariant_vector, v.r_sign
    d = v.branch_diagnosis
    if d is not None and d.resolved:
        return d.flipped_invariant_vector, -v.r_sign
    return None


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


def _disagreement_record(
    index: int, p: Params, case_id: str | None, v: Verdict, classification: str
) -> dict:
    return {
        "index": index,
        "params": params_as_dict(p),
        "injected-case": case_id,
        "classification": classification,
        "verdict": verdict_as_dict(v),
    }


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
        if v.agreement:
            classification = (
                AGREE_REDUCIBLE if v.oracle_decision == REDUCIBLE else AGREE_IRREDUCIBLE
            )
        elif v.branch_diagnosis is not None and v.branch_diagnosis.resolved:
            classification = DISAGREE_RESOLVED
        else:
            classification = DISAGREE_UNRESOLVED
        counts[classification] += 1
        if case_id is not None:
            # the witness is re-checked on the triple that produced it
            found = _producing_witness(v)
            if found is None or not _invariant(triples[found[1]], found[0], tol):
                witness_failures.append(i)
            elif case_id == "equal-x-1" and not _predicted_direction_ok(
                p, triples[found[1]], found[0], tol
            ):
                predicted_mismatches.append(i)
        if not v.agreement:
            disagreements.append(_disagreement_record(i, p, case_id, v, classification))

    return SweepResult(
        config=cfg,
        counts=counts,
        injected_total=injected_total,
        injected_per_case=dict(sorted(injected_per_case.items())),
        witness_failures=tuple(witness_failures),
        predicted_mismatches=tuple(predicted_mismatches),
        disagreements=tuple(disagreements),
    )
