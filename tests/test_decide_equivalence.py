"""decide against a reference written out from the formulas.

decide evaluates the criteria, builds each branch's triple once and returns
it beside the witness found on it, for the sweep's witness checks; its
layers are written for speed.  The reference below shares none of that code: the condition
products as written in the condition names, compared by ref_approx_eq; the
triple as Mat2 entries from the formulas of representation's docstring;
the oracle as the eigen-classification kept verbatim in oracle_reference
plus ref_parallel on every candidate.  Every float keeps its operations and
their order, so both must agree bit for bit, signed zeros included, on
seeded points from every sweep domain, the +-3 modulus band included, with
half of the points made reducible by solve_case.  The sweep's witness and
prediction verdicts must match re-checks on freshly built triples.
"""

import math
import random

import pytest

from heckeg7 import render, sweep

from heckeg7.irreducibility import (
    ALL_CASES,
    DISTINCT_X,
    EQUAL_X,
    IRREDUCIBLE,
    REDUCIBLE,
    BranchDiagnosis,
    ConditionFlag,
    Verdict,
    decide,
)
from heckeg7.matrix2 import SCALAR, Mat2, normalize_direction
from heckeg7.numerics import VERDICT_TOL, principal_sqrt
from heckeg7.representation import GeneratorTriple, Params, build_general
from heckeg7.sweep import (
    GENERAL_COMPLEX,
    POSITIVE_REAL,
    UNIT_MODULUS,
    SweepConfig,
    _draw_values,
    _draw_injected_sample,
)
from oracle_reference import (
    bits,
    ref_approx_eq,
    ref_eigen_directions,
    ref_normalize_direction,
    ref_parallel,
)

CONFIGS = (
    SweepConfig(domain=POSITIVE_REAL),
    SweepConfig(domain=UNIT_MODULUS),
    SweepConfig(domain=GENERAL_COMPLEX),
    SweepConfig(domain=GENERAL_COMPLEX, log10_modulus_min=-3, log10_modulus_max=3),
)
POINTS_PER_CONFIG = 500  # x 4 configs = 2,000 points, each on both branches

# Each side of each condition, with the multiplications in name order.
CONDITION_SIDES = {
    "x1*y2*z2 = x2*y1*z1": (lambda p: p.x1 * p.y2 * p.z2, lambda p: p.x2 * p.y1 * p.z1),
    "x1*y1*z2 = x2*y2*z1": (lambda p: p.x1 * p.y1 * p.z2, lambda p: p.x2 * p.y2 * p.z1),
    "x1*y2*z1 = x2*y1*z2": (lambda p: p.x1 * p.y2 * p.z1, lambda p: p.x2 * p.y1 * p.z2),
    "x1*y1*z1 = x2*y2*z2": (lambda p: p.x1 * p.y1 * p.z1, lambda p: p.x2 * p.y2 * p.z2),
}


def reference_triple(p, r_sign):
    """The docstring's s1, s2, s3 with r = r_sign*sqrt(x1*x2*y1*y2*z1*z2);
    the zero entries are the complex zero r - r."""
    x1, x2, y1, y2, z1, z2 = p[:6]
    r = r_sign * principal_sqrt(x1 * x2 * y1 * y2 * z1 * z2)
    return GeneratorTriple(
        Mat2(x1, (y1 + y2) / (y1 * y2) - (z1 + z2) * x2 / r, 0j, x2),
        Mat2(y1 + y2, 1 / x1, -(y1 * y2) * x1, 0j),
        Mat2(0j, -r / (y1 * y2 * x1 * x2), r, z1 + z2),
    )


def reference_oracle(g, tol):
    matrices = list(g)
    candidates = None
    for m in matrices:
        report = ref_eigen_directions(m, tol)
        if report.kind != SCALAR:
            candidates = report.directions
            break
    if candidates is None:
        return REDUCIBLE, (1.0 + 0.0j, 0.0 + 0.0j)
    for v in candidates:
        if all(ref_parallel(m.apply(v), v, tol) for m in matrices):
            return REDUCIBLE, ref_normalize_direction(v)
    return IRREDUCIBLE, None


def reference_verdict(p, r_sign, tol=VERDICT_TOL):
    flags = []
    for name, (lhs_fn, rhs_fn) in CONDITION_SIDES.items():
        lhs, rhs = lhs_fn(p), rhs_fn(p)
        flags.append(ConditionFlag(name, lhs, rhs, ref_approx_eq(lhs, rhs, tol)))
    theorem = REDUCIBLE if any(flag.equal for flag in flags) else IRREDUCIBLE
    triple = reference_triple(p, r_sign)
    oracle, witness = reference_oracle(triple, tol)
    diagnosis = None
    if oracle != theorem:
        flipped_triple = reference_triple(p, -r_sign)
        oracle2, witness2 = reference_oracle(flipped_triple, tol)
        # only a criteria-reducible disagreement can be a branch effect
        resolved = oracle2 == theorem == REDUCIBLE
        diagnosis = BranchDiagnosis(
            flipped_oracle_decision=oracle2,
            resolved=resolved,
            flipped_invariant_vector=witness2,
            flipped_triple=flipped_triple,
        )
    return Verdict(
        regime=EQUAL_X if ref_approx_eq(p.x1, p.x2, tol) else DISTINCT_X,
        r_sign=r_sign,
        tolerance=tol,
        theorem_decision=theorem,
        conditions=tuple(flags),
        oracle_decision=oracle,
        invariant_vector=witness,
        agreement=oracle == theorem,
        branch_diagnosis=diagnosis,
        triple=triple,
    )


def seeded_points(cfg):
    rng = random.Random(f"decide-equivalence:{cfg.domain}:{cfg.log10_modulus_max}")
    cases = sorted(ALL_CASES)
    for i in range(POINTS_PER_CONFIG):
        if i % 2:
            case_id = cases[(i // 2) % len(cases)]
            yield case_id, _draw_injected_sample(rng, cfg, case_id)
        else:
            yield None, Params(*_draw_values(rng, cfg))


@pytest.mark.parametrize(
    "cfg", CONFIGS, ids=lambda c: f"{c.domain}-pm{c.log10_modulus_max:g}"
)
def test_decide_matches_reference_on_both_branches(cfg):
    for case_id, p in seeded_points(cfg):
        for r_sign in (1, -1):
            v = decide(p, r_sign)
            assert bits(v) == bits(reference_verdict(p, r_sign)), (case_id, p, r_sign)
            # each triple is the one built at its own branch, built afresh
            assert bits(v.triple) == bits(reference_triple(p, r_sign)), (case_id, p, r_sign)
            d = v.branch_diagnosis
            if d is not None:
                assert bits(d.flipped_triple) == bits(reference_triple(p, -r_sign)), (
                    case_id, p, r_sign
                )


def invariant_on_fresh_triple(p, direction, sign, tol):
    return all(
        ref_parallel(m.apply(direction), direction, tol)
        for m in build_general(p, sign)
    )


@pytest.mark.parametrize(
    "cfg", CONFIGS, ids=lambda c: f"{c.domain}-pm{c.log10_modulus_max:g}"
)
def test_sweep_witness_checks_match_fresh_rebuilds(cfg, monkeypatch):
    decided = []

    def recording_decide(p, *args, **kwargs):
        v = decide(p, *args, **kwargs)
        decided.append((p, v))
        return v

    monkeypatch.setattr(sweep, "decide", recording_decide)
    # the one-process walk: a helper's decide calls are not recorded here;
    # test_split_sweep_matches_the_one_process_walk carries these checks over
    monkeypatch.setattr(sweep, "_helper_can_run", lambda samples: False)
    cfg = cfg._replace(samples=2000, seed=20)
    result = sweep.run_sweep(cfg)
    cycle = sweep._CASE_CYCLES[cfg.regime_filter]
    injected = {
        i: cycle[k % len(cycle)]
        for k, i in enumerate(
            i for i in range(cfg.samples)
            if math.floor((i + 1) * cfg.inject_reducible_rate)
            > math.floor(i * cfg.inject_reducible_rate)
        )
    }
    failures, mismatches = [], []
    for i, case_id in injected.items():
        p, v = decided[i]
        # the witness is the invariant vector of the branch whose oracle
        # agrees with the criteria: the decided one, else the flipped one
        d = v.branch_diagnosis
        if v.agreement and v.invariant_vector is not None:
            found = v.invariant_vector, v.r_sign
        elif not v.agreement and d is not None and d.resolved:
            found = d.flipped_invariant_vector, -v.r_sign
        else:
            found = None
        if found is None or not invariant_on_fresh_triple(p, *found, cfg.tolerance):
            failures.append(i)
            continue
        if case_id != "equal-x-1":
            continue
        witness, sign = found
        predicted = normalize_direction((-1.0 / (p.x2 * p.y2), 1.0))
        complementary = normalize_direction((-1.0 / (p.x2 * p.y1), 1.0))
        if not (
            invariant_on_fresh_triple(p, predicted, sign, cfg.tolerance)
            and any(
                sweep._direction_eq(witness, line, cfg.tolerance)
                for line in (predicted, complementary)
            )
        ):
            mismatches.append(i)
    assert len(decided) == cfg.samples
    assert result.injected_total == len(injected) == 200
    assert list(result.witness_failures) == failures
    assert list(result.predicted_mismatches) == mismatches
    flipped = [d for _, v in decided if (d := v.branch_diagnosis) and d.resolved]
    if cfg.domain != POSITIVE_REAL:
        # witnesses produced on the flipped branch are among those checked
        assert flipped


@pytest.mark.parametrize(
    "cfg", CONFIGS, ids=lambda c: f"{c.domain}-pm{c.log10_modulus_max:g}"
)
def test_split_sweep_matches_the_one_process_walk(cfg, monkeypatch):
    # the sweep above, split with a helper process, renders the same bytes
    cfg = cfg._replace(samples=2000, seed=20)
    tails, real_reap = [], sweep._reap
    monkeypatch.setattr(
        sweep, "_reap", lambda *args: tails.append(real_reap(*args)) or tails[-1]
    )
    documents = []
    for helper in (True, False):
        monkeypatch.setattr(sweep, "_helper_can_run", lambda samples: helper)
        documents.append(render.dumps(sweep.run_sweep(cfg).as_dict()))
    # the helper came back, and its records are in the first document
    assert len(tails) == 1 and tails[0] is not None
    assert documents[0] == documents[1]
