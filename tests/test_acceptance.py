"""Acceptance gate: the nine end-to-end guarantees this package makes.

Each test prints one ACCEPTANCE N: PASS/FAIL line on the real stdout so the
gate's outcome is visible in any test log regardless of capture settings.
"""

import contextlib
import json
import time

import pytest

from heckeg7.cli import OK, main
from heckeg7.exact import RatElem, substitute
from heckeg7.identities import (
    VERIFIED,
    case_substitution,
    conjugated_upper_right_numerator,
    verify_braid_hecke_relations,
    verify_conjugation_formulas,
    verify_invariant_line_eigenrelations,
    verify_w_factorization,
    w_alpha_beta,
)
from heckeg7.irreducibility import oracle_verdict, solve_case
from heckeg7.matrix2 import normalize_direction, parallel
from heckeg7.representation import Params, build_equal_x
from heckeg7.sweep import (
    AGREE_REDUCIBLE,
    DISAGREE_RESOLVED,
    DISAGREE_UNRESOLVED,
    GENERAL_COMPLEX,
    POSITIVE_REAL,
    SweepConfig,
    run_sweep,
)

WITNESS_TOL = 1e-9


@contextlib.contextmanager
def acceptance(capsys, number: int):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: PASS")


@pytest.fixture(scope="module")
def positive_real_sweep():
    cfg = SweepConfig(samples=10_000, seed=42, domain=POSITIVE_REAL)
    start = time.perf_counter()
    result = run_sweep(cfg)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def general_complex_sweep():
    cfg = SweepConfig(samples=10_000, seed=42, domain=GENERAL_COMPLEX)
    return run_sweep(cfg)


def test_acceptance_1_w_factors_exactly(capsys):
    # The reducibility quantity w factors as alpha * beta, exactly, in the
    # ring extended by the square root of the parameter product.
    with acceptance(capsys, 1):
        start = time.perf_counter()
        w, alpha, beta = w_alpha_beta()
        difference = w - alpha * beta
        elapsed = time.perf_counter() - start
        assert difference.is_zero()
        assert verify_w_factorization().status == VERIFIED
        assert elapsed < 1.0, f"factorization took {elapsed:.3f}s"


def test_acceptance_2_braid_and_eigenvalue_relations_exact(capsys):
    # Entrywise s1*s2*s3 = s2*s3*s1 = s3*s1*s2 and the three quadratic
    # eigenvalue relations vanish exactly, for both signs of the root.
    with acceptance(capsys, 2):
        start = time.perf_counter()
        report = verify_braid_hecke_relations()
        elapsed = time.perf_counter() - start
        assert report.status == VERIFIED
        names = [check.name for check in report.checks]
        for sign_label in ("+1", "-1"):
            assert any(sign_label in name for name in names), names
        assert len(report.checks) == 10
        assert elapsed < 5.0, f"relation suite took {elapsed:.3f}s"


def test_acceptance_3_conjugated_entries_match_closed_forms(capsys):
    # Every entry of the conjugated triple T^-1 s_i T matches its closed
    # form exactly (including the normalization of the s2 top-right entry
    # and the sign of the z-terms in its bottom-right entry).
    with acceptance(capsys, 3):
        start = time.perf_counter()
        report = verify_conjugation_formulas()
        elapsed = time.perf_counter() - start
        assert report.status == VERIFIED
        assert len(report.checks) == 36
        assert elapsed < 5.0, f"conjugation suite took {elapsed:.3f}s"


def test_acceptance_4_upper_right_vanishes_with_recorded_sign(capsys):
    # Under each of the four distinct-x substitutions the conjugated s3
    # top-right numerator vanishes for at least one sign of the induced
    # root; the sign is recorded, and the first case vanishes at +1.
    with acceptance(capsys, 4):
        numerator = RatElem(conjugated_upper_right_numerator())
        recorded: dict[str, list[int]] = {}
        for case_id in (
            "distinct-x-1",
            "distinct-x-2",
            "distinct-x-3",
            "distinct-x-4",
        ):
            assignment, root = case_substitution(case_id)
            vanishing_signs = []
            for sign in (1, -1):
                image = substitute(numerator, assignment, root * sign)
                if image.is_zero():
                    vanishing_signs.append(sign)
            recorded[case_id] = vanishing_signs
            assert vanishing_signs, f"{case_id}: no sign annihilates"
        assert recorded["distinct-x-1"] == [1]
        with capsys.disabled():
            signs = ", ".join(
                f"{case}:{'/'.join(f'{s:+d}' for s in signs)}"
                for case, signs in recorded.items()
            )
            print(f"  recorded vanishing signs: {signs}")


def test_acceptance_5_invariant_line_eigenrelations_exact(capsys):
    # On the equal-x reducible cases the substituted generators fix the
    # direction u = (-1/(x2*y2), 1): s1*u = x2*u, s2*u = y1*u, and
    # s3*u = z2*u in the first case, s3*u = (y2*z2/y1)*u in the second.
    with acceptance(capsys, 5):
        report = verify_invariant_line_eigenrelations()
        assert report.status == VERIFIED
        by_name = {check.name: check.ok for check in report.checks}
        required = [
            "equal-x-1: s1*u = x2*u with u = (-1/(x2*y2), 1)",
            "equal-x-1: s2*u = y1*u with u = (-1/(x2*y2), 1)",
            "equal-x-1: s3*u = (z2)*u with u = (-1/(x2*y2), 1)",
            "equal-x-2: s3*u = ((y2*z2) / (y1))*u with u = (-1/(x2*y2), 1)",
        ]
        for name in required:
            assert by_name.get(name), name


def test_acceptance_6_positive_real_total_agreement(capsys, positive_real_sweep):
    # 10,000 positive-real samples at seed 42, with at least 500 injected
    # reducible tuples per regime, agree 100% at tolerance 1e-9 in under 10s.
    with acceptance(capsys, 6):
        result, elapsed = positive_real_sweep
        assert result.config.samples == 10_000
        assert result.config.tolerance == 1e-9
        per_case = result.injected_per_case
        equal_injected = sum(
            v for k, v in per_case.items() if k.startswith("equal")
        )
        distinct_injected = sum(
            v for k, v in per_case.items() if k.startswith("distinct")
        )
        assert equal_injected >= 500, per_case
        assert distinct_injected >= 500, per_case
        assert result.counts[DISAGREE_RESOLVED] == 0
        assert result.counts[DISAGREE_UNRESOLVED] == 0
        assert result.counts[AGREE_REDUCIBLE] >= result.injected_total
        assert elapsed < 10.0, f"sweep took {elapsed:.3f}s"


def test_acceptance_7_general_complex_zero_unresolved(
    capsys, general_complex_sweep, tmp_path
):
    # 10,000 general-complex samples: every criteria/oracle mismatch is
    # resolved by flipping the root sign; an unresolved one would be
    # archived as a counterexample and fail the run.
    with acceptance(capsys, 7):
        result = general_complex_sweep
        unresolved = [
            record
            for record in result.disagreements
            if record["classification"] == DISAGREE_UNRESOLVED
        ]
        if unresolved:
            archive = tmp_path / "unresolved_counterexamples.json"
            archive.write_text(json.dumps(unresolved, sort_keys=True, indent=2))
            pytest.fail(f"unresolved disagreements archived at {archive}")
        assert result.counts[DISAGREE_UNRESOLVED] == 0
        assert result.unresolved() == 0


def test_acceptance_8_injected_witnesses_are_invariant(
    capsys, positive_real_sweep, general_complex_sweep
):
    # Every injected reducible tuple in both 10,000-sample sweeps produced
    # an invariant-vector witness fixed by all three generators within 1e-9,
    # matching one of the exactly-invariant directions.  In the first
    # equal-x case the direction (-1/(x2*y2), 1) is itself invariant and is
    # the oracle's witness whenever |y1| > |y2|; the case splits completely,
    # so for |y1| < |y2| the oracle reports the complementary invariant
    # direction (-1/(x2*y1), 1).
    with acceptance(capsys, 8):
        for result in (positive_real_sweep[0], general_complex_sweep):
            assert result.witness_failures == ()
            assert result.predicted_mismatches == ()
            assert result.injected_total >= 1000

        # Literal demonstration on a |y1| > |y2| point.
        p_big = solve_case("equal-x-1", Params(1, 1, 4, 1, 1, 1))
        g_big = build_equal_x(p_big)
        predicted = normalize_direction((-1 / (p_big.x2 * p_big.y2), 1))
        decision, witness = oracle_verdict(g_big)
        assert decision == "reducible"
        assert parallel(witness, predicted, WITNESS_TOL)
        for m in g_big:
            assert parallel(m.apply(witness), witness, WITNESS_TOL)

        # Complementary direction on a |y1| < |y2| point.
        p_small = solve_case("equal-x-1", Params(1, 1, 1, 4, 1, 1))
        g_small = build_equal_x(p_small)
        complementary = normalize_direction(
            (-1 / (p_small.x2 * p_small.y1), 1)
        )
        _, witness_small = oracle_verdict(g_small)
        assert parallel(witness_small, complementary, WITNESS_TOL)
        for m in g_small:
            assert parallel(m.apply(witness_small), witness_small, WITNESS_TOL)


def test_acceptance_9_sweep_json_byte_identical(capsys):
    # The sweep subcommand with identical seed and configuration writes
    # byte-identical JSON across two runs.
    with acceptance(capsys, 9):
        argv = ["sweep", "--samples", "2000", "--seed", "42"]
        code_a = main(list(argv))
        out_a = capsys.readouterr().out
        code_b = main(list(argv))
        out_b = capsys.readouterr().out
        assert code_a == code_b == OK
        assert out_a.encode() == out_b.encode()
        assert out_a.endswith("\n")
