"""Closed-form irreducibility criteria against the brute-force oracle."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeg7.irreducibility import (
    ALL_CASES,
    DISTINCT_X,
    EQUAL_X,
    IRREDUCIBLE,
    REDUCIBLE,
    ConditionNotSatisfied,
    ContradictoryCase,
    decide,
    invariant_vector_predicted,
    oracle_verdict,
    regime,
    solve_case,
    theorem_verdict,
)
from heckeg7.matrix2 import normalize_direction, parallel
from heckeg7.numerics import VERDICT_TOL, approx_eq
from heckeg7.render import diagnosis_as_dict
from heckeg7.representation import InvalidParams, Params, build_equal_x, build_general

WRONG_BRANCH_POINT = Params(
    1, 1, cmath.exp(0.9j * math.pi), 1, cmath.exp(0.9j * math.pi), 1
)
DIAGONAL_S1_POINT = Params(-1, 3, 1, 1, -1 / 3, 1)

EQUAL_CASE_IDS = ("equal-x-1", "equal-x-2")
# x1*y2*z2 = x2*y1*z1 at x1 = x2 is z1*y1 = y2*z2, and so on.
DISTINCT_TO_EQUAL_AT_EQUAL_X = {
    "distinct-x-1": "equal-x-2",
    "distinct-x-2": "equal-x-1",
    "distinct-x-3": "equal-x-1",
    "distinct-x-4": "equal-x-2",
}


def positive_params(rng: random.Random) -> Params:
    return Params(*(complex(10.0 ** rng.uniform(-1, 1)) for _ in range(6)))


def generator_invariance(g, direction, tol=1e-9) -> bool:
    for m in g:
        image = m.apply(direction)
        if not parallel(image, direction, tol * max(1.0, m.maxmod())):
            return False
    return True


class TestRegime:
    def test_equal_and_distinct(self):
        assert regime(Params(2, 2, 1, 1, 1, 1)) == EQUAL_X
        assert regime(Params(1, 2, 1, 1, 1, 1)) == DISTINCT_X

    def test_relative_tolerance(self):
        assert regime(Params(1e6, 1e6 + 1e-6, 1, 1, 1, 1)) == EQUAL_X
        assert regime(Params(1e-6, 2e-6, 1, 1, 1, 1), tol=1e-9) == DISTINCT_X


class TestTheoremVerdict:
    def test_equal_x_reducible_when_cross_products_match(self):
        # y1*z2 = 1*6 = 6 = z1*y2 = 3*2.
        reg, decision, flags = theorem_verdict(Params(1, 1, 1, 2, 3, 6))
        assert reg == EQUAL_X
        assert decision == REDUCIBLE
        assert len(flags) == 2
        assert any(flag.equal for flag in flags)

    def test_equal_x_irreducible(self):
        reg, decision, flags = theorem_verdict(Params(1, 1, 2, 3, 5, 7))
        assert reg == EQUAL_X
        assert decision == IRREDUCIBLE
        assert all(not flag.equal for flag in flags)

    def test_distinct_x_reducible_third_case(self):
        # x1*y2*z1 = 1*1*2 = 2 = x2*y1*z2 = 2*1*1.  With y1 = y2 the fourth
        # condition coincides with the third, so two flags fire here.
        reg, decision, flags = theorem_verdict(Params(1, 2, 1, 1, 2, 1))
        assert reg == DISTINCT_X
        assert decision == REDUCIBLE
        assert len(flags) == 4
        by_name = {flag.name: flag.equal for flag in flags}
        assert by_name["x1*y2*z1 = x2*y1*z2"]

    def test_distinct_x_single_condition_point(self):
        # x = (4, 2), y = (1, 3), z = (1, 6): only x1*y2*z1 = x2*y1*z2
        # (both sides 12); the other three cross-products differ.
        _, decision, flags = theorem_verdict(Params(4, 2, 1, 3, 1, 6))
        assert decision == REDUCIBLE
        assert sum(flag.equal for flag in flags) == 1

    def test_distinct_x_irreducible(self):
        reg, decision, flags = theorem_verdict(Params(2, 3, 5, 7, 11, 13))
        assert decision == IRREDUCIBLE
        assert len(flags) == 4

    def test_flags_carry_the_compared_values(self):
        _, _, flags = theorem_verdict(Params(1, 1, 1, 2, 3, 6))
        for flag in flags:
            assert flag.equal == approx_eq(flag.lhs, flag.rhs, VERDICT_TOL)

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_nonpositive_tolerance_rejected(self, tol):
        # the regime test is the first use of tol
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            theorem_verdict(Params(2, 3, 5, 7, 11, 13), tol=tol)


class TestSolveCase:
    @pytest.mark.parametrize("case_id", sorted(ALL_CASES))
    def test_solved_point_is_reducible_and_oracle_agrees(self, case_id):
        rng = random.Random(f"solve-case:{case_id}")
        for _ in range(10):
            p = solve_case(case_id, positive_params(rng))
            reg, decision, _ = theorem_verdict(p)
            assert decision == REDUCIBLE
            expected = EQUAL_X if case_id.startswith("equal") else DISTINCT_X
            assert reg == expected
            verdict = decide(p)
            assert verdict.agreement
            assert verdict.oracle_decision == REDUCIBLE

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            solve_case("equal-x-9", Params(1, 1, 1, 1, 1, 1))


class TestOracle:
    def test_all_ones_point_has_invariant_direction(self):
        g = build_equal_x(Params(1, 1, 1, 1, 1, 1))
        decision, witness = oracle_verdict(g)
        assert decision == REDUCIBLE
        assert witness is not None
        assert parallel(witness, (1, -1), VERDICT_TOL)
        assert generator_invariance(g, witness)

    def test_irreducible_point_has_no_witness(self):
        g = build_general(Params(2, 3, 5, 7, 11, 13))
        decision, witness = oracle_verdict(g)
        assert decision == IRREDUCIBLE
        assert witness is None

    def test_witness_is_invariant_under_all_three_generators(self):
        rng = random.Random(23)
        for case_id in sorted(ALL_CASES):
            p = solve_case(case_id, positive_params(rng))
            g = build_equal_x(p) if case_id.startswith("equal") else build_general(p)
            decision, witness = oracle_verdict(g)
            assert decision == REDUCIBLE
            assert generator_invariance(g, witness)


class TestPredictedDirection:
    def test_distinct_case_reference_point(self):
        # x = (16, 4), y = (1, 1), z = (2, 0.5): the root is 8 and the first
        # distinct-x condition holds (16*1*0.5 = 4*1*2).
        p = Params(16, 4, 1, 1, 2, 0.5)
        direction = invariant_vector_predicted(p, "distinct-x-1")
        assert parallel(direction, (-0.0625, 1), 1e-12)
        verdict = decide(p)
        assert verdict.agreement and verdict.oracle_decision == REDUCIBLE
        assert parallel(verdict.invariant_vector, direction, 1e-9)

    def test_equal_case_prediction_is_invariant(self):
        rng = random.Random(29)
        for case_id in ("equal-x-1", "equal-x-2"):
            for _ in range(10):
                p = solve_case(case_id, positive_params(rng))
                direction = invariant_vector_predicted(p, case_id)
                g = build_equal_x(p)
                assert generator_invariance(g, direction)

    def test_equal_case_splits_completely(self):
        # In the equal-x reducible cases BOTH coordinate-change directions
        # are invariant, so the invariant line is not unique.  The oracle
        # returns the one attached to the larger-modulus eigenvalue of s2.
        p_big_y1 = solve_case("equal-x-1", Params(1, 1, 4, 1, 1, 1))
        g = build_equal_x(p_big_y1)
        primary = normalize_direction((-1 / (p_big_y1.x2 * p_big_y1.y2), 1))
        secondary = normalize_direction((-1 / (p_big_y1.x2 * p_big_y1.y1), 1))
        assert generator_invariance(g, primary)
        assert generator_invariance(g, secondary)
        _, witness = oracle_verdict(g)
        assert parallel(witness, primary, 1e-9)

        p_big_y2 = solve_case("equal-x-1", Params(1, 1, 1, 4, 1, 1))
        g2 = build_equal_x(p_big_y2)
        _, witness2 = oracle_verdict(g2)
        complementary = normalize_direction((-1 / (p_big_y2.x2 * p_big_y2.y1), 1))
        assert parallel(witness2, complementary, 1e-9)

    def test_condition_must_hold(self):
        with pytest.raises(ConditionNotSatisfied):
            invariant_vector_predicted(Params(2, 3, 5, 7, 11, 13), "distinct-x-1")

    def test_equal_case_refused_at_a_distinct_point(self):
        # y = z = (1, 2) satisfies z1*y2 = y1*z2, but x = (2, 3) is in the
        # distinct-x regime, where the point is irreducible.
        p = Params(2, 3, 1, 2, 1, 2)
        assert decide(p).theorem_decision == IRREDUCIBLE
        with pytest.raises(ConditionNotSatisfied, match="distinct_x regime"):
            invariant_vector_predicted(p, "equal-x-1")

    def test_distinct_case_refused_at_an_equal_point(self):
        # x1*y2*z2 = x2*y1*z1 holds (both 4), but x1 = x2
        p = Params(2, 2, 1, 2, 2, 1)
        with pytest.raises(ConditionNotSatisfied, match="equal_x regime"):
            invariant_vector_predicted(p, "distinct-x-1")

    @pytest.mark.parametrize("case_id", sorted(ALL_CASES))
    def test_solved_point_gets_an_invariant_direction(self, case_id):
        build = build_equal_x if case_id in EQUAL_CASE_IDS else build_general
        rng = random.Random(f"predicted:{case_id}")
        for _ in range(5):
            p = solve_case(case_id, positive_params(rng))
            direction = invariant_vector_predicted(p, case_id)
            assert generator_invariance(build(p, 1), direction)

    @pytest.mark.parametrize("case_id", sorted(ALL_CASES))
    def test_case_of_the_other_regime_is_refused(self, case_id):
        # The case's own condition holds at every point drawn here; only the
        # detected regime rules the case out.
        rng = random.Random(f"other-regime:{case_id}")
        for _ in range(5):
            base = positive_params(rng)
            if case_id in EQUAL_CASE_IDS:
                p = solve_case(case_id, base)
                p = p._replace(x1=2 * p.x2)
                expected = DISTINCT_X
                assert regime(p) == expected
            else:
                # With x1 = x2 a distinct-x condition reduces to an equal-x one.
                p = solve_case(DISTINCT_TO_EQUAL_AT_EQUAL_X[case_id], base)
                expected = EQUAL_X
                _, _, flags = theorem_verdict(p)
                assert {f.name: f.equal for f in flags}[
                    ALL_CASES[DISTINCT_TO_EQUAL_AT_EQUAL_X[case_id]]
                ]
            with pytest.raises(ConditionNotSatisfied, match=f"the {expected} regime"):
                invariant_vector_predicted(p, case_id)

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_nonpositive_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            invariant_vector_predicted(Params(16, 4, 1, 1, 2, 0.5), "distinct-x-1", tol=tol)

    def test_contradictory_point_raises_on_primary_branch(self):
        # The second distinct-x condition holds, yet on the +1 branch the
        # first generator is already diagonal with distinct eigenvalues:
        # no single invariant line exists there.
        with pytest.raises(ContradictoryCase):
            invariant_vector_predicted(DIAGONAL_S1_POINT, "distinct-x-2")
        direction = invariant_vector_predicted(
            DIAGONAL_S1_POINT, "distinct-x-2", r_sign=-1
        )
        assert direction == (1 + 0j, 1 + 0j)


class TestBranchDiagnosis:
    def test_wrong_branch_point_disagrees_then_resolves(self):
        verdict = decide(WRONG_BRANCH_POINT)
        assert verdict.regime == EQUAL_X
        assert verdict.theorem_decision == REDUCIBLE
        assert verdict.oracle_decision == IRREDUCIBLE
        assert not verdict.agreement
        diag = verdict.branch_diagnosis
        assert diag.resolved
        rendered = diagnosis_as_dict(verdict)
        assert rendered["applicable"] and rendered["flipped-r-sign"] == -1
        assert rendered["note"] == "disagreement disappears on the flipped branch"
        assert diag.flipped_oracle_decision == REDUCIBLE

    def test_wrong_branch_point_agrees_on_flipped_branch(self):
        verdict = decide(WRONG_BRANCH_POINT, r_sign=-1)
        assert verdict.agreement
        assert verdict.oracle_decision == REDUCIBLE

    def test_diagonal_s1_point_disagrees_then_resolves(self):
        verdict = decide(DIAGONAL_S1_POINT)
        assert verdict.theorem_decision == REDUCIBLE
        assert verdict.oracle_decision == IRREDUCIBLE
        assert verdict.branch_diagnosis.resolved
        flipped = decide(DIAGONAL_S1_POINT, r_sign=-1)
        assert flipped.agreement
        assert parallel(flipped.invariant_vector, (1, 1), 1e-9)


class TestDecide:
    def test_bad_r_sign_rejected(self):
        with pytest.raises(InvalidParams, match=r"^r_sign must be \+1 or -1, got 0$"):
            decide(Params(2, 3, 5, 7, 11, 13), r_sign=0)

    @pytest.mark.parametrize(
        "values, message",
        [
            ((1, 1, 0, 1, 1, 1), "y1 must be nonzero"),
            ((1, 2, 3, 4, 5, 0j), "z2 must be nonzero"),
            ((float("inf"), 1, 1, 1, 1, 1), "x1 is not finite"),
            ((1, 1, 1, complex(1, float("nan")), 1, 1), "y2 is not finite"),
        ],
    )
    def test_zero_or_nonfinite_parameters_rejected(self, values, message):
        with pytest.raises(InvalidParams, match=f"^{message}$"):
            decide(Params(*values))

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_nonpositive_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            decide(Params(2, 3, 5, 7, 11, 13), tol=tol)

    def test_verdict_records_inputs(self):
        verdict = decide(Params(1, 1, 1, 1, 1, 1), r_sign=1, tol=1e-8)
        assert verdict.regime == EQUAL_X
        assert verdict.r_sign == 1
        assert verdict.tolerance == 1e-8
        assert verdict.agreement

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_criteria_agree_with_oracle_on_positive_reals(self, seed):
        p = positive_params(random.Random(seed))
        verdict = decide(p)
        assert verdict.agreement, (p, verdict)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_injected_reducible_points_agree_on_positive_reals(self, seed):
        rng = random.Random(seed)
        case_id = sorted(ALL_CASES)[seed % len(ALL_CASES)]
        p = solve_case(case_id, positive_params(rng))
        verdict = decide(p)
        assert verdict.agreement
        assert verdict.theorem_decision == REDUCIBLE
        assert verdict.invariant_vector is not None
