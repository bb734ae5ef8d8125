"""Closed-form irreducibility criteria against the brute-force oracle."""

import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeg7.identities import X2, Y1, Y2, Z1, Z2
from heckeg7.irreducibility import (
    ALL_CASES,
    DISTINCT_X,
    EQUAL_X,
    IRREDUCIBLE,
    REDUCIBLE,
    decide,
    oracle_verdict,
    regime,
    root_image,
    s2_eigenlines,
    solve_case,
    solved_value,
    theorem_verdict,
)
from heckeg7.matrix2 import Vec2, normalize_direction, parallel
from heckeg7.numerics import VERDICT_TOL, approx_eq, principal_sqrt
from heckeg7.render import diagnosis_as_dict
from heckeg7.representation import InvalidParams, Params, build_general

WRONG_BRANCH_POINT = Params(
    1, 1, cmath.exp(0.9j * math.pi), 1, cmath.exp(0.9j * math.pi), 1
)
DIAGONAL_S1_POINT = Params(-1, 3, 1, 1, -1 / 3, 1)

# Sample 245 of `sweep --samples 5000 --domain general-complex
# --log10-modulus-min -6 --log10-modulus-max 6` (seed 42): the criteria say
# irreducible, the oracle finds a false witness at r sign +1 and none on the
# flipped branch, so the flip cannot explain the disagreement.
FALSE_WITNESS_POINT = Params(
    0.004009522500325584 + 0.0030117211332456144j,
    0.39235717274057913 - 0.627279377069502j,
    1.1932525569462424e-05 - 3.395775573795647e-06j,
    -0.00012441759716472285 - 0.00010900620693806829j,
    0.02553350250660864 + 0.009052371997597609j,
    0.0014092878169968855 + 0.00031447436071397065j,
)


def positive_params(rng: random.Random) -> Params:
    return Params(*(complex(10.0 ** rng.uniform(-1, 1)) for _ in range(6)))


def root_of(p: Params) -> complex:
    return principal_sqrt(p.x1 * p.x2 * p.y1 * p.y2 * p.z1 * p.z2)


def predicted_line(p: Params, case_id: str) -> tuple[int, Vec2]:
    """The r sign at which the case's root image x2*y_j*z_k equals r, and
    the line predicted invariant there: the y_j eigenline of s2.

    An invariant line is never (1, 0), since s2(2,1) = -y1*y2*x1 != 0, so s1
    acts on it by x2, and s1*s2*s3 = r*I makes r = x2*y_j*z_k for the
    eigenvalues y_j of s2 and z_k of s3 on it."""
    _, j, _ = ALL_CASES[case_id]
    image = root_image(case_id, p.x2, p.y1, p.y2, p.z1, p.z2)
    sign = 1 if approx_eq(image, root_of(p)) else -1
    assert approx_eq(image, sign * root_of(p)), "the case's root image is not +-r"
    return sign, normalize_direction(s2_eigenlines(p.x1, p.y1, p.y2)[j - 1])


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
        # y1*z2 = 1*6 = 6 = z1*y2 = 3*2: at x1 = x2 the second and third
        # distinct-x conditions both say so.
        reg, decision, flags = theorem_verdict(Params(1, 1, 1, 2, 3, 6))
        assert reg == EQUAL_X
        assert decision == REDUCIBLE
        assert len(flags) == 4
        assert [flag.equal for flag in flags] == [False, True, True, False]

    def test_equal_x_irreducible(self):
        reg, decision, flags = theorem_verdict(Params(1, 1, 2, 3, 5, 7))
        assert reg == EQUAL_X
        assert decision == IRREDUCIBLE
        assert len(flags) == 4
        assert all(not flag.equal for flag in flags)

    def test_conditions_pair_up_at_equal_x(self):
        # At x1 = x2 the first and fourth conditions are z1*y1 = y2*z2 and
        # the second and third are z1*y2 = y1*z2, side for side.
        p = Params(3, 3, 2, 5, 7, 11)
        _, _, flags = theorem_verdict(p)
        first, second, third, fourth = flags
        assert (first.lhs, first.rhs) == (fourth.rhs, fourth.lhs) == (
            3 * 5 * 11, 3 * 2 * 7
        )
        assert (second.lhs, second.rhs) == (third.rhs, third.lhs) == (
            3 * 2 * 11, 3 * 5 * 7
        )

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

    @given(
        st.lists(
            st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
            min_size=6,
            max_size=6,
        ),
        st.booleans(),
        st.sampled_from((None, *sorted(ALL_CASES))),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    @example([1, 1, 1, 2, 3, 6], True, None)
    def test_swapping_a_pair_permutes_the_conditions(self, values, equal_x, case_id):
        # positions of the four flags after swapping y1<->y2, z1<->z2 or
        # x1<->x2; swapping x also swaps the two sides of each condition
        swaps = {
            ("y1", "y2"): ((1, 0, 3, 2), False),
            ("z1", "z2"): ((2, 3, 0, 1), False),
            ("x1", "x2"): ((3, 2, 1, 0), True),
        }
        p = Params(*values)
        if equal_x:
            p = p._replace(x1=p.x2)
        if case_id is not None:
            try:
                p = solve_case(case_id, p)
            except InvalidParams:
                return
        reg, decision, flags = theorem_verdict(p)
        for (a, b), (moved, sides_swap) in swaps.items():
            q = p._replace(**{a: getattr(p, b), b: getattr(p, a)})
            reg_q, decision_q, flags_q = theorem_verdict(q)
            assert (reg_q, decision_q) == (reg, decision)
            for i, flag in enumerate(flags):
                image = flags_q[moved[i]]
                sides = (flag.rhs, flag.lhs) if sides_swap else (flag.lhs, flag.rhs)
                assert (image.lhs, image.rhs, image.equal) == (*sides, flag.equal)

    def test_flags_carry_the_compared_values(self):
        _, _, flags = theorem_verdict(Params(1, 1, 1, 2, 3, 6))
        for flag in flags:
            assert flag.equal == approx_eq(flag.lhs, flag.rhs, VERDICT_TOL)

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_nonpositive_tolerance_rejected(self, tol):
        # the regime test is the first use of tol
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            theorem_verdict(Params(2, 3, 5, 7, 11, 13), tol=tol)

    def test_infinite_tolerance_rejected(self):
        # with tol = inf every flag would hold: an irreducible point reads
        # reducible at both the criteria and the regime test
        with pytest.raises(ValueError, match="^tolerance must be finite$"):
            theorem_verdict(Params(2, 3, 5, 7, 11, 13), tol=math.inf)
        with pytest.raises(ValueError, match="^tolerance must be finite$"):
            regime(Params(2, 3, 5, 7, 11, 13), tol=math.inf)

    @pytest.mark.parametrize(
        "p",
        [
            Params(1e120, 1e-120, 1e120, 1e-120, 1e120, 1e-120),  # x1*y1*z1 is inf
            Params(1 + 1j, 1e80, 1, 1e160, 1e-160, 1e160 + 1e160j),  # x1*y2*z2 has a nan part
            Params(1e200, 1e200, 1e200, 1e200, 1, 1),  # inf - inf is nan
        ],
        ids=["inf-side", "nan-part-side", "both-sides-inf"],
    )
    def test_a_side_that_is_not_finite_raises(self, p):
        # an infinite side would make its bound inf and its flag hold
        with pytest.raises(OverflowError):
            theorem_verdict(p)


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


# Each case's solved value written out: the reference that solved_value,
# which reads (j, k) from the case table, must match bit for bit.
LITERAL_SOLVED_VALUES = {
    "equal-x-1": lambda x2, y1, y2, z1, z2: y1 * z2 / y2,
    "equal-x-2": lambda x2, y1, y2, z1, z2: y2 * z2 / y1,
    "distinct-x-1": lambda x2, y1, y2, z1, z2: x2 * y1 * z1 / (y2 * z2),
    "distinct-x-2": lambda x2, y1, y2, z1, z2: x2 * y2 * z1 / (y1 * z2),
    "distinct-x-3": lambda x2, y1, y2, z1, z2: x2 * y1 * z2 / (y2 * z1),
    "distinct-x-4": lambda x2, y1, y2, z1, z2: x2 * y2 * z2 / (y1 * z1),
}


class TestSolvedValue:
    def test_every_case_has_a_literal_reference(self):
        assert ALL_CASES.keys() == LITERAL_SOLVED_VALUES.keys()

    @pytest.mark.parametrize("case_id", sorted(ALL_CASES))
    def test_floats_keep_their_bits(self, case_id):
        # complex values of both signs in each part, moduli over 16 decades
        rng = random.Random(f"solved-value:{case_id}")

        def draw():
            return complex(*(
                rng.choice((1, -1)) * 10.0 ** rng.uniform(-8, 8) for _ in range(2)
            ))

        literal = LITERAL_SOLVED_VALUES[case_id]
        for _ in range(2000):
            args = [draw() for _ in range(5)]
            assert repr(solved_value(case_id, *args)) == repr(literal(*args)), args

    @pytest.mark.parametrize("case_id", sorted(ALL_CASES))
    def test_exact_values_keep_their_terms(self, case_id):
        args = (X2, Y1, Y2, Z1, Z2)
        value = solved_value(case_id, *args)
        assert value.terms == LITERAL_SOLVED_VALUES[case_id](*args).terms


class TestOracle:
    def test_all_ones_point_has_invariant_direction(self):
        g = build_general(Params(1, 1, 1, 1, 1, 1))
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
            g = build_general(p)
            decision, witness = oracle_verdict(g)
            assert decision == REDUCIBLE
            assert generator_invariance(g, witness)


class TestPredictedDirection:
    """On the branch where the case's root image equals r, the y_j
    eigenline of s2 is invariant; the other branch has no invariant line."""

    def test_distinct_case_reference_point(self):
        # x = (16, 4), y = (1, 1), z = (2, 0.5): the root is 8 and the first
        # distinct-x condition holds (16*1*0.5 = 4*1*2).
        p = Params(16, 4, 1, 1, 2, 0.5)
        sign, direction = predicted_line(p, "distinct-x-1")
        assert sign == 1
        assert parallel(direction, (-0.0625, 1), 1e-12)
        verdict = decide(p)
        assert verdict.agreement and verdict.oracle_decision == REDUCIBLE
        assert parallel(verdict.invariant_vector, direction, 1e-9)

    def test_equal_case_prediction_is_invariant(self):
        rng = random.Random(29)
        for case_id in ("equal-x-1", "equal-x-2"):
            for _ in range(10):
                p = solve_case(case_id, positive_params(rng))
                sign, direction = predicted_line(p, case_id)
                assert sign == 1
                g = build_general(p)
                assert generator_invariance(g, direction)

    def test_equal_case_splits_completely(self):
        # In the equal-x reducible cases BOTH coordinate-change directions
        # are invariant, so the invariant line is not unique.  The oracle
        # returns the one attached to the larger-modulus eigenvalue of s2.
        p_big_y1 = solve_case("equal-x-1", Params(1, 1, 4, 1, 1, 1))
        g = build_general(p_big_y1)
        primary = normalize_direction((-1 / (p_big_y1.x2 * p_big_y1.y2), 1))
        secondary = normalize_direction((-1 / (p_big_y1.x2 * p_big_y1.y1), 1))
        assert generator_invariance(g, primary)
        assert generator_invariance(g, secondary)
        _, witness = oracle_verdict(g)
        assert parallel(witness, primary, 1e-9)

        p_big_y2 = solve_case("equal-x-1", Params(1, 1, 1, 4, 1, 1))
        g2 = build_general(p_big_y2)
        _, witness2 = oracle_verdict(g2)
        complementary = normalize_direction((-1 / (p_big_y2.x2 * p_big_y2.y1), 1))
        assert parallel(witness2, complementary, 1e-9)

    def test_distinct_case_at_an_equal_point(self):
        # x1*y2*z2 = x2*y1*z1 holds (both 4) with x1 = x2; the root image
        # x2*y1*z1 = 4 is r, so the y1 eigenline of s2 is invariant.
        p = Params(2, 2, 1, 2, 2, 1)
        sign, direction = predicted_line(p, "distinct-x-1")
        assert sign == 1
        assert parallel(direction, (-0.25, 1), 1e-12)
        assert generator_invariance(build_general(p), direction)

    def test_equal_case_at_a_distinct_point_needs_its_root_image(self):
        # y = z = (1, 2) satisfies z1*y2 = y1*z2, but with x = (2, 3) the
        # root image x2*y1*z2 = 6 is not +-r = +-sqrt(24): the point is
        # irreducible on both branches.
        p = Params(2, 3, 1, 2, 1, 2)
        assert decide(p).theorem_decision == IRREDUCIBLE
        image = root_image("equal-x-1", p.x2, p.y1, p.y2, p.z1, p.z2)
        assert image == 6
        assert not approx_eq(image, root_of(p)) and not approx_eq(image, -root_of(p))
        for sign in (1, -1):
            assert oracle_verdict(build_general(p, sign)) == (IRREDUCIBLE, None)

    @pytest.mark.parametrize("case_id", sorted(ALL_CASES))
    def test_solved_point_gets_an_invariant_direction(self, case_id):
        rng = random.Random(f"predicted:{case_id}")
        for _ in range(5):
            p = solve_case(case_id, positive_params(rng))
            sign, direction = predicted_line(p, case_id)
            assert sign == 1
            assert generator_invariance(build_general(p, 1), direction)

    @pytest.mark.parametrize("case_id", sorted(ALL_CASES))
    def test_only_the_branch_of_the_root_image_has_the_line(self, case_id):
        # The case holds at both signs of r, but its root image equals r on
        # one branch only; the other branch has no invariant line.
        p = solve_case(case_id, Params(2, 3, 5, 7, 11, 13))
        x1, x2, y1, y2, z1, z2, _, _ = p
        image = {
            "equal-x-1": x2 * y1 * z2, "equal-x-2": x2 * y2 * z2,
            "distinct-x-1": x2 * y1 * z1, "distinct-x-2": x2 * y2 * z1,
            "distinct-x-3": x2 * y1 * z2, "distinct-x-4": x2 * y2 * z2,
        }[case_id]
        assert root_image(case_id, x2, y1, y2, z1, z2) == image
        root = principal_sqrt(x1 * x2 * y1 * y2 * z1 * z2)
        right = 1 if approx_eq(image, root) else -1
        assert approx_eq(image, right * root)
        sign, direction = predicted_line(p, case_id)
        assert sign == right
        g = build_general(p, right)
        assert generator_invariance(g, direction)
        decision, witness = oracle_verdict(g)
        assert decision == REDUCIBLE and generator_invariance(g, witness)
        if case_id.startswith("distinct"):  # the equal-x cases have two lines
            assert parallel(witness, direction, 1e-9)
        assert oracle_verdict(build_general(p, -right)) == (IRREDUCIBLE, None)

    def test_root_image_is_minus_r_on_the_primary_branch(self):
        # The second distinct-x condition holds, yet on the +1 branch the
        # first generator is already diagonal with distinct eigenvalues:
        # the root image x2*y2*z1 = -1 is -r, and no invariant line exists
        # there.  On the -1 branch the y2 eigenline (1, 1) carries the
        # oracle's witness.
        p = DIAGONAL_S1_POINT
        assert root_image("distinct-x-2", p.x2, p.y1, p.y2, p.z1, p.z2) == -1
        assert root_of(p) == 1
        sign, direction = predicted_line(p, "distinct-x-2")
        assert sign == -1
        assert direction == (1 + 0j, 1 + 0j)
        assert oracle_verdict(build_general(p, 1)) == (IRREDUCIBLE, None)
        decision, witness = oracle_verdict(build_general(p, -1))
        assert decision == REDUCIBLE
        assert parallel(witness, direction, 1e-9)


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
        assert rendered["flipped-r-sign"] == -1
        assert rendered["note"] == "disagreement disappears on the flipped branch"
        assert "applicable" not in rendered and "conditions" not in rendered
        assert diag.flipped_oracle_decision == REDUCIBLE

    def test_flip_never_resolves_a_criteria_irreducible_point(self):
        verdict = decide(FALSE_WITNESS_POINT)
        assert verdict.theorem_decision == IRREDUCIBLE
        assert verdict.oracle_decision == REDUCIBLE
        diag = verdict.branch_diagnosis
        assert diag.flipped_oracle_decision == IRREDUCIBLE
        assert not diag.resolved
        assert diagnosis_as_dict(verdict)["note"] == (
            "the flipped branch does not explain the disagreement"
        )

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

    def test_infinite_tolerance_rejected(self):
        # both deciders used to call this irreducible point reducible, in
        # agreement
        with pytest.raises(ValueError, match="^tolerance must be finite$"):
            decide(Params(2, 3, 5, 7, 11, 13), tol=math.inf)

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
