"""Irreducibility decisions: closed-form criteria against a brute-force oracle.

The closed-form criteria depend only on cross-products of the parameters and
never on the square root r: the point is irreducible iff all four of

    x1*y2*z2 != x2*y1*z1,   x1*y1*z2 != x2*y2*z1,
    x1*y2*z1 != x2*y1*z2,   x1*y1*z1 != x2*y2*z2.

At x1 = x2 they reduce pairwise to the paper's two equal-x conditions, so
the regime that regime(p, tol) detects is only a reported label.

The oracle ignores all of that and simply searches the built triple for a
common eigendirection.  The built triple *does* depend on the branch of r, so
the two can disagree when a reducible parameter point is evaluated on the
branch where the invariant line disappears; decide then re-runs the oracle
on the flipped branch and reports, in Verdict.branch_diagnosis, whether that
explains the mismatch (it can only for a criteria-reducible point).  The
oracle is authoritative for the final agreement verdict.
"""

from __future__ import annotations

from typing import NamedTuple

from .matrix2 import Vec2, common_eigenvector, normalize_direction
from .numerics import VERDICT_TOL, approx_eq, principal_sqrt
from .representation import GeneratorTriple, Params, _check_sign, build_general, delta
# Not called here: perfbench/tracing.py wraps this name on this module.
from .representation import build_equal_x  # noqa: F401

EQUAL_X = "equal_x"
DISTINCT_X = "distinct_x"
IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"


class ConditionNotSatisfied(ValueError):
    pass


class ContradictoryCase(RuntimeError):
    pass


class ConditionFlag(NamedTuple):
    name: str
    lhs: complex
    rhs: complex
    equal: bool


class BranchDiagnosis(NamedTuple):
    """The oracle on the flipped branch -r_sign, run only on disagreement;
    resolved iff the criteria and the flipped oracle both say reducible."""

    flipped_oracle_decision: str
    resolved: bool
    flipped_invariant_vector: Vec2 | None


class Verdict(NamedTuple):
    regime: str
    r_sign: int
    tolerance: float
    theorem_decision: str
    conditions: tuple[ConditionFlag, ...]
    oracle_decision: str
    invariant_vector: Vec2 | None
    agreement: bool
    branch_diagnosis: BranchDiagnosis | None


# Reducibility cases: case id -> the condition that makes the point
# reducible.  theorem_verdict computes both sides of each distinct-x
# condition, in this order; solved_value gives the parameter that makes a
# case's condition hold.
_EQUAL_CASES = {
    "equal-x-1": "z1*y2 = y1*z2",
    "equal-x-2": "z1*y1 = y2*z2",
}

_DISTINCT_CASES = {
    "distinct-x-1": "x1*y2*z2 = x2*y1*z1",
    "distinct-x-2": "x1*y1*z2 = x2*y2*z1",
    "distinct-x-3": "x1*y2*z1 = x2*y1*z2",
    "distinct-x-4": "x1*y1*z1 = x2*y2*z2",
}

ALL_CASES = {**_EQUAL_CASES, **_DISTINCT_CASES}


def solved_value(case_id: str, x2, y1, y2, z1, z2):
    """The value that makes the case condition an identity over any field:
    z1 (with x1 = x2) for the equal-x cases, x1 for the distinct-x cases."""
    if case_id == "equal-x-1":
        return y1 * z2 / y2
    if case_id == "equal-x-2":
        return y2 * z2 / y1
    if case_id == "distinct-x-1":
        return x2 * y1 * z1 / (y2 * z2)
    if case_id == "distinct-x-2":
        return x2 * y2 * z1 / (y1 * z2)
    if case_id == "distinct-x-3":
        return x2 * y1 * z2 / (y2 * z1)
    if case_id == "distinct-x-4":
        return x2 * y2 * z2 / (y1 * z1)
    raise KeyError(f"unknown case id {case_id!r}")


# Case id -> (j, k) of its root image x2*y_j*z_k.  Each condition says
# x1*y_j'*z_k' = x2*y_j*z_k (at x1 = x2 for the equal-x cases); DELTA is the
# product of the two sides, so the image squares to DELTA where it holds.
_ROOT_IMAGE_INDICES = {
    "equal-x-1": (1, 2), "equal-x-2": (2, 2),
    "distinct-x-1": (1, 1), "distinct-x-2": (2, 1),
    "distinct-x-3": (1, 2), "distinct-x-4": (2, 2),
}


def root_image(case_id: str, x2, y1, y2, z1, z2):
    """The case's root image x2*y_j*z_k over any field."""
    j, k = _ROOT_IMAGE_INDICES[case_id]
    return x2 * (y1, y2)[j - 1] * (z1, z2)[k - 1]


def equal_x_lines(x, y1, y2):
    """The eigenlines of s2 = [[y1+y2, 1/x], [-y1*y2*x, 0]] over any field:
    (-1/(x*y2), 1) for y1 and (-1/(x*y1), 1) for y2.  At an equal-x
    reducible point both are invariant."""
    return (-1 / (x * y2), 1), (-1 / (x * y1), 1)


def solve_case(case_id: str, p: Params) -> Params:
    """Return p with one parameter replaced so the case condition holds
    exactly (in floating point): z1 is solved for the equal-x cases, x1 for
    the distinct-x cases."""
    _, x2, y1, y2, z1, z2, y3, z3 = p
    value = solved_value(case_id, x2, y1, y2, z1, z2)
    if case_id in _EQUAL_CASES:
        return Params(x2, x2, y1, y2, value, z2, y3, z3)
    return Params(value, x2, y1, y2, z1, z2, y3, z3)


def regime(p: Params, tol: float = VERDICT_TOL) -> str:
    return EQUAL_X if approx_eq(p.x1, p.x2, tol) else DISTINCT_X


def _flag(name: str, lhs: complex, rhs: complex, tol: float) -> ConditionFlag:
    return ConditionFlag(name, lhs, rhs, abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs)))


def theorem_verdict(
    p: Params, tol: float = VERDICT_TOL
) -> tuple[str, str, tuple[ConditionFlag, ...]]:
    """(regime, decision, condition flags).  Irreducible iff no reducibility
    condition holds.  Branch-independent: only cross-products of parameters.

    One flag per distinct-x condition, in case order, at every point; each
    side is a product formed left to right as written in its name, e.g.
    (x1*y2)*z2.
    """
    reg = regime(p, tol)  # approx_eq rejects a nonpositive tol
    x1, x2, y1, y2, z1, z2, _, _ = p
    n1, n2, n3, n4 = _DISTINCT_CASES.values()
    x1y1, x1y2, x2y1, x2y2 = x1 * y1, x1 * y2, x2 * y1, x2 * y2
    flags = (
        _flag(n1, x1y2 * z2, x2y1 * z1, tol),
        _flag(n2, x1y1 * z2, x2y2 * z1, tol),
        _flag(n3, x1y2 * z1, x2y1 * z2, tol),
        _flag(n4, x1y1 * z1, x2y2 * z2, tol),
    )
    decision = REDUCIBLE if any([f.equal for f in flags]) else IRREDUCIBLE
    return reg, decision, flags


def oracle_verdict(g: GeneratorTriple, tol: float = VERDICT_TOL) -> tuple[str, Vec2 | None]:
    """Brute-force decision: reducible iff the triple shares an eigendirection."""
    witness = common_eigenvector(g, tol)
    if witness is None:
        return IRREDUCIBLE, None
    return REDUCIBLE, witness


def decide(
    p: Params,
    r_sign: int = 1,
    tol: float = VERDICT_TOL,
    triples: dict[int, GeneratorTriple] | None = None,
) -> Verdict:
    """Full pipeline: criteria, oracle at r_sign, agreement, and (only on
    disagreement) the oracle on the flipped branch.  Each branch's triple is
    built once; a dict passed as triples receives them keyed by r sign."""
    reg, theorem, flags = theorem_verdict(p, tol)
    if triples is None:
        triples = {}
    g = triples[r_sign] = build_general(p, r_sign)
    oracle, witness = oracle_verdict(g, tol)
    agreement = oracle == theorem
    diagnosis = None
    if not agreement:
        flipped = -r_sign
        g = triples[flipped] = build_general(p, flipped)
        oracle2, witness2 = oracle_verdict(g, tol)
        diagnosis = BranchDiagnosis(oracle2, oracle2 == theorem == REDUCIBLE, witness2)
    return Verdict(reg, r_sign, tol, theorem, flags, oracle, witness, agreement, diagnosis)


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def invariant_vector_predicted(
    p: Params, case_id: str, r_sign: int = 1, tol: float = VERDICT_TOL
) -> Vec2:
    """The invariant direction the case predicts at the branch r_sign.

    An invariant line is never (1, 0), since s2(2,1) = -y1*y2*x1 != 0, so
    s1 acts on it by x2, and s1*s2*s3 = r*I makes r = x2*y_j*z_k for the
    eigenvalues y_j of s2 and z_k of s3 on it.  So when the case's root
    image equals r the line is s2's y_j eigenline; when it equals -r,
    ContradictoryCase is raised (the flipped branch has the line); otherwise
    ConditionNotSatisfied.  Compared purely relatively: |a-b| <= tol*max(|a|,|b|).
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if case_id not in ALL_CASES:
        raise KeyError(f"unknown case id {case_id!r}")
    x1, x2, y1, y2, z1, z2, _, _ = p
    r = _check_sign(r_sign) * principal_sqrt(delta(p))
    image = root_image(case_id, x2, y1, y2, z1, z2)
    if _close(image, r, tol):
        j = _ROOT_IMAGE_INDICES[case_id][0]
        return normalize_direction(equal_x_lines(x1, y1, y2)[j - 1])
    name = ALL_CASES[case_id]
    if _close(image, -r, tol):
        raise ContradictoryCase(
            f"{name} holds with root image {image!r} = -r at r_sign {r_sign:+d}; "
            "no invariant line exists on this branch (the flipped branch carries one)"
        )
    raise ConditionNotSatisfied(f"{case_id}: root image {image!r} is not +-r = {r!r}")
