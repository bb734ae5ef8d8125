"""Irreducibility decisions: closed-form criteria against a brute-force oracle.

The closed-form criteria depend only on cross-products of the parameters and
never on the square root r:

  equal-x regime (x1 = x2): irreducible iff
      z1*y2 != y1*z2   and   z1*y1 != y2*z2;
  distinct-x regime: irreducible iff all four of
      x1*y2*z2 != x2*y1*z1,   x1*y1*z2 != x2*y2*z1,
      x1*y2*z1 != x2*y1*z2,   x1*y1*z1 != x2*y2*z2.

The oracle ignores all of that and simply searches the built triple for a
common eigendirection.  The built triple *does* depend on the branch of r, so
the two can disagree when a reducible parameter point is evaluated on the
branch where the invariant line disappears; decide then re-runs the oracle
on the flipped branch and reports, in Verdict.branch_diagnosis, whether that
explains the mismatch.  The oracle is authoritative for the final agreement
verdict.  The regime is always the one regime(p, tol) detects.
"""

from __future__ import annotations

from typing import NamedTuple

from .matrix2 import Vec2, common_eigenvector, normalize_direction
from .numerics import VERDICT_TOL, approx_eq
from .representation import (
    GeneratorTriple,
    Params,
    build_equal_x,
    build_general,
    conjugator,
)

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
    """The oracle on the flipped branch -r_sign, run only on disagreement."""

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
# reducible.  theorem_verdict computes both sides of each condition, in
# this order; solved_value gives the parameter that makes it hold.
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


def equal_x_lines(x2, y1, y2):
    """The two invariant lines of an equal-x reducible point, over any
    field: (-1/(x2*y2), 1), the s2-eigenline for y1, and (-1/(x2*y1), 1),
    the one for y2."""
    return (-1 / (x2 * y2), 1), (-1 / (x2 * y1), 1)


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

    One flag per condition of the regime, in case order; each side is a
    product formed left to right as written in its name, e.g. (x1*y2)*z2.
    """
    reg = regime(p, tol)  # approx_eq rejects a nonpositive tol
    x1, x2, y1, y2, z1, z2, _, _ = p
    if reg == EQUAL_X:
        n1, n2 = _EQUAL_CASES.values()
        flags = (_flag(n1, z1 * y2, y1 * z2, tol), _flag(n2, z1 * y1, y2 * z2, tol))
    else:
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
    build = build_equal_x if reg == EQUAL_X else build_general
    if triples is None:
        triples = {}
    g = triples[r_sign] = build(p, r_sign)
    oracle, witness = oracle_verdict(g, tol)
    agreement = oracle == theorem
    diagnosis = None
    if not agreement:
        flipped = -r_sign
        g = triples[flipped] = build(p, flipped)
        oracle2, witness2 = oracle_verdict(g, tol)
        diagnosis = BranchDiagnosis(oracle2, oracle2 == theorem, witness2)
    return Verdict(reg, r_sign, tol, theorem, flags, oracle, witness, agreement, diagnosis)


def invariant_vector_predicted(
    p: Params, case_id: str, r_sign: int = 1, tol: float = VERDICT_TOL
) -> Vec2:
    """The invariant direction each reducibility case predicts.

    The case must belong to p's regime, as regime(p, tol) detects it, and
    its condition must hold; otherwise ConditionNotSatisfied is raised.
    Equal-x cases: the first of equal_x_lines, (-1/(x2*y2), 1), independent
    of the branch.  Distinct-x cases: the second column of the diagonalizing
    conjugator, (T(1,2), 1) -- which only exists when x1 and x2 are apart
    (the regime test) and s1 has an off-diagonal part.  When the condition
    holds but s1(1,2) vanishes at this branch no invariant line can exist
    here (the family is irreducible on this branch) and ContradictoryCase is
    raised; the flipped branch carries the honest witness.
    """
    if case_id not in ALL_CASES:
        raise KeyError(f"unknown case id {case_id!r}")
    name = ALL_CASES[case_id]
    reg, _, flags = theorem_verdict(p, tol)
    if reg != (EQUAL_X if case_id in _EQUAL_CASES else DISTINCT_X):
        raise ConditionNotSatisfied(f"{case_id} does not apply in the {reg} regime")
    flag = next(f for f in flags if f.name == name)
    if not flag.equal:
        raise ConditionNotSatisfied(f"{name} fails: {flag.lhs!r} vs {flag.rhs!r}")
    if reg == EQUAL_X:
        return normalize_direction(equal_x_lines(p.x2, p.y1, p.y2)[0])
    g = build_general(p, r_sign)
    if abs(g.s1.b) <= tol * max(1.0, g.s1.maxmod()):
        raise ContradictoryCase(
            f"{name} holds yet s1 is diagonal at r_sign {r_sign:+d}; no invariant "
            "line exists on this branch (the flipped branch carries one)"
        )
    return normalize_direction((conjugator(g.s1, p.x1, p.x2).b, 1))
