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

from collections import namedtuple
from collections.abc import Sequence
from math import inf

from .matrix2 import Vec2, _record, common_eigenvector
from .numerics import VERDICT_TOL, approx_eq
from .representation import GeneratorTriple, InvalidParams, Params, build_general
# Not called here: perfbench/tracing.py wraps this name on this module.
from .representation import build_equal_x  # noqa: F401

EQUAL_X = "equal_x"
DISTINCT_X = "distinct_x"
IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"


ConditionFlag = namedtuple("ConditionFlag", "name lhs rhs equal")

# The oracle on the flipped branch -r_sign, run only on disagreement;
# resolved iff the criteria and the flipped oracle both say reducible.  The
# witness is a Vec2 or None.
BranchDiagnosis = namedtuple(
    "BranchDiagnosis", "flipped_oracle_decision resolved flipped_invariant_vector"
)

# conditions is a tuple of ConditionFlag, invariant_vector a Vec2 or None,
# and branch_diagnosis a BranchDiagnosis or None (None when they agree).
Verdict = namedtuple("Verdict", (
    "regime", "r_sign", "tolerance", "theorem_decision", "conditions",
    "oracle_decision", "invariant_vector", "agreement", "branch_diagnosis",
))


# Reducibility cases: case id -> (condition, j, k).  Each condition says
# x1*y_j'*z_k' = x2*y_j*z_k, with j' = 3 - j and k' = 3 - k (at x1 = x2 for
# the equal-x cases, which all have k = 2), and x2*y_j*z_k is the case's root
# image.  The two sides multiply to DELTA, so the image squares to DELTA
# where the condition holds.  theorem_verdict computes both sides of each
# distinct-x condition, in this order.
EQUAL_X_CASES = {
    "equal-x-1": ("z1*y2 = y1*z2", 1, 2),
    "equal-x-2": ("z1*y1 = y2*z2", 2, 2),
}

DISTINCT_X_CASES = {
    "distinct-x-1": ("x1*y2*z2 = x2*y1*z1", 1, 1),
    "distinct-x-2": ("x1*y1*z2 = x2*y2*z1", 2, 1),
    "distinct-x-3": ("x1*y2*z1 = x2*y1*z2", 1, 2),
    "distinct-x-4": ("x1*y1*z1 = x2*y2*z2", 2, 2),
}

ALL_CASES = {**EQUAL_X_CASES, **DISTINCT_X_CASES}

_CONDITIONS = tuple(condition for condition, _, _ in DISTINCT_X_CASES.values())


def root_image(case_id: str, x2, y1, y2, z1, z2):
    """The case's root image x2*y_j*z_k over any field."""
    _, j, k = ALL_CASES[case_id]
    return x2 * (y1, y2)[j - 1] * (z1, z2)[k - 1]


def solved_value(case_id: str, x2, y1, y2, z1, z2):
    """The value that makes the case condition an identity over any field:
    z1 = y_j*z_k/y_j' (with x1 = x2) for the equal-x cases and
    x1 = x2*y_j*z_k/(y_j'*z_k') for the distinct-x cases."""
    _, j, k = ALL_CASES[case_id]
    ys, zs = (y1, y2), (z1, z2)
    if case_id in EQUAL_X_CASES:
        return ys[j - 1] * zs[k - 1] / ys[2 - j]
    return x2 * ys[j - 1] * zs[k - 1] / (ys[2 - j] * zs[2 - k])


def equal_x_lines(x, y1, y2):
    """The eigenlines of s2 = [[y1+y2, 1/x], [-y1*y2*x, 0]] over any field:
    (-1/(x*y2), 1) for y1 and (-1/(x*y1), 1) for y2.  At an equal-x
    reducible point both are invariant."""
    return (-1 / (x * y2), 1), (-1 / (x * y1), 1)


def solve_case(case_id: str, p: Params | Sequence[complex]) -> Params:
    """Return p with one parameter replaced so the case condition holds
    exactly (in floating point): z1 is solved for the equal-x cases, x1 for
    the distinct-x cases.  p may also be the six values x1..z2 alone, not
    yet validated: only the returned Params is."""
    _, x2, y1, y2, z1, z2, *cubic = p
    value = solved_value(case_id, x2, y1, y2, z1, z2)
    if case_id in EQUAL_X_CASES:
        return Params(x2, x2, y1, y2, value, z2, *cubic)
    return Params(value, x2, y1, y2, z1, z2, *cubic)


def regime(p: Params, tol: float = VERDICT_TOL) -> str:
    return EQUAL_X if approx_eq(p.x1, p.x2, tol) else DISTINCT_X


def theorem_verdict(
    p: Params, tol: float = VERDICT_TOL
) -> tuple[str, str, tuple[ConditionFlag, ...]]:
    """(regime, decision, condition flags).  Irreducible iff no reducibility
    condition holds.  Branch-independent: only cross-products of parameters.

    One flag per distinct-x condition, in case order, at every point; each
    side is a product formed left to right as written in its name, e.g.
    (x1*y2)*z2, and the sides are equal when |lhs - rhs| is small at scales
    |lhs|, |rhs| (numerics' tolerance rule).  The regime is regime(p, tol), inlined.

    Raises OverflowError when a difference |lhs - rhs| is not finite.  A side
    that overflowed to inf or nan always leaves it so, and an infinite side
    would otherwise make its bound inf and its flag hold.  (Two finite sides
    whose difference overflows have a product, DELTA, that overflows too.)
    Raises ValueError unless 0 < tol < inf: an infinite tol would make every
    flag hold at every finite point.
    """
    if not 0.0 < tol < inf:
        problem = "finite" if tol == inf else "positive"
        raise ValueError(f"tolerance must be {problem}")
    x1, x2, y1, y2, z1, z2, _, _ = p
    dx, mod_x1, mod_x2 = abs(x1 - x2), abs(x1), abs(x2)
    reg = EQUAL_X if dx <= tol or dx <= tol * mod_x1 or dx <= tol * mod_x2 else DISTINCT_X
    x1y1, x1y2, x2y1, x2y2 = x1 * y1, x1 * y2, x2 * y1, x2 * y2
    l1, r1 = x1y2 * z2, x2y1 * z1
    l2, r2 = x1y1 * z2, x2y2 * z1
    l3, r3 = x1y2 * z1, x2y1 * z2
    l4, r4 = x1y1 * z1, x2y2 * z2
    d1, d2, d3, d4 = abs(l1 - r1), abs(l2 - r2), abs(l3 - r3), abs(l4 - r4)
    if not (d1 < inf and d2 < inf and d3 < inf and d4 < inf):  # inf or nan
        raise OverflowError("a side of the criteria is not finite")
    ml1, mr1, ml2, mr2 = abs(l1), abs(r1), abs(l2), abs(r2)
    ml3, mr3, ml4, mr4 = abs(l3), abs(r3), abs(l4), abs(r4)
    e1 = d1 <= tol or d1 <= tol * ml1 or d1 <= tol * mr1
    e2 = d2 <= tol or d2 <= tol * ml2 or d2 <= tol * mr2
    e3 = d3 <= tol or d3 <= tol * ml3 or d3 <= tol * mr3
    e4 = d4 <= tol or d4 <= tol * ml4 or d4 <= tol * mr4
    n1, n2, n3, n4 = _CONDITIONS
    flags = (
        _record(ConditionFlag, (n1, l1, r1, e1)),
        _record(ConditionFlag, (n2, l2, r2, e2)),
        _record(ConditionFlag, (n3, l3, r3, e3)),
        _record(ConditionFlag, (n4, l4, r4, e4)),
    )
    decision = REDUCIBLE if e1 or e2 or e3 or e4 else IRREDUCIBLE
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
    built once; a dict passed as triples receives them keyed by r sign.
    A float overflow in the criteria or the oracle raises InvalidParams."""
    try:
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
    except OverflowError:
        raise InvalidParams("parameter magnitudes overflow the criteria or the oracle") from None
    return _record(
        Verdict, (reg, r_sign, tol, theorem, flags, oracle, witness, agreement, diagnosis)
    )
