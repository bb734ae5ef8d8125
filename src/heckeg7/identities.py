"""Exact symbolic verification of the algebra behind the irreducibility
criteria.

Everything here runs over the Laurent polynomials Z[x1^±1, ..., z2^±1]
adjoined a formal square root r of DELTA = x1*x2*y1*y2*z1*z2 (see exact).
Every divisor the checks need is a monomial or r, a unit of that ring, so no
fraction is ever formed.  A check counts as "verified" only when the two
sides have the same terms -- never "close", always exactly equal.

The checks run the package's own closed forms over this ring: the
generators of representation.generators, the conjugator of
representation.conjugator, the solved cases of irreducibility.solved_value
and the lines of irreducibility.s2_eigenlines, with matrix2.Mat2 as the
matrix type.  So each proof is about the formula the float code runs.
sym_generators, w_alpha_beta and conjugated_upper_right_numerator are built
once per process, on first call, and shared, never mutated, by every report;
each report calls them through this module's globals.

The two reports stated at both signs of r build their sides at sign +1 only.
r -> -r (ExtElem.conjugate) is a ring automorphism fixing every variable, and
a side at sign -1 is built by ring operations and unit divisions from the
images of what builds it at +1: the triple, r, w and the numerator.  So when
sym_generators(-1) is the image of sym_generators(1), the -1 sides are the
images of the +1 sides, exactly; otherwise they are built directly.

The suite covers six identity groups:

  reducibility-condition-factorization
      (y1+y2)^2 z1 z2 - (z1+z2)^2 y1 y2 = -(y1 z1 - y2 z2)(y2 z1 - y1 z2),
      the factorization that turns the vanishing of the equal-x upper-right
      entry into the two cross-product conditions.
  w-factorization
      w = alpha*beta for the discriminant-like quantity
      w = (x1-x2)^2 y1^2 y2^2 z1 z2
          + [(y1+y2) r - x1 y1 y2 (z1+z2)] [(y1+y2) r - x2 y1 y2 (z1+z2)],
      alpha = x2 y1 y2 z1 + x1 y1 y2 z2 - (y1+y2) r,
      beta  = x1 y1 y2 z1 + x2 y1 y2 z2 - (y1+y2) r,
      plus the squared forms linking alpha, beta to the four distinct-x
      cross-product conditions.
  braid-hecke-relations
      s1 s2 s3 = s2 s3 s1 = s3 s1 s2 and the three quadratic relations
      (s1-x1)(s1-x2) = (s2-y1)(s2-y2) = (s3-z1)(s3-z2) = 0, for both signs
      of r (sign -1 by r -> -r, below).
  conjugation-formulas
      the entries of T^-1 s_i T for the upper-triangular T that
      diagonalizes s1 when x1 != x2, including two corrected entry
      normalizations forced by trace/determinant preservation (see
      verify_conjugation_formulas).  Each is stated times det(T) =
      (x2-x1)^2, as adj(T) s_i T, so that nothing divides by x2 - x1.
  conjugated-upper-right-vanishing
      the numerator of the upper-right entry of T^-1 s3 T vanishes under
      each of the four distinct-x reducibility substitutions -- at exactly
      one sign of the induced root.
  invariant-line-eigenrelations
      under each equal-x reducibility substitution the generators fix the
      line through (-1/(x2*y2), 1), with the stated eigenvalues, at the
      consistent root image.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .exact import ExtElem, Substitution, substitute
from .irreducibility import (
    DISTINCT_X_CASES, EQUAL_X_CASES, root_image, s2_eigenlines, solved_value,
)
from .matrix2 import Mat2
from .representation import GeneratorTriple, InvalidParams, _check_sign, conjugator, generators

VERIFIED = "verified"
FAILED = "failed"
SIGN_DEPENDENT = "sign-dependent"

# The variables as elements of the ring.
X1, X2, Y1, Y2, Z1, Z2 = (
    ExtElem.var(n) for n in ("x1", "x2", "y1", "y2", "z1", "z2")
)


CheckResult = namedtuple("CheckResult", "name ok note residual", defaults=("", None))


class IdentityReport(namedtuple("IdentityReport", "name status checks summary", defaults=("",))):
    """status is VERIFIED, FAILED or SIGN_DEPENDENT; checks is a tuple of
    CheckResult."""

    __slots__ = ()

    def failed(self) -> bool:
        return self.status == FAILED


def trace(m: Mat2) -> ExtElem:
    return m.a + m.d


def det(m: Mat2) -> ExtElem:
    return m.a * m.d - m.b * m.c


@cache
def sym_generators(r_sign: int = 1) -> GeneratorTriple:
    """representation.generators over the extension ring, with r kept formal
    (r_sign = -1 replaces r by its conjugate root throughout)."""
    return generators(X1, X2, Y1, Y2, Z1, Z2, ExtElem.r(_check_sign(r_sign)))


@cache
def w_alpha_beta() -> tuple[ExtElem, ExtElem, ExtElem]:
    """(w, alpha, beta) as extension elements (formal positive r)."""
    r = ExtElem.r()
    ysum, yprod, zsum = Y1 + Y2, Y1 * Y2, Z1 + Z2
    w = (X1 - X2) ** 2 * yprod**2 * (Z1 * Z2) + (
        r * ysum - X1 * yprod * zsum
    ) * (r * ysum - X2 * yprod * zsum)
    alpha = X2 * yprod * Z1 + X1 * yprod * Z2 - r * ysum
    beta = X1 * yprod * Z1 + X2 * yprod * Z2 - r * ysum
    return w, alpha, beta


@cache
def conjugated_upper_right_numerator() -> ExtElem:
    """The upper-right entry of T^-1 s3 T cleared of its nonvanishing
    prefactor x1*x2*z1*z2 / ((x1-x2)^2 r^3)."""
    yprod = Y1 * Y2
    poly_part = (
        -(X1 * X2 * yprod * Z1**2)
        - X1 * X2 * Y1**2 * Z1 * Z2
        - X1**2 * yprod * Z1 * Z2
        - 2 * X1 * X2 * yprod * Z1 * Z2
        - X2**2 * yprod * Z1 * Z2
        - X1 * X2 * Y2**2 * Z1 * Z2
        - X1 * X2 * yprod * Z2**2
    )
    r_part = (X1 + X2) * (Y1 + Y2) * (Z1 + Z2)
    return poly_part + r_part * ExtElem.r()


def case_substitution(case_id: str) -> tuple[dict[str, ExtElem], ExtElem]:
    """The assignment that makes the case condition an identity -- the
    solved value of irreducibility.solved_value, with x1 = x2 in the
    equal-x cases -- and the induced root, irreducibility.root_image over
    the symbols (its square is exactly the image of DELTA, and both signs
    are legal root images)."""
    value = solved_value(case_id, X2, Y1, Y2, Z1, Z2)
    root = root_image(case_id, X2, Y1, Y2, Z1, Z2)
    if case_id in EQUAL_X_CASES:
        return {"x1": X2, "z1": value}, root
    return {"x1": value}, root


# the residual's prefix for each entry of a ring element, a vector and a
# Mat2 (row-major)
_LABELS = {
    1: ("",),
    2: ("(1): ", "(2): "),
    4: ("(1,1): ", "(1,2): ", "(2,1): ", "(2,2): "),
}


def _check(name: str, lhs, rhs, note: str = "") -> CheckResult:
    """lhs = rhs exactly, for two ring elements, two vectors or two
    matrices.  A failure's residual is lhs - rhs; for a vector or matrix,
    that of each unequal entry, labelled with its position."""
    if isinstance(lhs, ExtElem):
        lhs, rhs = (lhs,), (rhs,)
    bad = [
        f"{label}{e1 - e2}"
        for label, e1, e2 in zip(_LABELS[len(lhs)], lhs, rhs)
        if e1 != e2
    ]
    return CheckResult(name, not bad, note, "; ".join(bad) or None)


def _differs(name: str, lhs: ExtElem, rhs, note: str) -> CheckResult:
    """lhs != rhs: a statement that must not hold.  A failure has no
    residual to show, since the two sides are equal."""
    return CheckResult(name, lhs != rhs, note)


def _report(
    name: str, checks: list[CheckResult], summary: str, status: str = VERIFIED
) -> IdentityReport:
    """The report of checks: status when all of them pass, else FAILED."""
    ok = all(c.ok for c in checks)
    return IdentityReport(name, status if ok else FAILED, tuple(checks), summary)


def verify_reducibility_condition_factorization() -> IdentityReport:
    lhs = (Y1 + Y2) ** 2 * Z1 * Z2 - (Z1 + Z2) ** 2 * Y1 * Y2
    rhs = -((Y1 * Z1 - Y2 * Z2) * (Y2 * Z1 - Y1 * Z2))
    check = _check(
        "(y1+y2)^2*z1*z2 - (z1+z2)^2*y1*y2 = -(y1*z1 - y2*z2)*(y2*z1 - y1*z2)",
        lhs,
        rhs,
        "polynomial identity behind the two equal-x reducibility conditions",
    )
    return _report(
        "reducibility-condition-factorization",
        [check],
        "squared equal-x eigencondition factors into the two cross-product conditions",
    )


def verify_w_factorization() -> IdentityReport:
    w, alpha, beta = w_alpha_beta()
    # Multiplying each factor by its root-conjugate eliminates r and lands on
    # a product of two cross-product conditions: alpha*conj(alpha) =
    # y1*y2*(x1*y1*z2 - x2*y2*z1)*(x1*y2*z2 - x2*y1*z1), and beta likewise
    # with the other condition pair.
    yprod = Y1 * Y2
    alpha_rhs = yprod * (X1 * Y1 * Z2 - X2 * Y2 * Z1) * (X1 * Y2 * Z2 - X2 * Y1 * Z1)
    beta_rhs = yprod * (X1 * Y2 * Z1 - X2 * Y1 * Z2) * (X1 * Y1 * Z1 - X2 * Y2 * Z2)
    checks = [
        _check(
            "w = alpha*beta",
            w,
            alpha * beta,
            "exact in the extension ring",
        ),
        _check(
            "alpha*conj(alpha) = y1*y2*(x1*y1*z2 - x2*y2*z1)*(x1*y2*z2 - x2*y1*z1)",
            alpha * alpha.conjugate(),
            alpha_rhs,
            "links the vanishing of alpha to two of the four cross-product conditions",
        ),
        _check(
            "beta*conj(beta) = y1*y2*(x1*y2*z1 - x2*y1*z2)*(x1*y1*z1 - x2*y2*z2)",
            beta * beta.conjugate(),
            beta_rhs,
            "links the vanishing of beta to the other two cross-product conditions",
        ),
    ]
    return _report(
        "w-factorization",
        checks,
        "w factors as alpha*beta; the conjugate products recover the four "
        "distinct-x cross-product conditions",
    )


def _row(name: str, lhs, rhs, note: str = "", check=_check) -> tuple:
    """A check of _both_signs, before its name is tagged with the sign."""
    return name, lhs, rhs, note, check


def _sigma(side):
    """A side's image under r -> -r, entrywise on a vector or matrix."""
    if isinstance(side, int):
        return side
    return side.conjugate() if isinstance(side, ExtElem) else tuple(map(_sigma, side))


def _both_signs(sides) -> list[CheckResult]:
    """The checks of the _rows sides(sign) at r sign +1, then -1: sides(-1),
    or the +1 rows' images under r -> -r (module docstring)."""
    plus = sides(1)
    minus = sides(-1) if sym_generators(-1) != _sigma(sym_generators(1)) else [
        (name, _sigma(lhs), _sigma(rhs), *rest) for name, lhs, rhs, *rest in plus
    ]
    return [
        check(f"{name} [r sign {sign:+d}]", lhs, rhs, note)
        for sign, rows in ((1, plus), (-1, minus))
        for name, lhs, rhs, note, check in rows
    ]


def _relation_sides(sign: int) -> list[tuple]:
    s1, s2, s3 = sym_generators(sign)
    p123 = s1 * s2 * s3
    note = "entrywise in the Laurent ring"
    zero, quad = Mat2(0, 0, 0, 0), "quadratic eigenvalue relation"
    return [
        _row("s1*s2*s3 = s2*s3*s1", p123, s2 * s3 * s1, note),
        _row("s1*s2*s3 = s3*s1*s2", p123, s3 * s1 * s2, note),
        _row("(s1 - x1)(s1 - x2) = 0", s1.minus_scalar(X1) * s1.minus_scalar(X2), zero, quad),
        _row("(s2 - y1)(s2 - y2) = 0", s2.minus_scalar(Y1) * s2.minus_scalar(Y2), zero, quad),
        _row("(s3 - z1)(s3 - z2) = 0", s3.minus_scalar(Z1) * s3.minus_scalar(Z2), zero, quad),
    ]


def verify_braid_hecke_relations() -> IdentityReport:
    return _report(
        "braid-hecke-relations",
        _both_signs(_relation_sides),
        "the triple satisfies the cyclic braid relation and all three "
        "quadratic relations on both root branches",
    )


def _conjugation_sides(sign: int) -> list[tuple]:
    rr = ExtElem.r(sign)
    s1, s2, s3 = sym_generators(sign)
    t_mat = conjugator(s1, X1, X2)
    # adj(T)*s*T = det(T) * T^-1*s*T with det(T) = (x2-x1)^2, so each check
    # states its closed form times det(T): a (x1-x2)^2 in a denominator
    # cancels, and (x2-x1)^2/(x1-x2) is x1 - x2
    t_adj = Mat2(t_mat.d, -t_mat.b, -t_mat.c, t_mat.a)
    b1 = t_adj * (s1 * t_mat)
    b2 = t_adj * (s2 * t_mat)
    b3 = t_adj * (s3 * t_mat)

    diff = X1 - X2
    det_t = diff * diff
    ysum, yprod, zsum = Y1 + Y2, Y1 * Y2, Z1 + Z2
    m_entry = -X2 * (-(X1 * yprod * Z1) - X1 * yprod * Z2 + Y1 * rr + Y2 * rr) * diff / rr
    p_corrected = -X1 * (X2 * yprod * Z1 + X2 * yprod * Z2 - Y1 * rr - Y2 * rr) * diff / rr
    p_variant = -X1 * (-(X2 * yprod * Z1) - X2 * yprod * Z2 - Y1 * rr - Y2 * rr) * diff / rr
    a_entry = (ysum * rr - X2 * yprod * zsum) * diff / yprod
    c_entry = (-(rr * ysum) + X1 * yprod * zsum) * diff / yprod
    # w and the upper-right numerator are stated at the positive root
    w = w_alpha_beta()[0]
    nb = conjugated_upper_right_numerator()
    if sign == -1:
        w, nb = w.conjugate(), nb.conjugate()
    w_scale = X1 * Y1**2 * Y2**2 * Z1 * Z2
    b_entry = X1 * X2 * Z1 * Z2 * nb / rr**3

    return [
        _row("T^-1*s1*T = diag(x1, x2): (1,1)", b1.a, det_t * X1),
        _row("T^-1*s1*T = diag(x1, x2): (1,2)", b1.b, 0),
        _row("T^-1*s1*T = diag(x1, x2): (2,1)", b1.c, 0),
        _row("T^-1*s1*T = diag(x1, x2): (2,2)", b1.d, det_t * X2),
        _row("conjugated s2 (1,1) = -x2*(-x1*y1*y2*z1 - x1*y1*y2*z2 + y1*r + y2*r)"
             "/((x1-x2)*r)", b2.a, m_entry),
        _row("conjugated s2 (2,1) = -x1*y1*y2", b2.c, -(det_t * X1 * yprod)),
        _row(
            "conjugated s2 (1,2) = w/(x1*y1^2*y2^2*z1*z2*(x1-x2)^2)",
            b2.b,
            w / w_scale,
            "the upper-right entry is w divided by this nonzero normalization, "
            "not w itself; determinant preservation (det = y1*y2) forces the factor",
        ),
        _row(
            "conjugated s2 (1,2) differs from undivided w",
            b2.b,
            det_t * w,
            "machine-checked: equating the entry to w itself fails; only the "
            "normalized form above is an identity",
            check=_differs,
        ),
        _row(
            "conjugated s2 (2,2) = -x1*(x2*y1*y2*z1 + x2*y1*y2*z2 - y1*r - y2*r)"
            "/((x1-x2)*r)",
            b2.d,
            p_corrected,
            "trace preservation (trace = y1+y2) forces the positive z-term signs",
        ),
        _row(
            "conjugated s2 (2,2) differs from the negated-z-terms variant",
            b2.d,
            p_variant,
            "machine-checked: the variant with -x2*y1*y2*z1 - x2*y1*y2*z2 inside "
            "the parentheses is not the entry (it would break the trace)",
            check=_differs,
        ),
        _row("conjugated s3 (1,1) = ((y1+y2)*r - x2*y1*y2*(z1+z2))/((x1-x2)*y1*y2)",
             b3.a, a_entry),
        _row(
            "conjugated s3 (1,2) = x1*x2*z1*z2*(sum)/((x1-x2)^2*r^3)",
            b3.b,
            b_entry,
            "the long explicit upper-right entry, exact as printed",
        ),
        _row("conjugated s3 (2,1) = r", b3.c, det_t * rr),
        _row("conjugated s3 (2,2) = (-r*(y1+y2) + x1*y1*y2*(z1+z2))/((x1-x2)*y1*y2)",
             b3.d, c_entry),
        _row("trace of conjugated s2 = y1+y2", trace(b2), det_t * ysum),
        _row("det of conjugated s2 = y1*y2", det(b2), det_t * det_t * yprod),
        _row("trace of conjugated s3 = z1+z2", trace(b3), det_t * zsum),
        _row("det of conjugated s3 = z1*z2", det(b3), det_t * det_t * Z1 * Z2),
    ]


def verify_conjugation_formulas() -> IdentityReport:
    return _report(
        "conjugation-formulas",
        _both_signs(_conjugation_sides),
        "all conjugated entries verified exactly; the upper-right and "
        "lower-right entries of the conjugated s2 hold in corrected "
        "normalizations forced by trace/determinant preservation, and the "
        "uncorrected variants are machine-checked to be unequal",
    )


def verify_conjugated_upper_right_vanishing() -> IdentityReport:
    nb = conjugated_upper_right_numerator()
    note = "exact substitution of the solved parameter with the stated root image"
    checks = []
    for case_id in DISTINCT_X_CASES:
        assignment, root = case_substitution(case_id)
        sub = Substitution(assignment)
        checks += [
            _check(
                f"{case_id}: numerator vanishes at induced root sign +1",
                substitute(nb, sub, root),
                0,
                note,
            ),
            _differs(
                f"{case_id}: numerator is nonzero at induced root sign -1",
                substitute(nb, sub, -root),
                0,
                note,
            ),
        ]
    # every check passing means each numerator vanishes at exactly one sign
    return _report(
        "conjugated-upper-right-vanishing",
        checks,
        "each of the four substitutions annihilates the numerator at exactly "
        "one sign of the induced root (the positive image); the other sign "
        "leaves it nonzero",
        SIGN_DEPENDENT,
    )


def _eigenrelation_checks(case_id: str) -> list[CheckResult]:
    assignment, root = case_substitution(case_id)
    sub = Substitution(assignment)
    s1, s2, s3 = sym_generators(1)
    u, v = s2_eigenlines(X2, Y1, Y2)
    # s3 acts by z2 on s2's y_j eigenline and by the solved z1 on the other
    _, j, _ = EQUAL_X_CASES[case_id]
    yj, yo = (Y1, Y2)[j - 1], (Y1, Y2)[2 - j]
    s3_eig, v_s3_eig = (Z2, assignment["z1"]) if j == 1 else (assignment["z1"], Z2)
    s3_display = Mat2(0, -Z2 / (X2 * yo), X2 * yj * Z2, Z2 + yj * Z2 / yo)
    s2_display = Mat2(Y1 + Y2, 1 / X2, -(X2 * Y1 * Y2), 0)

    def sub_mat(m: Mat2, r_img: ExtElem) -> Mat2:
        return Mat2(*(substitute(e, sub, r_img) for e in m))

    s1_sub = sub_mat(s1, root)
    s2_sub = sub_mat(s2, root)
    s3_sub = sub_mat(s3, root)
    checks = [
        _check(
            f"{case_id}: substituted s1(1,2) = 0 at the consistent root image",
            s1_sub.b,
            0,
            "the upper-right entry collapses, making s1 scalar",
        ),
        _check(f"{case_id}: substituted s1(1,1) = x2", s1_sub.a, X2),
        _check(f"{case_id}: substituted s1(2,2) = x2", s1_sub.d, X2),
        _check(
            f"{case_id}: substituted s2 matches its displayed specialization",
            s2_sub,
            s2_display,
        ),
        _check(
            f"{case_id}: substituted s3 matches its displayed specialization",
            s3_sub,
            s3_display,
        ),
    ]
    for mat, eig, label in (
        (s1_sub, X2, "s1*u = x2*u"),
        (s2_sub, Y1, "s2*u = y1*u"),
        (s3_sub, s3_eig, f"s3*u = ({s3_eig})*u"),
    ):
        checks.append(
            _check(
                f"{case_id}: {label} with u = (-1/(x2*y2), 1)",
                mat.apply(u),
                (eig * u[0], eig * u[1]),
                "the predicted invariant line is a joint eigendirection",
            )
        )
    # The invariant line is not unique here: s1 is scalar and the other
    # eigendirection of s2 is fixed by s3 as well, so the representation
    # splits into a direct sum of two one-dimensional summands.
    for mat, eig, label in (
        (s2_sub, Y2, "s2*v = y2*v"),
        (s3_sub, v_s3_eig, f"s3*v = ({v_s3_eig})*v"),
    ):
        checks.append(
            _check(
                f"{case_id}: {label} with the complementary direction v = (-1/(x2*y1), 1)",
                mat.apply(v),
                (eig * v[0], eig * v[1]),
                "the complementary eigendirection of s2 is invariant too: the "
                "invariant line is not unique (complete splitting)",
            )
        )
    checks.append(
        _differs(
            f"{case_id}: substituted s1(1,2) is nonzero at the flipped root image",
            substitute(s1.b, sub, -root),
            0,
            "the collapse of s1(1,2) is specific to one root image; on the "
            "other branch the line is not invariant",
        )
    )
    return checks


def verify_invariant_line_eigenrelations() -> IdentityReport:
    return _report(
        "invariant-line-eigenrelations",
        _eigenrelation_checks("equal-x-1") + _eigenrelation_checks("equal-x-2"),
        "both equal-x reducibility substitutions make s1 scalar and exhibit "
        "(-1/(x2*y2), 1) as a joint eigendirection with the stated "
        "eigenvalues, at the consistent root image; the complementary "
        "direction (-1/(x2*y1), 1) is invariant as well, so the equal-x "
        "reducible representation splits completely",
    )


REGISTRY = {
    "reducibility-condition-factorization": verify_reducibility_condition_factorization,
    "w-factorization": verify_w_factorization,
    "braid-hecke-relations": verify_braid_hecke_relations,
    "conjugation-formulas": verify_conjugation_formulas,
    "conjugated-upper-right-vanishing": verify_conjugated_upper_right_vanishing,
    "invariant-line-eigenrelations": verify_invariant_line_eigenrelations,
}


def run_all(only: str | None = None) -> list[IdentityReport]:
    if only is not None:
        if only not in REGISTRY:
            raise InvalidParams(
                f"unknown identity {only!r}; available: {', '.join(REGISTRY)}"
            )
        return [REGISTRY[only]()]
    return [fn() for fn in REGISTRY.values()]


def report_as_dict(report: IdentityReport) -> dict:
    return {**report._asdict(), "checks": [c._asdict() for c in report.checks]}
