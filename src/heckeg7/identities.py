"""Exact symbolic verification of the algebra behind the irreducibility
criteria.

Everything here runs over Z[x1,x2,y1,y2,z1,z2] adjoined a formal square root
r of DELTA = x1*x2*y1*y2*z1*z2 (see exact).  A check counts as "verified"
only when the difference of the two sides reduces to the literal zero
element -- never "small", always exactly zero.

The checks run the package's own closed forms over this field: the
generators of representation.generators, the conjugator of
representation.conjugator, the solved cases of irreducibility.solved_value
and the lines of irreducibility.equal_x_lines, with matrix2.Mat2 as the
matrix type.  So each proof is about the formula the float code runs.

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
      of r.
  conjugation-formulas
      the entries of T^-1 s_i T for the upper-triangular T that
      diagonalizes s1 when x1 != x2, including two corrected entry
      normalizations forced by trace/determinant preservation (see
      verify_conjugation_formulas).
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

from typing import NamedTuple

from .exact import ExtElem, Poly, RatElem, Substitution, substitute
from .irreducibility import (
    ALL_CASES,
    _EQUAL_CASES,
    equal_x_lines,
    root_image,
    solved_value,
)
from .matrix2 import Mat2
from .representation import GeneratorTriple, _check_sign, conjugator, generators

VERIFIED = "verified"
FAILED = "failed"
SIGN_DEPENDENT = "sign-dependent"

# Symbolic generators of the coefficient ring and its fraction field.
_PX1, _PX2, _PY1, _PY2, _PZ1, _PZ2 = (
    Poly.var(n) for n in ("x1", "x2", "y1", "y2", "z1", "z2")
)
X1, X2, Y1, Y2, Z1, Z2 = (
    RatElem.var(n) for n in ("x1", "x2", "y1", "y2", "z1", "z2")
)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    note: str = ""
    residual: str | None = None


class IdentityReport(NamedTuple):
    name: str
    status: str
    checks: tuple[CheckResult, ...]
    summary: str = ""

    def failed(self) -> bool:
        return self.status == FAILED


_POSITIONS = ("(1,1)", "(1,2)", "(2,1)", "(2,2)")


def entries(m: Mat2) -> tuple[tuple[str, RatElem], ...]:
    """The four entries of m with their position labels, row-major."""
    return tuple(zip(_POSITIONS, m))


def trace(m: Mat2) -> RatElem:
    return m.a + m.d


def det(m: Mat2) -> RatElem:
    return m.a * m.d - m.b * m.c


def sym_generators(r_sign: int = 1) -> GeneratorTriple:
    """representation.generators over the fraction field, with r kept formal
    (r_sign = -1 replaces r by its conjugate root throughout)."""
    return generators(X1, X2, Y1, Y2, Z1, Z2, RatElem.r(_check_sign(r_sign)))


def w_alpha_beta() -> tuple[ExtElem, ExtElem, ExtElem]:
    """(w, alpha, beta) as extension elements (formal positive r)."""
    r = ExtElem.r()
    ysum, yprod, zsum = _PY1 + _PY2, _PY1 * _PY2, _PZ1 + _PZ2
    w = ExtElem((_PX1 - _PX2) ** 2 * yprod**2 * (_PZ1 * _PZ2)) + (
        r * ysum - _PX1 * yprod * zsum
    ) * (r * ysum - _PX2 * yprod * zsum)
    alpha = ExtElem(_PX2 * yprod * _PZ1 + _PX1 * yprod * _PZ2) - r * ysum
    beta = ExtElem(_PX1 * yprod * _PZ1 + _PX2 * yprod * _PZ2) - r * ysum
    return w, alpha, beta


def conjugated_upper_right_numerator() -> ExtElem:
    """The upper-right entry of T^-1 s3 T cleared of its nonvanishing
    prefactor x1*x2*z1*z2 / ((x1-x2)^2 r^3)."""
    x1, x2, y1, y2, z1, z2 = _PX1, _PX2, _PY1, _PY2, _PZ1, _PZ2
    yprod = y1 * y2
    poly_part = (
        -(x1 * x2 * yprod * z1**2)
        - x1 * x2 * y1**2 * z1 * z2
        - x1**2 * yprod * z1 * z2
        - 2 * x1 * x2 * yprod * z1 * z2
        - x2**2 * yprod * z1 * z2
        - x1 * x2 * y2**2 * z1 * z2
        - x1 * x2 * yprod * z2**2
    )
    r_part = (x1 + x2) * (y1 + y2) * (z1 + z2)
    return ExtElem(poly_part, r_part)


# irreducibility.root_image of each case over the symbols: its square is
# exactly the image of DELTA, and both signs are legal root images.
_ROOT_IMAGES = {
    case_id: root_image(case_id, X2, Y1, Y2, Z1, Z2) for case_id in ALL_CASES
}


def case_substitution(case_id: str) -> tuple[dict[str, RatElem], RatElem]:
    """The assignment that makes the case condition an identity -- the
    solved value of irreducibility.solved_value, with x1 = x2 in the
    equal-x cases -- and the induced root."""
    value = solved_value(case_id, X2, Y1, Y2, Z1, Z2)
    if case_id in _EQUAL_CASES:
        return {"x1": X2, "z1": value}, _ROOT_IMAGES[case_id]
    return {"x1": value}, _ROOT_IMAGES[case_id]


def _eq_check(name: str, lhs: RatElem, rhs: RatElem, note: str = "") -> CheckResult:
    ok = lhs.equals(rhs)
    residual = None
    if not ok:
        residual = str(lhs.num * rhs.den - rhs.num * lhs.den)
    return CheckResult(name, ok, note, residual)


def _zero_check(name: str, value: RatElem, note: str = "") -> CheckResult:
    ok = value.is_zero()
    return CheckResult(name, ok, note, None if ok else str(value.num))


def _mat_check(name: str, lhs: Mat2, rhs: Mat2, note: str = "") -> CheckResult:
    """Entrywise equality; the residual lists each unequal entry."""
    bad = [
        (pos, e1, e2)
        for (pos, e1), e2 in zip(entries(lhs), rhs)
        if not e1.equals(e2)
    ]
    residual = "; ".join(
        f"{pos}: {e1.num * e2.den - e2.num * e1.den}" for pos, e1, e2 in bad
    )
    return CheckResult(name, not bad, note, residual or None)


def _eigvec_check(
    name: str, m: Mat2, eig: RatElem, v: tuple[RatElem, RatElem], note: str
) -> CheckResult:
    """m*v = eig*v, both components."""
    image = m.apply(v)
    ok = image[0].equals(eig * v[0]) and image[1].equals(eig * v[1])
    residual = None
    if not ok:
        residual = str((image[0] - eig * v[0]).num * (image[1] - eig * v[1]).den)
    return CheckResult(name, ok, note, residual)


def _status(checks: list[CheckResult], sign_dependent: bool = False) -> str:
    if not all(c.ok for c in checks):
        return FAILED
    return SIGN_DEPENDENT if sign_dependent else VERIFIED


def verify_reducibility_condition_factorization() -> IdentityReport:
    lhs = (_PY1 + _PY2) ** 2 * _PZ1 * _PZ2 - (_PZ1 + _PZ2) ** 2 * _PY1 * _PY2
    rhs = -((_PY1 * _PZ1 - _PY2 * _PZ2) * (_PY2 * _PZ1 - _PY1 * _PZ2))
    ok = lhs == rhs
    check = CheckResult(
        "(y1+y2)^2*z1*z2 - (z1+z2)^2*y1*y2 = -(y1*z1 - y2*z2)*(y2*z1 - y1*z2)",
        ok,
        "polynomial identity behind the two equal-x reducibility conditions",
        None if ok else str(lhs - rhs),
    )
    return IdentityReport(
        "reducibility-condition-factorization",
        _status([check]),
        (check,),
        "squared equal-x eigencondition factors into the two cross-product conditions",
    )


def verify_w_factorization() -> IdentityReport:
    w, alpha, beta = w_alpha_beta()
    checks = [
        _zero_check(
            "w = alpha*beta", RatElem(w - alpha * beta), "exact in the extension ring"
        )
    ]
    # Multiplying each factor by its root-conjugate eliminates r and lands on
    # a product of two cross-product conditions: alpha*conj(alpha) =
    # y1*y2*(x1*y1*z2 - x2*y2*z1)*(x1*y2*z2 - x2*y1*z1), and beta likewise
    # with the other condition pair.
    yprod = _PY1 * _PY2
    alpha_sq = alpha * alpha.conjugate()
    alpha_rhs = ExtElem(
        yprod
        * (_PX1 * _PY1 * _PZ2 - _PX2 * _PY2 * _PZ1)
        * (_PX1 * _PY2 * _PZ2 - _PX2 * _PY1 * _PZ1)
    )
    checks.append(
        _zero_check(
            "alpha*conj(alpha) = y1*y2*(x1*y1*z2 - x2*y2*z1)*(x1*y2*z2 - x2*y1*z1)",
            RatElem(alpha_sq - alpha_rhs),
            "links the vanishing of alpha to two of the four cross-product conditions",
        )
    )
    beta_sq = beta * beta.conjugate()
    beta_rhs = ExtElem(
        yprod
        * (_PX1 * _PY2 * _PZ1 - _PX2 * _PY1 * _PZ2)
        * (_PX1 * _PY1 * _PZ1 - _PX2 * _PY2 * _PZ2)
    )
    checks.append(
        _zero_check(
            "beta*conj(beta) = y1*y2*(x1*y2*z1 - x2*y1*z2)*(x1*y1*z1 - x2*y2*z2)",
            RatElem(beta_sq - beta_rhs),
            "links the vanishing of beta to the other two cross-product conditions",
        )
    )
    return IdentityReport(
        "w-factorization",
        _status(checks),
        tuple(checks),
        "w factors as alpha*beta; the conjugate products recover the four "
        "distinct-x cross-product conditions",
    )


def _relation_checks(sign: int) -> list[CheckResult]:
    s1, s2, s3 = sym_generators(sign)
    tag = f"[r sign {sign:+d}]"
    p123 = s1 * s2 * s3
    p231 = s2 * s3 * s1
    p312 = s3 * s1 * s2
    note = "entrywise in the fraction field"
    checks = [
        _mat_check(f"s1*s2*s3 = s2*s3*s1 {tag}", p123, p231, note),
        _mat_check(f"s1*s2*s3 = s3*s1*s2 {tag}", p123, p312, note),
    ]
    quads = (
        (f"(s1 - x1)(s1 - x2) = 0 {tag}", s1, X1, X2),
        (f"(s2 - y1)(s2 - y2) = 0 {tag}", s2, Y1, Y2),
        (f"(s3 - z1)(s3 - z2) = 0 {tag}", s3, Z1, Z2),
    )
    for label, m, e1, e2 in quads:
        prod = m.minus_scalar(e1) * m.minus_scalar(e2)
        bad = [(pos, e) for pos, e in entries(prod) if not e.is_zero()]
        checks.append(
            CheckResult(
                label,
                not bad,
                "quadratic eigenvalue relation",
                None if not bad else "; ".join(f"{pos}: {e.num}" for pos, e in bad),
            )
        )
    return checks


def verify_braid_hecke_relations() -> IdentityReport:
    checks = _relation_checks(1) + _relation_checks(-1)
    return IdentityReport(
        "braid-hecke-relations",
        _status(checks),
        tuple(checks),
        "the triple satisfies the cyclic braid relation and all three "
        "quadratic relations on both root branches",
    )


def _conjugation_checks(sign: int) -> list[CheckResult]:
    rr = RatElem.r(sign)
    tag = f"[r sign {sign:+d}]"
    s1, s2, s3 = sym_generators(sign)
    t_mat = conjugator(s1, X1, X2)
    t_inv = Mat2(1, -t_mat.b, 0, 1)
    b1 = t_inv * (s1 * t_mat)
    b2 = t_inv * (s2 * t_mat)
    b3 = t_inv * (s3 * t_mat)

    diff = X1 - X2
    ysum, yprod, zsum = Y1 + Y2, Y1 * Y2, Z1 + Z2
    m_entry = -X2 * (-(X1 * yprod * Z1) - X1 * yprod * Z2 + Y1 * rr + Y2 * rr) / (diff * rr)
    p_corrected = -X1 * (X2 * yprod * Z1 + X2 * yprod * Z2 - Y1 * rr - Y2 * rr) / (diff * rr)
    p_variant = -X1 * (-(X2 * yprod * Z1) - X2 * yprod * Z2 - Y1 * rr - Y2 * rr) / (diff * rr)
    a_entry = (ysum * rr - X2 * yprod * zsum) / (diff * yprod)
    c_entry = (-(rr * ysum) + X1 * yprod * zsum) / (diff * yprod)
    w_rat = (diff**2 * yprod**2 * Z1 * Z2) + (ysum * rr - X1 * yprod * zsum) * (
        ysum * rr - X2 * yprod * zsum
    )
    w_scale = X1 * Y1**2 * Y2**2 * Z1 * Z2 * diff**2
    nb = conjugated_upper_right_numerator()
    if sign == -1:
        nb = nb.conjugate()
    b_entry = (X1 * X2 * Z1 * Z2 * RatElem(nb)) / (diff**2 * rr**3)

    checks = [
        _eq_check(f"T^-1*s1*T = diag(x1, x2): (1,1) {tag}", b1.a, X1),
        _zero_check(f"T^-1*s1*T = diag(x1, x2): (1,2) {tag}", b1.b),
        _zero_check(f"T^-1*s1*T = diag(x1, x2): (2,1) {tag}", b1.c),
        _eq_check(f"T^-1*s1*T = diag(x1, x2): (2,2) {tag}", b1.d, X2),
        _eq_check(
            f"conjugated s2 (1,1) = -x2*(-x1*y1*y2*z1 - x1*y1*y2*z2 + y1*r + y2*r)"
            f"/((x1-x2)*r) {tag}",
            b2.a,
            m_entry,
        ),
        _eq_check(f"conjugated s2 (2,1) = -x1*y1*y2 {tag}", b2.c, -(X1 * yprod)),
        _eq_check(
            f"conjugated s2 (1,2) = w/(x1*y1^2*y2^2*z1*z2*(x1-x2)^2) {tag}",
            b2.b,
            w_rat / w_scale,
            "the upper-right entry is w divided by this nonzero normalization, "
            "not w itself; determinant preservation (det = y1*y2) forces the factor",
        ),
        CheckResult(
            f"conjugated s2 (1,2) differs from undivided w {tag}",
            not b2.b.equals(w_rat),
            "machine-checked: equating the entry to w itself fails; only the "
            "normalized form above is an identity",
        ),
        _eq_check(
            f"conjugated s2 (2,2) = -x1*(x2*y1*y2*z1 + x2*y1*y2*z2 - y1*r - y2*r)"
            f"/((x1-x2)*r) {tag}",
            b2.d,
            p_corrected,
            "trace preservation (trace = y1+y2) forces the positive z-term signs",
        ),
        CheckResult(
            f"conjugated s2 (2,2) differs from the negated-z-terms variant {tag}",
            not b2.d.equals(p_variant),
            "machine-checked: the variant with -x2*y1*y2*z1 - x2*y1*y2*z2 inside "
            "the parentheses is not the entry (it would break the trace)",
        ),
        _eq_check(
            f"conjugated s3 (1,1) = ((y1+y2)*r - x2*y1*y2*(z1+z2))/((x1-x2)*y1*y2) {tag}",
            b3.a,
            a_entry,
        ),
        _eq_check(
            f"conjugated s3 (1,2) = x1*x2*z1*z2*(sum)/((x1-x2)^2*r^3) {tag}",
            b3.b,
            b_entry,
            "the long explicit upper-right entry, exact as printed",
        ),
        _eq_check(f"conjugated s3 (2,1) = r {tag}", b3.c, rr),
        _eq_check(
            f"conjugated s3 (2,2) = (-r*(y1+y2) + x1*y1*y2*(z1+z2))/((x1-x2)*y1*y2) {tag}",
            b3.d,
            c_entry,
        ),
        _eq_check(f"trace of conjugated s2 = y1+y2 {tag}", trace(b2), ysum),
        _eq_check(f"det of conjugated s2 = y1*y2 {tag}", det(b2), yprod),
        _eq_check(f"trace of conjugated s3 = z1+z2 {tag}", trace(b3), zsum),
        _eq_check(f"det of conjugated s3 = z1*z2 {tag}", det(b3), Z1 * Z2),
    ]
    return checks


def verify_conjugation_formulas() -> IdentityReport:
    checks = _conjugation_checks(1) + _conjugation_checks(-1)
    return IdentityReport(
        "conjugation-formulas",
        _status(checks),
        tuple(checks),
        "all conjugated entries verified exactly; the upper-right and "
        "lower-right entries of the conjugated s2 hold in corrected "
        "normalizations forced by trace/determinant preservation, and the "
        "uncorrected variants are machine-checked to be unequal",
    )


def verify_conjugated_upper_right_vanishing() -> IdentityReport:
    nb = conjugated_upper_right_numerator()
    checks = []
    vanish_signs: dict[str, list[int]] = {}
    for case_id in ("distinct-x-1", "distinct-x-2", "distinct-x-3", "distinct-x-4"):
        assignment, root = case_substitution(case_id)
        sub = Substitution(assignment)
        vanish_signs[case_id] = []
        for sign in (1, -1):
            image = substitute(nb, sub, root if sign == 1 else -root)
            vanished = image.is_zero()
            if vanished:
                vanish_signs[case_id].append(sign)
            expected = sign == 1
            ok = vanished == expected
            checks.append(
                CheckResult(
                    f"{case_id}: numerator {'vanishes' if expected else 'is nonzero'} "
                    f"at induced root sign {sign:+d}",
                    ok,
                    "exact substitution of the solved parameter with the stated root image",
                    None if ok else str(image.num),
                )
            )
    sign_dependent = any(len(v) == 1 for v in vanish_signs.values())
    return IdentityReport(
        "conjugated-upper-right-vanishing",
        _status(checks, sign_dependent=sign_dependent),
        tuple(checks),
        "each of the four substitutions annihilates the numerator at exactly "
        "one sign of the induced root (the positive image); the other sign "
        "leaves it nonzero",
    )


def _eigenrelation_checks(case_id: str) -> list[CheckResult]:
    assignment, root = case_substitution(case_id)
    sub = Substitution(assignment)
    s1, s2, s3 = sym_generators(1)
    u, v = equal_x_lines(X2, Y1, Y2)
    # s3 acts on u and v by z2 and by the solved z1, in the case's order
    z1 = assignment["z1"]
    if case_id == "equal-x-1":
        s3_eig, v_s3_eig = Z2, z1
        s3_display = Mat2(
            RatElem(0), -Z2 / (X2 * Y2), X2 * Y1 * Z2, Z2 + Y1 * Z2 / Y2
        )
    else:
        s3_eig, v_s3_eig = z1, Z2
        s3_display = Mat2(
            RatElem(0), -Z2 / (X2 * Y1), X2 * Y2 * Z2, Z2 + Y2 * Z2 / Y1
        )
    s2_display = Mat2(Y1 + Y2, RatElem(1) / X2, -(X2 * Y1 * Y2), RatElem(0))

    def sub_mat(m: Mat2, r_img: RatElem) -> Mat2:
        return Mat2(*(substitute(e, sub, r_img) for e in m))

    s1_sub = sub_mat(s1, root)
    s2_sub = sub_mat(s2, root)
    s3_sub = sub_mat(s3, root)
    checks = [
        _zero_check(
            f"{case_id}: substituted s1(1,2) = 0 at the consistent root image",
            s1_sub.b,
            "the upper-right entry collapses, making s1 scalar",
        ),
        _eq_check(f"{case_id}: substituted s1(1,1) = x2", s1_sub.a, X2),
        _eq_check(f"{case_id}: substituted s1(2,2) = x2", s1_sub.d, X2),
    ]
    for pos_name, lhs, rhs in (
        ("s2", s2_sub, s2_display),
        ("s3", s3_sub, s3_display),
    ):
        checks.append(
            _mat_check(
                f"{case_id}: substituted {pos_name} matches its displayed specialization",
                lhs,
                rhs,
            )
        )
    for mat, eig, label in (
        (s1_sub, X2, "s1*u = x2*u"),
        (s2_sub, Y1, "s2*u = y1*u"),
        (s3_sub, s3_eig, f"s3*u = ({s3_eig})*u"),
    ):
        checks.append(
            _eigvec_check(
                f"{case_id}: {label} with u = (-1/(x2*y2), 1)",
                mat,
                eig,
                u,
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
            _eigvec_check(
                f"{case_id}: {label} with the complementary direction v = (-1/(x2*y1), 1)",
                mat,
                eig,
                v,
                "the complementary eigendirection of s2 is invariant too: the "
                "invariant line is not unique (complete splitting)",
            )
        )
    s1_flip = substitute(s1.b, sub, -root)
    checks.append(
        CheckResult(
            f"{case_id}: substituted s1(1,2) is nonzero at the flipped root image",
            not s1_flip.is_zero(),
            "the collapse of s1(1,2) is specific to one root image; on the "
            "other branch the line is not invariant",
        )
    )
    return checks


def verify_invariant_line_eigenrelations() -> IdentityReport:
    checks = _eigenrelation_checks("equal-x-1") + _eigenrelation_checks("equal-x-2")
    return IdentityReport(
        "invariant-line-eigenrelations",
        _status(checks),
        tuple(checks),
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
            raise KeyError(
                f"unknown identity {only!r}; available: {', '.join(REGISTRY)}"
            )
        return [REGISTRY[only]()]
    return [fn() for fn in REGISTRY.values()]


def report_as_dict(report: IdentityReport) -> dict:
    return {
        "name": report.name,
        "status": report.status,
        "summary": report.summary,
        "checks": [
            {
                "name": c.name,
                "ok": c.ok,
                "note": c.note,
                "residual": c.residual,
            }
            for c in report.checks
        ],
    }
