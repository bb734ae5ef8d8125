"""The oracle's eigen-classification as it read before its hot path was
written out, kept verbatim as a reference for the tests.

matrix2.eigen_directions, _kernel_direction and normalize_direction now
fold the pivot division in and reuse the moduli the classification has
already taken; every float keeps its operations and their order, so their
results must equal these bit for bit.  Only the names are prefixed.

The second half keeps the per-point decide path as it read while its
tolerance tests and maxima called the builtin max: approx_eq, parallel,
theorem_verdict and the written-out eigen_directions, _kernel_direction and
common_eigenvector.  The package now writes each of them as comparison
chains (see heckeg7.numerics), which must give these bits, and these
exceptions, for every tol > 0.
"""

import math

from heckeg7.irreducibility import (
    _CONDITIONS,
    DISTINCT_X,
    EQUAL_X,
    IRREDUCIBLE,
    REDUCIBLE,
    ConditionFlag,
)
from heckeg7.matrix2 import JORDAN, SCALAR, SEMISIMPLE, EigenReport, Mat2, Vec2
from heckeg7.numerics import VERDICT_TOL, principal_sqrt
from heckeg7.sweep import _SEPARATION


def ref_normalize_direction(v: Vec2) -> Vec2:
    """Divide by the largest-modulus component (ties pick the first), making
    that component exactly 1."""
    return ref_divide_by_pivot(v[0], v[1], abs(v[0]), abs(v[1]))


def ref_divide_by_pivot(v0: complex, v1: complex, mod0: float, mod1: float) -> Vec2:
    # normalize_direction with the moduli |v0|, |v1| already known
    pivot = v0 if mod0 >= mod1 else v1
    if pivot == 0:
        raise ValueError("zero vector has no direction")
    return (v0 / pivot, v1 / pivot)


def ref_kernel_direction(m: Mat2, lam: complex) -> Vec2:
    # (m - lam) annihilates both candidates (b, lam - a) and (lam - d, c)
    # when lam is an exact eigenvalue; pick the numerically larger one.
    # Each entry's modulus is taken once.
    a0, a1, b0, b1 = m.b, lam - m.a, lam - m.d, m.c
    mod_a0, mod_a1, mod_b0, mod_b1 = abs(a0), abs(a1), abs(b0), abs(b1)
    if max(mod_a0, mod_a1) >= max(mod_b0, mod_b1):
        v0, v1, mod0, mod1 = a0, a1, mod_a0, mod_a1
    else:
        v0, v1, mod0, mod1 = b0, b1, mod_b0, mod_b1
    if max(mod0, mod1) == 0.0:
        # m is exactly lam*I on this eigenvalue; any direction works
        return (1.0 + 0.0j, 0.0 + 0.0j)
    return ref_divide_by_pivot(v0, v1, mod0, mod1)


def ref_eigen_directions(m: Mat2, tol: float = VERDICT_TOL) -> EigenReport:
    """Classify m and return eigendirections.

    Scalar: off-diagonal entries and the diagonal gap all vanish within
    tol relative to the matrix magnitude.  Jordan: the eigenvalue gap
    sqrt|(a-d)^2 + 4bc| is at most tol * maxmod but the matrix is not
    scalar; a single eigendirection exists.  (A looser test would merge
    eigenvalues farther apart than common_eigenvector's own tolerance, whose
    one direction can then fail its source matrix.)  Semisimple otherwise, two
    directions, eigenvalue order fixed by the principal square root of the
    discriminant (+ root first).
    """
    a, b, c, d = m
    mod_b, mod_c = abs(b), abs(c)
    scale = max(abs(a), mod_b, mod_c, abs(d))
    gap, trace = a - d, a + d
    if max(mod_b, mod_c, abs(gap)) <= tol * max(1.0, scale):
        return EigenReport(SCALAR, (trace / 2,), ())
    disc = gap ** 2 + 4 * b * c
    if abs(disc) <= (tol * scale) ** 2:
        lam = trace / 2
        return EigenReport(JORDAN, (lam,), (ref_kernel_direction(m, lam),))
    root = principal_sqrt(disc)
    lam1 = (trace + root) / 2
    lam2 = (trace - root) / 2
    return EigenReport(
        SEMISIMPLE,
        (lam1, lam2),
        (ref_kernel_direction(m, lam1), ref_kernel_direction(m, lam2)),
    )


def ref_approx_eq(a: complex, b: complex, tol: float = VERDICT_TOL) -> bool:
    """|a - b| <= tol * max(1, |a|, |b|): relative away from the unit scale,
    absolute inside it.  tol must be positive and finite: an infinite tol
    would make any two finite values equal."""
    if not 0.0 < tol < math.inf:
        problem = "finite" if tol == math.inf else "positive"
        raise ValueError(f"tolerance must be {problem}")
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def ref_cross(u: Vec2, v: Vec2) -> complex:
    """det [u v]; zero iff u and v are linearly dependent."""
    return u[0] * v[1] - u[1] * v[0]


def ref_vec_maxmod(v: Vec2) -> float:
    return max(abs(v[0]), abs(v[1]))


def ref_parallel(u: Vec2, v: Vec2, tol: float = VERDICT_TOL) -> bool:
    return abs(ref_cross(u, v)) <= tol * max(1.0, ref_vec_maxmod(u) * ref_vec_maxmod(v))


def ref_hot_kernel_direction(a, b, c, d, mod_b: float, mod_c: float, lam: complex) -> Vec2:
    # (m - lam) annihilates both candidates (b, lam - a) and (lam - d, c)
    # when lam is an exact eigenvalue for m = [[a, b], [c, d]]; pick the
    # numerically larger one and divide by its larger-modulus component
    # (ties pick the first).  |b| and |c| come from the caller, so each
    # modulus is taken once.
    v1, w0 = lam - a, lam - d
    mod_v1, mod_w0 = abs(v1), abs(w0)
    if max(mod_b, mod_v1) >= max(mod_w0, mod_c):
        v0, mod0, mod1 = b, mod_b, mod_v1
    else:
        v0, v1, mod0, mod1 = w0, c, mod_w0, mod_c
    if max(mod0, mod1) == 0.0:
        # m is exactly lam*I on this eigenvalue; any direction works
        return (1.0 + 0.0j, 0.0 + 0.0j)
    pivot = v0 if mod0 >= mod1 else v1
    if pivot == 0:  # only a NaN modulus gets here: lam overflowed
        raise OverflowError("eigenvalue is not finite")
    return (v0 / pivot, v1 / pivot)


def ref_hot_eigen_directions(m: Mat2, tol: float = VERDICT_TOL) -> EigenReport:
    a, b, c, d = m
    mod_b, mod_c = abs(b), abs(c)
    scale = max(abs(a), mod_b, mod_c, abs(d))
    gap, trace = a - d, a + d
    if max(mod_b, mod_c, abs(gap)) <= tol * max(1.0, scale):
        return EigenReport(SCALAR, (trace / 2,), ())
    disc = gap ** 2 + 4 * b * c
    if abs(disc) <= (tol * scale) ** 2:
        lam = trace / 2
        direction = ref_hot_kernel_direction(a, b, c, d, mod_b, mod_c, lam)
        return EigenReport(JORDAN, (lam,), (direction,))
    root = principal_sqrt(disc)
    lam1 = (trace + root) / 2
    lam2 = (trace - root) / 2
    directions = (
        ref_hot_kernel_direction(a, b, c, d, mod_b, mod_c, lam1),
        ref_hot_kernel_direction(a, b, c, d, mod_b, mod_c, lam2),
    )
    return EigenReport(SEMISIMPLE, (lam1, lam2), directions)


def ref_common_eigenvector(matrices, tol: float = VERDICT_TOL) -> Vec2 | None:
    candidates = None
    for i, m in enumerate(matrices):
        kind, _, directions = ref_hot_eigen_directions(m, tol)
        if kind != SCALAR:
            candidates = directions
            break
    if candidates is None:
        return (1.0 + 0.0j, 0.0 + 0.0j)
    source_last = [*matrices[i + 1:], *matrices[:i + 1]]
    for v0, v1 in candidates:
        # parallel(m.apply(v), v, tol) for every m, written out
        v_max = max(abs(v0), abs(v1))
        for a, b, c, d in source_last:
            w0 = a * v0 + b * v1
            w1 = c * v0 + d * v1
            bound = tol * max(1.0, max(abs(w0), abs(w1)) * v_max)
            if not abs(w0 * v1 - w1 * v0) <= bound:
                break
        else:
            return ref_normalize_direction((v0, v1))
    return None


def ref_theorem_verdict(p, tol: float = VERDICT_TOL):
    if not 0.0 < tol < math.inf:
        problem = "finite" if tol == math.inf else "positive"
        raise ValueError(f"tolerance must be {problem}")
    x1, x2, y1, y2, z1, z2, _, _ = p
    reg = EQUAL_X if abs(x1 - x2) <= tol * max(1.0, abs(x1), abs(x2)) else DISTINCT_X
    x1y1, x1y2, x2y1, x2y2 = x1 * y1, x1 * y2, x2 * y1, x2 * y2
    l1, r1 = x1y2 * z2, x2y1 * z1
    l2, r2 = x1y1 * z2, x2y2 * z1
    l3, r3 = x1y2 * z1, x2y1 * z2
    l4, r4 = x1y1 * z1, x2y2 * z2
    d1, d2, d3, d4 = abs(l1 - r1), abs(l2 - r2), abs(l3 - r3), abs(l4 - r4)
    if not (d1 < math.inf and d2 < math.inf and d3 < math.inf and d4 < math.inf):
        raise OverflowError("a side of the criteria is not finite")
    e1 = d1 <= tol * max(1.0, abs(l1), abs(r1))
    e2 = d2 <= tol * max(1.0, abs(l2), abs(r2))
    e3 = d3 <= tol * max(1.0, abs(l3), abs(r3))
    e4 = d4 <= tol * max(1.0, abs(l4), abs(r4))
    n1, n2, n3, n4 = _CONDITIONS
    flags = (
        ConditionFlag(n1, l1, r1, e1),
        ConditionFlag(n2, l2, r2, e2),
        ConditionFlag(n3, l3, r3, e3),
        ConditionFlag(n4, l4, r4, e4),
    )
    decision = REDUCIBLE if e1 or e2 or e3 or e4 else IRREDUCIBLE
    return reg, decision, flags


def bits(value):
    """value with every float as its hex string, so that == tells signed
    zeros apart and compares each float bit for bit; records keep their
    type name."""
    if isinstance(value, complex):
        return ("complex", value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, tuple):
        return (type(value).__name__, *map(bits, value))
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return value


# ---------------------------------------------------------------------------
# Mat2 arithmetic and the relation residuals as they read while each Mat2
# result went through the namedtuple's constructor and each maximum called
# the builtin max.  Mat2's operators now build their results as records and
# the residuals fold their maxima (see heckeg7.numerics); both must give
# these bits, and these exceptions.

def ref_mat2_mul(m: Mat2, other: Mat2) -> Mat2:
    return Mat2(
        m.a * other.a + m.b * other.c,
        m.a * other.b + m.b * other.d,
        m.c * other.a + m.d * other.c,
        m.c * other.b + m.d * other.d,
    )


def ref_mat2_add(m: Mat2, other: Mat2) -> Mat2:
    return Mat2(m.a + other.a, m.b + other.b, m.c + other.c, m.d + other.d)


def ref_mat2_sub(m: Mat2, other: Mat2) -> Mat2:
    return Mat2(m.a - other.a, m.b - other.b, m.c - other.c, m.d - other.d)


def ref_minus_scalar(m: Mat2, lam: complex) -> Mat2:
    return Mat2(m.a - lam, m.b, m.c, m.d - lam)


def ref_maxmod(m: Mat2) -> float:
    return max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))


def ref_scaled_product_residual(factors: list[Mat2]) -> float:
    prod = factors[0]
    for f in factors[1:]:
        prod = ref_mat2_mul(prod, f)
    num = ref_maxmod(prod)
    if num == 0.0:
        return 0.0
    scale = 1.0
    for f in factors:
        scale *= ref_maxmod(f)
    return num / max(1.0, scale)


def ref_braid_residual(g) -> float:
    """Relative deviation of s1*s2*s3 from its two cyclic rotations."""
    p1 = ref_mat2_mul(ref_mat2_mul(g.s1, g.s2), g.s3)
    p2 = ref_mat2_mul(ref_mat2_mul(g.s2, g.s3), g.s1)
    p3 = ref_mat2_mul(ref_mat2_mul(g.s3, g.s1), g.s2)
    scale = max(1.0, ref_maxmod(p1))
    return max(ref_maxmod(ref_mat2_sub(p1, p2)), ref_maxmod(ref_mat2_sub(p1, p3))) / scale


# ---------------------------------------------------------------------------
# The sweep's separation test for injected draws as it read while it called
# the builtin max.  sweep._separated now writes it as a comparison chain (see
# heckeg7.numerics), which must give this result, and these exceptions.

def ref_separated(a: complex, b: complex) -> bool:
    return abs(a - b) >= _SEPARATION * max(1.0, abs(a), abs(b))
