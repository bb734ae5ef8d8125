"""The oracle's eigen-classification as it read before its hot path was
written out, kept verbatim as a reference for the tests.

matrix2.eigen_directions, _kernel_direction and normalize_direction now
fold the pivot division in and reuse the moduli the classification has
already taken; every float keeps its operations and their order, so their
results must equal these bit for bit.  Only the names are prefixed.
"""

from heckeg7.matrix2 import JORDAN, SCALAR, SEMISIMPLE, EigenReport, Mat2, Vec2
from heckeg7.numerics import VERDICT_TOL, principal_sqrt


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
