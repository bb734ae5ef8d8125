"""2x2 complex matrices and just enough eigenstructure for the invariant-line
oracle: classify a matrix as scalar / defective / semisimple, extract its
eigendirections, and search a family of matrices for a shared eigendirection.
"""

from __future__ import annotations

from collections import namedtuple

from .numerics import VERDICT_TOL, principal_sqrt

Vec2 = tuple[complex, complex]

# _record(cls, fields) is the record cls(*fields), made without running
# cls's Python-level __new__; the per-point decide path builds its records so.
_record = tuple.__new__

SCALAR = "scalar"
JORDAN = "jordan"
SEMISIMPLE = "semisimple"


class Mat2(namedtuple("Mat2", "a b c d")):
    """Row-major [[a, b], [c, d]]."""

    __slots__ = ()

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __rmul__(self, other):
        # the inherited tuple.__rmul__ would make 2 * m an 8-tuple
        return NotImplemented

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def minus_scalar(self, lam: complex) -> "Mat2":
        return Mat2(self.a - lam, self.b, self.c, self.d - lam)

    def apply(self, v: Vec2) -> Vec2:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def maxmod(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


# kind is SCALAR, JORDAN or SEMISIMPLE; directions is a tuple of Vec2,
# empty for scalar (every direction works).
EigenReport = namedtuple("EigenReport", "kind eigenvalues directions")


def cross(u: Vec2, v: Vec2) -> complex:
    """det [u v]; zero iff u and v are linearly dependent."""
    return u[0] * v[1] - u[1] * v[0]


def vec_maxmod(v: Vec2) -> float:
    mod0, mod1 = abs(v[0]), abs(v[1])
    return mod1 if mod1 > mod0 else mod0


def normalize_direction(v: Vec2) -> Vec2:
    """Divide by the largest-modulus component (ties pick the first), making
    that component exactly 1."""
    v0, v1 = v
    pivot = v0 if abs(v0) >= abs(v1) else v1
    if pivot == 0:
        raise ValueError("zero vector has no direction")
    return (v0 / pivot, v1 / pivot)


def parallel(u: Vec2, v: Vec2, tol: float = VERDICT_TOL) -> bool:
    d, scale = abs(cross(u, v)), vec_maxmod(u) * vec_maxmod(v)
    return d <= tol or d <= tol * scale


def _kernel_direction(a, b, c, d, mod_b: float, mod_c: float, lam: complex) -> Vec2:
    # (m - lam) annihilates both candidates (b, lam - a) and (lam - d, c)
    # when lam is an exact eigenvalue for m = [[a, b], [c, d]]; pick the
    # numerically larger one and divide by its larger-modulus component
    # (ties pick the first).  |b|, |c| come from the caller: each taken once.
    v1, w0 = lam - a, lam - d
    mod_v1, mod_w0 = abs(v1), abs(w0)
    if (mod_v1 if mod_v1 > mod_b else mod_b) >= (mod_c if mod_c > mod_w0 else mod_w0):
        v0, mod0, mod1 = b, mod_b, mod_v1
    else:
        v0, v1, mod0, mod1 = w0, c, mod_w0, mod_c
    if (mod1 if mod1 > mod0 else mod0) == 0.0:
        # m is exactly lam*I on this eigenvalue; any direction works
        return (1.0 + 0.0j, 0.0 + 0.0j)
    pivot = v0 if mod0 >= mod1 else v1
    if pivot == 0:  # only a NaN modulus gets here: lam overflowed
        raise OverflowError("eigenvalue is not finite")
    return (v0 / pivot, v1 / pivot)


def eigen_directions(m: Mat2, tol: float = VERDICT_TOL) -> EigenReport:
    """Classify m and return eigendirections.

    Scalar: off-diagonal entries and the diagonal gap are all small at the
    matrix magnitude (the tolerance rule in numerics).  Jordan: the
    eigenvalue gap sqrt|(a-d)^2 + 4bc| is at most tol * maxmod but not
    scalar; a single eigendirection exists.  (A looser test would merge
    eigenvalues farther apart than common_eigenvector's own tolerance, whose
    one direction can then fail its source matrix.)  Semisimple otherwise, two
    directions, eigenvalue order fixed by the principal square root of the
    discriminant (+ root first).
    """
    a, b, c, d = m
    mod_b, mod_c, scale, mod_d = abs(b), abs(c), abs(a), abs(d)
    scale = mod_b if mod_b > scale else scale
    scale = mod_c if mod_c > scale else scale
    scale = mod_d if mod_d > scale else scale
    gap, trace = a - d, a + d
    off, mod_gap = mod_c if mod_c > mod_b else mod_b, abs(gap)
    off = mod_gap if mod_gap > off else off
    if off <= tol or off <= tol * scale:
        return _record(EigenReport, (SCALAR, (trace / 2,), ()))
    disc = gap ** 2 + 4 * b * c
    if abs(disc) <= (tol * scale) ** 2:
        lam = trace / 2
        direction = _kernel_direction(a, b, c, d, mod_b, mod_c, lam)
        return _record(EigenReport, (JORDAN, (lam,), (direction,)))
    root = principal_sqrt(disc)
    lam1 = (trace + root) / 2
    lam2 = (trace - root) / 2
    directions = (
        _kernel_direction(a, b, c, d, mod_b, mod_c, lam1),
        _kernel_direction(a, b, c, d, mod_b, mod_c, lam2),
    )
    return _record(EigenReport, (SEMISIMPLE, (lam1, lam2), directions))


def common_eigenvector(
    matrices: list[Mat2] | tuple[Mat2, ...], tol: float = VERDICT_TOL
) -> Vec2 | None:
    """A direction fixed by every matrix in the family, or None.

    Candidates come from the first non-scalar matrix (one or two directions);
    a 2x2 matrix has at most two eigendirections, so any shared direction is
    among them.  If the whole family is scalar, every direction works and
    (1, 0) is returned.  A candidate needs every matrix to pass, so the
    order of the tests cannot change the result; the others do the
    rejecting, and the matrix the candidates came from is tested last.
    """
    candidates: tuple[Vec2, ...] | None = None
    for i, m in enumerate(matrices):
        kind, _, directions = eigen_directions(m, tol)
        if kind != SCALAR:
            candidates = directions
            break
    if candidates is None:
        return (1.0 + 0.0j, 0.0 + 0.0j)
    source_last = [*matrices[i + 1:], *matrices[:i + 1]]
    for v0, v1 in candidates:
        # parallel(m.apply(v), v, tol) for every m, written out
        v_max, mod_v1 = abs(v0), abs(v1)
        v_max = mod_v1 if mod_v1 > v_max else v_max
        for a, b, c, d in source_last:
            w0 = a * v0 + b * v1
            w1 = c * v0 + d * v1
            w_max, mod_w1, res = abs(w0), abs(w1), abs(w0 * v1 - w1 * v0)
            if not (res <= tol or res <= tol * ((mod_w1 if mod_w1 > w_max else w_max) * v_max)):
                break
        else:
            return normalize_direction((v0, v1))
    return None
