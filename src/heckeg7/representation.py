"""Numeric construction of the two-dimensional generator triple.

A parameter point assigns nonzero complex numbers to (x1, x2, y1, y2, z1, z2);
x1, x2 are the eigenvalues of the first generator, y1, y2 of the second,
z1, z2 of the third.  With r a square root of x1*x2*y1*y2*z1*z2 the three
generators are

    s1 = [[x1, (y1+y2)/(y1*y2) - (z1+z2)*x2/r], [0,  x2]]
    s2 = [[y1+y2,          1/x1], [-y1*y2*x1,   0]]
    s3 = [[0, -r/(y1*y2*x1*x2)],  [r,       z1+z2]]

They satisfy s1*s2*s3 = s2*s3*s1 = s3*s1*s2 and the quadratic relations
(si - eigenvalue1)(si - eigenvalue2) = 0; braid_residual and hecke_residuals
measure those numerically.  The sign choice for r changes the triple (the two
choices are genuinely different specializations), so r_sign is explicit
everywhere and defaults to +1, meaning r = principal_sqrt of the product.

build_general is the one float builder.  build_equal_x, the x1 = x2
family, is build_general with x1 replaced by x2; the package decides every
point with build_general, whatever regime the point is labelled with.

generators and conjugator use only + - * and division by monomials and r,
so the same formulas run over complex floats here and over the exact Laurent
ring of the identity suite.
"""

from __future__ import annotations

from collections import namedtuple

from .matrix2 import Mat2, _record
from .numerics import is_finite, principal_sqrt


class InvalidParams(ValueError):
    """Any problem with files, flags or parameter values, including a point
    whose float arithmetic overflows or underflows (exit code 1)."""


_REQUIRED = ("x1", "x2", "y1", "y2", "z1", "z2")


class Params(namedtuple("Params", (*_REQUIRED, "y3", "z3"), defaults=(None, None))):
    """A parameter point; valid by construction (every value is coerced to
    complex, and every field must be finite and nonzero), so nothing
    downstream validates it again.  _replace goes through the same checks.
    y3 and z3 are optional third eigenvalues, for the cubic relations."""

    __slots__ = ()

    def __new__(cls, x1, x2, y1, y2, z1, z2, y3=None, z3=None):
        self = tuple.__new__(cls, (
            complex(x1), complex(x2), complex(y1), complex(y2), complex(z1), complex(z2),
            None if y3 is None else complex(y3),
            None if z3 is None else complex(z3),
        ))
        self.validate()
        return self

    @classmethod
    def _make(cls, iterable) -> "Params":
        return cls(*iterable)

    def as_dict(self) -> dict[str, complex]:
        return dict(zip(_REQUIRED, self))

    def validate(self) -> None:
        x1, x2, y1, y2, z1, z2, y3, z3 = self
        # all clear: every value finite and nonzero (a complex is truthy iff
        # nonzero); the loop below only finds the first bad field's message
        if (
            is_finite(x1) and is_finite(x2) and is_finite(y1)
            and is_finite(y2) and is_finite(z1) and is_finite(z2)
            and x1 and x2 and y1 and y2 and z1 and z2
            and (y3 is None or (is_finite(y3) and y3))
            and (z3 is None or (is_finite(z3) and z3))
        ):
            return
        for name, v in zip(self._fields, self):
            if v is None:
                continue
            if not is_finite(v):
                raise InvalidParams(f"{name} is not finite")
            if v == 0:
                raise InvalidParams(f"{name} must be nonzero")


GeneratorTriple = namedtuple("GeneratorTriple", "s1 s2 s3")


def _check_sign(r_sign: int) -> int:
    if r_sign not in (1, -1):
        raise InvalidParams(f"r_sign must be +1 or -1, got {r_sign!r}")
    return r_sign


def generators(x1, x2, y1, y2, z1, z2, r) -> GeneratorTriple:
    """The triple (s1, s2, s3) of the module docstring over any field or
    the Laurent ring; r - r is its zero, so products of entries stay in it."""
    zero = r - r
    y_prod = y1 * y2
    y_sum = y1 + y2
    z_sum = z1 + z2
    return _record(GeneratorTriple, (
        _record(Mat2, (x1, y_sum / y_prod - z_sum * x2 / r, zero, x2)),
        _record(Mat2, (y_sum, 1 / x1, -y_prod * x1, zero)),
        _record(Mat2, (zero, -r / (y_prod * x1 * x2), r, z_sum)),
    ))


def build_general(p: Params, r_sign: int = 1) -> GeneratorTriple:
    """Generator triple at p with r = r_sign * principal_sqrt(x1*x2*y1*y2*z1*z2)."""
    if r_sign not in (1, -1):  # _check_sign, inline on the per-point path
        raise InvalidParams(f"r_sign must be +1 or -1, got {r_sign!r}")
    x1, x2, y1, y2, z1, z2, _, _ = p
    r = r_sign * principal_sqrt(x1 * x2 * y1 * y2 * z1 * z2)
    if r == 0:
        raise InvalidParams("parameter product underflows to zero")
    try:
        g = generators(x1, x2, y1, y2, z1, z2, r)
    except ZeroDivisionError:  # a denominator such as y1*y2 underflows to 0
        raise InvalidParams("parameter magnitudes underflow a denominator to zero") from None
    (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3) = g
    if not (
        is_finite(a1) and is_finite(b1) and is_finite(c1) and is_finite(d1)
        and is_finite(a2) and is_finite(b2) and is_finite(c2) and is_finite(d2)
        and is_finite(a3) and is_finite(b3) and is_finite(c3) and is_finite(d3)
    ):
        raise InvalidParams("parameter magnitudes overflow the matrix entries")
    return g


def build_equal_x(p: Params, r_sign: int = 1) -> GeneratorTriple:
    """The x1 = x2 family: build_general with x1 replaced by x2."""
    return build_general(p._replace(x1=p.x2), r_sign)


def _scaled_product_residual(factors: list[Mat2]) -> float:
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    num = prod.maxmod()
    if num == 0.0:
        return 0.0
    scale = 1.0
    for f in factors:
        scale *= f.maxmod()
    return num / max(1.0, scale)


def braid_residual(g: GeneratorTriple) -> float:
    """Relative deviation of s1*s2*s3 from its two cyclic rotations."""
    p1 = g.s1 * g.s2 * g.s3
    p2 = g.s2 * g.s3 * g.s1
    p3 = g.s3 * g.s1 * g.s2
    scale = max(1.0, p1.maxmod())
    return max((p1 - p2).maxmod(), (p1 - p3).maxmod()) / scale


def hecke_residuals(g: GeneratorTriple, p: Params) -> dict[str, float]:
    """Relative magnitudes of (si - eig1)(si - eig2), keyed s1/s2/s3; when a
    third eigenvalue y3 or z3 is supplied the cubic rows s2_cubic/s3_cubic are
    included (the cubic factors through the quadratic, so these also vanish).
    """
    rows = (
        ("s1", g.s1, (p.x1, p.x2)),
        ("s2", g.s2, (p.y1, p.y2)),
        ("s3", g.s3, (p.z1, p.z2)),
        ("s2_cubic", g.s2, (p.y1, p.y2, p.y3)),
        ("s3_cubic", g.s3, (p.z1, p.z2, p.z3)),
    )
    return {
        name: _scaled_product_residual([m.minus_scalar(e) for e in eigenvalues])
        for name, m, eigenvalues in rows
        if eigenvalues[-1] is not None
    }


def conjugator(s1: Mat2, x1, x2) -> Mat2:
    """T = [[x2-x1, b], [0, x2-x1]] for s1 = [[x1, b], [0, x2]]: its columns
    are eigenvectors of s1 for x1 and x2, so adj(T)*s1*T = det(T)*diag(x1, x2)
    with det(T) = (x2-x1)^2, and T is invertible iff x1 != x2.  No entry
    divides by x2 - x1."""
    d = x2 - x1
    return Mat2(d, s1.b, 0, d)
