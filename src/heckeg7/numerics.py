"""Complex scalar utilities: polar-to-Cartesian conversion, principal square
root, comparisons.

Branch convention used throughout the package: the argument of a nonzero
complex number lives in the half-open interval (-pi, pi], and the principal
square root halves it,

    sqrt(rho * e^(i*alpha)) = sqrt(rho) * e^(i*alpha/2),   alpha in (-pi, pi].

The negative real axis therefore belongs to the top side of the cut:
principal_sqrt(-1) = +1j, and every result has Re >= 0, with Im > 0 when
Re = 0.  Note that sqrt(z^2) recovers z only when arg(z) lies in
(-pi/2, pi/2]; elsewhere it yields -z.  Nothing in this package assumes
otherwise.

Tolerance rule: d is small at scales a, b when d <= tol * max(1, a, b),
written d <= tol or d <= tol * a or d <= tol * b, with a and b taken first
as max took them (abs raises past the float range).  For tol > 0, tol * x
rounds monotonically in x, so the bits agree; a NaN scale, which max skips,
fails its term.  Other maxima are max's fold, x if x > top else top.
"""

from __future__ import annotations

import cmath
import math

# Default tolerance for irreducibility verdicts and agreement checks.
VERDICT_TOL = 1e-9


# from_polar(m, a), one C call: at finite m, complex(m * cos(a), m * sin(a))
# bit for bit.  A non-finite m gives another non-finite value (inf+0j, not
# inf+nanj, at a = 0), which Params refuses with the same message.
from_polar = cmath.rect


def principal_sqrt(z: complex) -> complex:
    """Square root on the (-pi, pi] branch: Re >= 0, and Im > 0 when Re = 0.

    cmath.sqrt already implements this branch except that it honours the sign
    of a zero imaginary part, sending -4 - 0j below the cut; exact negative
    reals are folded back to the +i side.
    """
    w = cmath.sqrt(complex(z))
    if w.real == 0.0 and w.imag < 0.0:
        return -w
    return w


def approx_eq(a: complex, b: complex, tol: float = VERDICT_TOL) -> bool:
    """|a - b| small at scales |a|, |b|; an infinite tol would pass any two."""
    if not 0.0 < tol < math.inf:
        problem = "finite" if tol == math.inf else "positive"
        raise ValueError(f"tolerance must be {problem}")
    d, mod_a, mod_b = abs(a - b), abs(a), abs(b)
    return d <= tol or d <= tol * mod_a or d <= tol * mod_b


# True iff both parts are finite; accepts int, float and complex.
is_finite = cmath.isfinite
