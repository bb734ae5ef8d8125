"""Exact arithmetic for the identity suite.

The ring is Z[x1^±1, ..., z2^±1][r]/(r^2 - DELTA), over arbitrary-precision
integers, with DELTA = x1*x2*y1*y2*z1*z2.  DELTA is a monomial, so r is the
monomial (x1*x2*y1*y2*z1*z2)^(1/2), and the ring is the group ring of the
lattice of exponent vectors whose six entries are all integers or all
halves of odd integers.

ExtElem keeps an element as one terms dict from *doubled* exponent vectors
to nonzero int coefficients: x1 is (2,0,0,0,0,0), r is (1,1,1,1,1,1) and
DELTA is (2,2,2,2,2,2).  The six entries of a key share one parity: even
for a Laurent monomial m, odd for m*r.  A product adds keys, so r*r = DELTA
needs no rewrite, and two elements are equal exactly when their terms dicts
are: no cross-multiplication and no normal form.  The units of the ring are
exactly the single terms +-1 * monomial, that is +-m and +-m*r; inv() and /
take these, negating the key; any other divisor raises NotAUnit
(DivisionByZero for zero), since the ring has no fractions.

str splits the terms by parity into p + q*r, each of p and q with ordinary
exponents, and prints an element with a negative exponent as one fraction,
(num) / (den): den is the least monomial that clears every negative
exponent and num the element times den, so y1*y2^-1*z2 prints as
(y1*z2) / (y2).

Operands are ExtElem and int; an operator given anything else (a float,
say) returns NotImplemented, so Python raises TypeError, and the
constructor raises TypeError.  A copy, or an ExtElem operand passed
through, shares its terms dict, so nothing may mutate .terms after
construction.

A Substitution maps each variable to a unit of the ring; each call must be
told the image of r, and checks that it squares to the image of DELTA.  A
unit image sends each term to exactly one term, so an element's image is
built term by term with no products.

Numeric evaluation takes one complex value per variable plus a value for r,
required to square to DELTA's value within tolerance.
"""

from __future__ import annotations

import math
from typing import Mapping, Union

from .numerics import approx_eq

VARS = ("x1", "x2", "y1", "y2", "z1", "z2")
NVARS = len(VARS)
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

# a doubled exponent vector: all six entries even, or all six odd (times r)
Key = tuple[int, ...]
ONE_KEY: Key = (0,) * NVARS
R_KEY: Key = (1,) * NVARS


class DivisionByZero(ZeroDivisionError):
    pass


class NotAUnit(ArithmeticError):
    """A divisor, or a substitution image, that is not +-m or +-m*r."""


class InconsistentRootImage(ValueError):
    pass


class DenominatorVanishes(ZeroDivisionError):
    pass


def _mono_str(m: Key) -> str:
    parts = []
    for name, e in zip(VARS, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _poly_str(terms: dict[Key, int]) -> str:
    """The terms of a polynomial with no negative exponent."""
    if not terms:
        return "0"
    # descending lexicographic order on exponent vectors: deterministic
    pieces = []
    for mono in sorted(terms, reverse=True):
        coeff = terms[mono]
        body = _mono_str(mono)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(pieces)


def _laurent_str(terms: dict[Key, int]) -> str:
    """p + q*r, over the least monomial that clears its negative exponents.
    A key's ordinary exponents are its entries halved, rounded down: that
    drops the r of an odd key."""
    p: dict[Key, int] = {}
    q: dict[Key, int] = {}
    for key, coeff in terms.items():
        (q if key[0] & 1 else p)[tuple(e >> 1 for e in key)] = coeff
    den = [0] * NVARS
    for mono in (*p, *q):
        for i, e in enumerate(mono):
            if e < -den[i]:
                den[i] = -e
    if any(den):
        p, q = ({tuple(map(int.__add__, m, den)): c for m, c in t.items()} for t in (p, q))
    if not q:
        text = _poly_str(p)
    elif not p:
        text = f"({_poly_str(q)})*r"
    else:
        text = f"({_poly_str(p)}) + ({_poly_str(q)})*r"
    return f"({text}) / ({_mono_str(tuple(den))})" if any(den) else text


def _power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply, from the unit one.  Every
    product goes through *, so a wrapper on the class's __mul__ sees it; the
    base is not squared past the top bit of n."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _checked_key(key) -> Key:
    key = tuple(key)
    if len(key) != NVARS or not all(type(e) is int for e in key):
        raise TypeError(f"key {key!r} is not {NVARS} ints")
    if len({e & 1 for e in key}) != 1:
        raise ValueError(f"key {key!r} mixes even and odd doubled exponents")
    return key


class ExtElem:
    """An element of the ring: terms maps doubled exponent vectors to
    nonzero int coefficients.  ExtElem(value) takes an int, an ExtElem or
    such a mapping."""

    __slots__ = ("terms",)

    def __init__(self, value: Union["ExtElem", int, Mapping[Key, int]] = 0):
        if isinstance(value, ExtElem):
            self.terms = value.terms
            return
        if isinstance(value, int):
            value = {ONE_KEY: value}
        elif not isinstance(value, Mapping):
            raise TypeError(f"cannot make a ring element of {type(value).__name__}")
        self.terms: dict[Key, int] = {}
        for key, coeff in value.items():
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an int")
            if coeff:
                self.terms[_checked_key(key)] = int(coeff)

    @staticmethod
    def _trusted(terms: dict[Key, int]) -> "ExtElem":
        """Wrap a dict that already holds only nonzero coefficients under
        one-parity keys, and that no one else will mutate."""
        e = object.__new__(ExtElem)
        e.terms = terms
        return e

    @staticmethod
    def r(sign: int = 1) -> "ExtElem":
        return ExtElem._trusted({R_KEY: sign})

    @staticmethod
    def var(name: str) -> "ExtElem":
        key = [0] * NVARS
        key[_VAR_INDEX[name]] = 2
        return ExtElem._trusted({tuple(key): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        other = _as_ext(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "ExtElem":
        return ExtElem._trusted({k: -c for k, c in self.terms.items()})

    def __add__(self, other) -> "ExtElem":
        other = _as_ext(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            s = out.get(key, 0) + coeff
            if s:
                out[key] = s
            else:
                del out[key]
        return ExtElem._trusted(out)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtElem":
        other = _as_ext(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "ExtElem":
        other = _as_ext(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "ExtElem":
        other = _as_ext(other)
        if other is None:
            return NotImplemented
        out: dict[Key, int] = {}
        items2 = other.terms.items()
        for (a0, a1, a2, a3, a4, a5), c1 in self.terms.items():
            for (b0, b1, b2, b3, b4, b5), c2 in items2:
                key = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)
                s = out[key] + c1 * c2 if key in out else c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return ExtElem._trusted(out)

    __rmul__ = __mul__

    def inv(self) -> "ExtElem":
        """The inverse of a unit +-m or +-m*r: its key negated, since
        (m*r)^-1 = m^-1 * DELTA^-1 * r halves to the negated key of m*r."""
        unit = _unit(self)
        if unit is None:
            if self.is_zero():
                raise DivisionByZero("inverse of zero")
            raise NotAUnit(f"{self} is not a unit +-m or +-m*r of the ring")
        sign, key = unit
        return ExtElem._trusted({tuple(-e for e in key): sign})

    def __truediv__(self, other) -> "ExtElem":
        other = _as_ext(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> "ExtElem":
        other = _as_ext(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int) -> "ExtElem":
        return _power(self.inv() if n < 0 else self, abs(n), ExtElem(1))

    def conjugate(self) -> "ExtElem":
        """r -> -r: the odd-parity terms change sign."""
        return ExtElem._trusted(
            {k: -c if k[0] & 1 else c for k, c in self.terms.items()}
        )

    def __str__(self) -> str:
        return _laurent_str(self.terms)

    __repr__ = __str__


DELTA = ExtElem._trusted({(2,) * NVARS: 1})


def _as_ext(x) -> ExtElem | None:
    if isinstance(x, ExtElem):
        return x
    if isinstance(x, int):
        return ExtElem._trusted({ONE_KEY: int(x)} if x else {})
    return None


def _unit(e: ExtElem) -> tuple[int, Key] | None:
    """(sign, key) when e is the single term sign * monomial, else None."""
    if len(e.terms) != 1:
        return None
    ((key, c),) = e.terms.items()
    if c != 1 and c != -1:
        return None
    return c, key


ExtLike = Union[ExtElem, int]

# The former names of the ring's classes: perfbench/tracing.py looks up each
# class it wraps on exact by name, and these names are among them.
Poly = ExtElem
RatElem = ExtElem


# ---------------------------------------------------------------------------
# substitution (exact) and evaluation (numeric)

class Substitution:
    """The images of the six variables, each a unit +-m or +-m*r of the ring
    (unassigned ones map to themselves), prepared once; calling it
    substitutes one value, as substitute does."""

    __slots__ = ("_units", "_delta")

    def __init__(self, assignment: Mapping[str, ExtLike]):
        unknown = set(assignment) - set(VARS)
        if unknown:
            raise KeyError(f"unknown variables in assignment: {sorted(unknown)}")
        # per variable, (sign, key) with image sign * monomial(key)
        self._units: list[tuple[int, Key]] = []
        for name in VARS:
            img = _as_ext(assignment.get(name, ExtElem.var(name)))
            if img is None:
                raise TypeError(
                    f"image of {name} must be an ExtElem or int, "
                    f"not {type(assignment[name]).__name__}"
                )
            unit = _unit(img)
            if unit is None:
                raise NotAUnit(f"image of {name} must be a unit +-m or +-m*r, not {img}")
            self._units.append(unit)
        self._delta = self._image(DELTA, None)

    def _image(self, value: ExtElem, r_unit: tuple[int, Key] | None) -> ExtElem:
        """With x_i -> sign_i * monomial(key_i) and r -> r_unit, the term
        c * x^e * r^k (key 2e + k) goes to the one term
        c * prod(sign_i^e_i) * r_sign^k with key sum(e_i * key_i) + k * r_key."""
        units = self._units
        out: dict[Key, int] = {}
        for key, coeff in value.terms.items():
            image = ONE_KEY
            if key[0] & 1:
                sign, image = r_unit
                coeff *= sign
            for d, (sign, m) in zip(key, units):
                e = d >> 1
                if e:
                    if sign < 0 and e & 1:
                        coeff = -coeff
                    image = tuple(a + e * b for a, b in zip(image, m))
            s = out.get(image, 0) + coeff
            if s:
                out[image] = s
            else:
                del out[image]
        return ExtElem._trusted(out)

    def __call__(self, value: ExtLike, r_image: ExtLike) -> ExtElem:
        r_img = _as_ext(r_image)
        if r_img is None:
            raise TypeError("r_image must be an ExtElem or int")
        if r_img * r_img != self._delta:
            raise InconsistentRootImage(
                "r_image squared does not equal the image of x1*x2*y1*y2*z1*z2"
            )
        val = _as_ext(value)
        if val is None:
            raise TypeError("value must be an ExtElem or int")
        # the image of DELTA is a unit, so its square root r_img is one too
        return self._image(val, _unit(r_img))


def substitute(
    value: ExtLike,
    assignment: Mapping[str, ExtLike] | Substitution,
    r_image: ExtLike,
) -> ExtElem:
    """Apply variable images and the stated image of r, exactly.

    assignment is a mapping from variable names to images, or a prepared
    Substitution to share with other calls.  Raises TypeError naming a
    variable whose image is not an ExtElem or int; NotAUnit naming one whose
    image is not a unit +-m or +-m*r; and InconsistentRootImage unless
    r_image squared equals the image of DELTA.
    """
    if not isinstance(assignment, Substitution):
        assignment = Substitution(assignment)
    return assignment(value, r_image)


def eval_numeric(
    value: ExtLike,
    values: Mapping[str, complex],
    r_value: complex,
    root_tol: float = 1e-9,
) -> complex:
    """Evaluate at complex parameter values with an explicit value for r.

    r_value must square to DELTA's value within root_tol (relative); a
    variable with a negative exponent that evaluates to 0 raises
    DenominatorVanishes.
    """
    missing = [name for name in VARS if name not in values]
    if missing:
        raise KeyError(f"missing values for {missing}")
    delta_val = complex(math.prod(values[name] for name in VARS))
    if not approx_eq(r_value * r_value, delta_val, root_tol):
        raise InconsistentRootImage(
            f"r_value^2 = {r_value * r_value!r} but x1*x2*y1*y2*z1*z2 = {delta_val!r}"
        )
    val = _as_ext(value)
    if val is None:
        raise TypeError("value must be an ExtElem or int")
    out = 0j
    for key, coeff in val.terms.items():
        term = complex(coeff) * r_value if key[0] & 1 else complex(coeff)
        for name, d in zip(VARS, key):
            e = d >> 1
            if e:
                v = values[name]
                if e < 0 and v == 0:
                    raise DenominatorVanishes(f"{name} = 0 under a negative exponent")
                term *= v ** e
        out += term
    return out
