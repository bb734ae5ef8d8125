"""Exact arithmetic for the identity suite.

Two layers, both over arbitrary-precision integers:

  Poly     sparse Laurent polynomials in x1, x2, y1, y2, z1, z2, terms stored
           as a map from exponent vectors (of either sign) to nonzero int
           coefficients;
  ExtElem  elements p + q*r of the ring extension by a formal square root r
           of DELTA = x1*x2*y1*y2*z1*z2, with the rewrite r*r -> DELTA
           applied on every product (r-degree never exceeds 1).

The extension Z[x1^±1, ..., z2^±1][r]/(r^2 - DELTA) is free over the Laurent
polynomials with basis {1, r}, so an element is zero exactly when both of its
terms dicts are empty, and two elements are equal exactly when their terms
dicts are: no cross-multiplication and no normal form.  DELTA is a monomial,
so r is a unit (r^-1 = r * DELTA^-1), and the units of the ring are exactly
+-m and +-m*r for a Laurent monomial m.  inv() and / take these; any other
divisor raises NotAUnit (DivisionByZero for zero), since the ring has no
fractions.  str prints an element with a negative exponent as one fraction,
(num) / (den): den is the least monomial that clears every negative
exponent and num the element times den, so y1*y2^-1*z2 prints as
(y1*z2) / (y2).

Operands are the two classes and int; an operator given anything else (a
float, say) returns NotImplemented, so a higher layer's reflected operator
answers (x1 + r is r + x1) or Python raises TypeError, and the ExtElem
constructor raises TypeError.

The operators skip work whose result is known without doing it:

  - +, -, * and / test type(other) against their own class first; only
    other operands go through coercion, which maps the ints 0, 1 and -1
    (not a bool) to shared ExtElem constants;
  - a Poly product with a zero operand returns that operand, and one with
    the constant 1 returns the other operand; a product of two single-term
    polynomials writes its one monomial directly; a sum with zero, or a
    difference with a zero subtrahend, returns the other operand;
  - an ExtElem product with an r-free side forms only p1*p2 and the one
    cross term that can be nonzero (p1*q2 or q1*p2; neither when both are
    r-free); one whose sides both carry r, one of them with p = 0, forms
    only the DELTA term and that one cross term; the DELTA term raises
    every exponent of q1*q2 by one instead of multiplying by DELTA_POLY;
  - dicts that already hold only nonzero coefficients are wrapped without
    being copied or filtered again.

Invariant: every shortcut -- the type tests, the shared constants, the
single-term product and the one-sided and r-free products -- yields the same
terms dict (same monomials, coefficients and insertion order) as the full
computation it replaces, so the stored terms, and the residual strings
printed from them, do not depend on which path ran.  Results may share an
operand, a shared constant or its terms dict, so nothing may mutate .terms,
.p or .q after construction.

A Substitution maps each variable to a unit of the ring; each call must be
told the image of r.  A unit image sends each term to exactly one term, so a
polynomial's image is built term by term with no products.  One object is
meant to serve many values under one assignment:

  - it remembers the image of each Poly it has substituted, keyed by the
    object's identity (and holding the object, so its id stays unique), not
    by equality: two equal Polys may store their terms in a different order,
    and each must get the terms its own substitution yields;
  - it checks each r-image object once, exactly, to square to the image
    of DELTA, and remembers it by identity (holding it) only if it passed.

Numeric evaluation takes one complex value per variable plus a value for r,
required to square to DELTA's value within tolerance.
"""

from __future__ import annotations

from typing import Mapping, Union

from .numerics import approx_eq

VARS = ("x1", "x2", "y1", "y2", "z1", "z2")
NVARS = len(VARS)
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Mono = tuple[int, ...]
ZERO_MONO: Mono = (0,) * NVARS
DELTA_MONO: Mono = (1,) * NVARS


class DivisionByZero(ZeroDivisionError):
    pass


class NotAUnit(ArithmeticError):
    """A divisor, or a substitution image, that is not +-m or +-m*r."""


class InconsistentRootImage(ValueError):
    pass


class DenominatorVanishes(ZeroDivisionError):
    pass


def _mono_str(m: Mono) -> str:
    parts = []
    for name, e in zip(VARS, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _poly_str(terms: dict[Mono, int]) -> str:
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


def _laurent_str(p: dict[Mono, int], q: dict[Mono, int]) -> str:
    """p + q*r, over the least monomial that clears its negative exponents."""
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


class Poly:
    """Sparse integer Laurent polynomial; terms maps exponent vectors to
    nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        self.terms: dict[Mono, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient {coeff!r} is not an int")
                if coeff != 0:
                    self.terms[mono] = coeff

    @staticmethod
    def _trusted(terms: dict[Mono, int]) -> "Poly":
        """Wrap a dict that already holds only nonzero coefficients and that
        no one else will mutate; nothing is copied or filtered."""
        p = object.__new__(Poly)
        p.terms = terms
        return p

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({ZERO_MONO: c})

    @staticmethod
    def var(name: str) -> "Poly":
        mono = [0] * NVARS
        mono[_VAR_INDEX[name]] = 1
        return Poly({tuple(mono): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Poly":
        return Poly._trusted({m: -c for m, c in self.terms.items()})

    def __add__(self, other: Union["Poly", int]) -> "Poly":
        if type(other) is not Poly:
            if not isinstance(other, int):
                return NotImplemented
            other = Poly.const(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Poly._trusted(out)

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", int]) -> "Poly":
        if type(other) is not Poly:
            if not isinstance(other, int):
                return NotImplemented
            other = Poly.const(other)
        return self + -other

    def __rsub__(self, other: int) -> "Poly":
        if not isinstance(other, int):
            return NotImplemented
        return Poly.const(other) - self

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if type(other) is not Poly:
            if not isinstance(other, int):
                return NotImplemented
            other = Poly.const(other)
        t1, t2 = self.terms, other.terms
        if not t1:
            return self
        if not t2 or t1 == _ONE_TERMS:
            return other
        if t2 == _ONE_TERMS:
            return self
        if len(t1) == 1 and len(t2) == 1:
            ((a0, a1, a2, a3, a4, a5), c1), = t1.items()
            ((b0, b1, b2, b3, b4, b5), c2), = t2.items()
            return Poly._trusted({
                (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5): c1 * c2
            })
        out: dict[Mono, int] = {}
        items2 = t2.items()
        for (a0, a1, a2, a3, a4, a5), c1 in t1.items():
            for (b0, b1, b2, b3, b4, b5), c2 in items2:
                mono = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)
                s = out[mono] + c1 * c2 if mono in out else c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Poly.const(1))

    def __str__(self) -> str:
        return _laurent_str(self.terms, {})

    __repr__ = __str__


DELTA_POLY = Poly({DELTA_MONO: 1})
_ONE_TERMS: dict[Mono, int] = {ZERO_MONO: 1}


def _times_delta(p: Poly) -> Poly:
    """p * DELTA_POLY: DELTA is the single monomial x1*x2*y1*y2*z1*z2, so
    the product raises every exponent by one and keeps every coefficient."""
    return Poly._trusted(
        {(a0 + 1, a1 + 1, a2 + 1, a3 + 1, a4 + 1, a5 + 1): c
         for (a0, a1, a2, a3, a4, a5), c in p.terms.items()}
    )


PolyLike = Union[Poly, int]


def _as_poly(x: PolyLike) -> Poly:
    if isinstance(x, int):
        return Poly.const(x)
    if isinstance(x, Poly):
        return x
    raise TypeError("ExtElem parts must be Poly or int")


class ExtElem:
    """p + q*r with r*r rewritten to DELTA; ExtElem(e, q) for an ExtElem e
    is e + q*r."""

    __slots__ = ("p", "q")

    def __init__(self, p: Union["ExtElem", PolyLike] = 0, q: PolyLike = 0):
        if isinstance(p, ExtElem):
            p, q = p.p, p.q + _as_poly(q)
        self.p = _as_poly(p)
        self.q = _as_poly(q)

    @staticmethod
    def _trusted(p: Poly, q: Poly) -> "ExtElem":
        e = object.__new__(ExtElem)
        e.p = p
        e.q = q
        return e

    @staticmethod
    def r(sign: int = 1) -> "ExtElem":
        return ExtElem(0, sign)

    @staticmethod
    def var(name: str) -> "ExtElem":
        return ExtElem(Poly.var(name), 0)

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.q.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        other = _as_ext(other)
        if other is None:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __neg__(self) -> "ExtElem":
        return ExtElem._trusted(-self.p, -self.q)

    def __add__(self, other) -> "ExtElem":
        if type(other) is not ExtElem:
            other = _as_ext(other)
            if other is None:
                return NotImplemented
        return ExtElem._trusted(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtElem":
        if type(other) is not ExtElem:
            other = _as_ext(other)
            if other is None:
                return NotImplemented
        return ExtElem._trusted(self.p - other.p, self.q - other.q)

    def __rsub__(self, other) -> "ExtElem":
        other = _as_ext(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "ExtElem":
        if type(other) is not ExtElem:
            other = _as_ext(other)
            if other is None:
                return NotImplemented
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        # an r-free side zeroes q1*q2 and one cross term: neither is formed
        if not q1.terms:
            return ExtElem._trusted(p1 * p2, p1 * q2 if q2.terms else q1)
        if not q2.terms:
            return ExtElem._trusted(p1 * p2, q1 * p2)
        # both carry r: an empty p-part zeroes p1*p2 and one cross term
        if not p1.terms:
            return ExtElem._trusted(_times_delta(q1 * q2), q1 * p2)
        if not p2.terms:
            return ExtElem._trusted(_times_delta(q1 * q2), p1 * q2)
        return ExtElem._trusted(
            p1 * p2 + _times_delta(q1 * q2),
            p1 * q2 + q1 * p2,
        )

    __rmul__ = __mul__

    def inv(self) -> "ExtElem":
        """The inverse of a unit +-m or +-m*r: (m*r)^-1 = m^-1 * DELTA^-1 * r."""
        unit = _unit(self)
        if unit is None:
            if self.is_zero():
                raise DivisionByZero("inverse of zero")
            raise NotAUnit(f"{self} is not a unit +-m or +-m*r of the ring")
        sign, mono, k = unit
        inverse = Poly._trusted({tuple(-e - k for e in mono): sign})
        return ExtElem._trusted(Poly(), inverse) if k else ExtElem._trusted(inverse, Poly())

    def __truediv__(self, other) -> "ExtElem":
        if type(other) is not ExtElem:
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
        if n < 0:
            return _power(self.inv(), -n, ExtElem(1, 0))
        return _power(self, n, ExtElem(1, 0))

    def conjugate(self) -> "ExtElem":
        return ExtElem._trusted(self.p, -self.q)

    def __str__(self) -> str:
        return _laurent_str(self.p.terms, self.q.terms)

    __repr__ = __str__


def _as_ext(x) -> ExtElem | None:
    if type(x) is int and x in _EXT_CONSTS:
        return _EXT_CONSTS[x]
    if isinstance(x, ExtElem):
        return x
    if isinstance(x, Poly):
        return ExtElem._trusted(x, Poly())
    if isinstance(x, int):
        return ExtElem._trusted(Poly.const(x), Poly())
    return None


# shared by every operand they stand for: nothing mutates a result
_EXT_CONSTS = {c: ExtElem._trusted(Poly.const(c), Poly()) for c in (0, 1, -1)}


def _unit(e: ExtElem) -> tuple[int, Mono, int] | None:
    """(sign, m, k) when e = sign * m * r^k with k in {0, 1}, else None."""
    p, q = e.p.terms, e.q.terms
    if len(p) + len(q) != 1:
        return None
    ((mono, c),) = (p or q).items()
    if c != 1 and c != -1:
        return None
    return c, mono, 0 if p else 1


ExtLike = Union[ExtElem, Poly, int]

# The fraction class's former name, now ExtElem: perfbench/tracing.py looks
# up each class it wraps on exact by name, and this name is one of them.
RatElem = ExtElem


# ---------------------------------------------------------------------------
# substitution (exact) and evaluation (numeric)

class Substitution:
    """The images of the six variables, each a unit +-m or +-m*r of the ring
    (unassigned ones map to themselves), prepared once; calling it
    substitutes one value, as substitute does."""

    __slots__ = ("_units", "_memo", "_roots")

    def __init__(self, assignment: Mapping[str, ExtLike]):
        unknown = set(assignment) - set(VARS)
        if unknown:
            raise KeyError(f"unknown variables in assignment: {sorted(unknown)}")
        # per variable, (sign, m, k) with image sign * m * r^k
        self._units: list[tuple[int, Mono, int]] = []
        for name in VARS:
            if name not in assignment:
                self._units.append(_unit(ExtElem.var(name)))
                continue
            img = _as_ext(assignment[name])
            if img is None:
                raise TypeError(
                    f"image of {name} must be an ExtElem, Poly or int, "
                    f"not {type(assignment[name]).__name__}"
                )
            unit = _unit(img)
            if unit is None:
                raise NotAUnit(f"image of {name} must be a unit +-m or +-m*r, not {img}")
            self._units.append(unit)
        # id(p) -> (p, image of p); holding p keeps its id from being reused
        self._memo: dict[int, tuple[Poly, ExtElem]] = {}
        # id(r_image) -> each r image that passed the check, held likewise
        self._roots: dict[int, ExtLike] = {}

    def _poly(self, p: Poly) -> ExtElem:
        """The image of p: with x_i -> sign_i * m_i * r^k_i, the term c * x^e
        goes to the one term c * prod(sign_i^e_i * m_i^e_i) * r^k, where
        k = sum(e_i * k_i) and r^k = DELTA^(k // 2) * r^(k % 2)."""
        hit = self._memo.get(id(p))
        if hit is not None:
            return hit[1]
        units = self._units
        parts: tuple[dict[Mono, int], dict[Mono, int]] = ({}, {})
        for mono, coeff in p.terms.items():
            image, k = [0] * NVARS, 0
            for e, (sign, m, k_i) in zip(mono, units):
                if e:
                    if sign < 0 and e & 1:
                        coeff = -coeff
                    k += e * k_i
                    image = [a + e * b for a, b in zip(image, m)]
            key = tuple(a + (k >> 1) for a in image)
            terms = parts[k & 1]
            s = terms.get(key, 0) + coeff
            if s:
                terms[key] = s
            else:
                del terms[key]
        out = ExtElem._trusted(Poly._trusted(parts[0]), Poly._trusted(parts[1]))
        self._memo[id(p)] = (p, out)
        return out

    def __call__(self, value: ExtLike, r_image: ExtLike) -> ExtElem:
        r_img = _as_ext(r_image)
        if r_img is None:
            raise TypeError("r_image must be an ExtElem, Poly or int")
        if id(r_image) not in self._roots:
            if r_img * r_img != self._poly(DELTA_POLY):
                raise InconsistentRootImage(
                    "r_image squared does not equal the image of x1*x2*y1*y2*z1*z2"
                )
            self._roots[id(r_image)] = r_image
        val = _as_ext(value)
        if val is None:
            raise TypeError("value must be an ExtElem, Poly or int")
        return self._poly(val.p) + self._poly(val.q) * r_img


def substitute(
    value: ExtLike,
    assignment: Mapping[str, ExtLike] | Substitution,
    r_image: ExtLike,
) -> ExtElem:
    """Apply variable images and the stated image of r, exactly.

    assignment is a mapping from variable names to images, or a prepared
    Substitution to share its polynomial images with other calls.  Raises
    TypeError naming a variable whose image is not an ExtElem, Poly or int;
    NotAUnit naming one whose image is not a unit +-m or +-m*r; and
    InconsistentRootImage unless r_image squared equals the image of DELTA
    (checked once per r_image object).
    """
    if not isinstance(assignment, Substitution):
        assignment = Substitution(assignment)
    return assignment(value, r_image)


def poly_eval(p: Poly, values: Mapping[str, complex]) -> complex:
    """p at the given values; a variable that carries a negative exponent
    and evaluates to 0 raises DenominatorVanishes."""
    out = 0j
    for mono, coeff in p.terms.items():
        term = complex(coeff)
        for name, e in zip(VARS, mono):
            if e:
                v = values[name]
                if e < 0 and v == 0:
                    raise DenominatorVanishes(f"{name} = 0 under a negative exponent")
                term *= v ** e
        out += term
    return out


def ext_eval(e: ExtElem, values: Mapping[str, complex], r_value: complex) -> complex:
    return poly_eval(e.p, values) + poly_eval(e.q, values) * r_value


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
    delta_val = poly_eval(DELTA_POLY, values)
    if not approx_eq(r_value * r_value, delta_val, root_tol):
        raise InconsistentRootImage(
            f"r_value^2 = {r_value * r_value!r} but x1*x2*y1*y2*z1*z2 = {delta_val!r}"
        )
    val = _as_ext(value)
    if val is None:
        raise TypeError("value must be an ExtElem, Poly or int")
    return ext_eval(val, values, r_value)
