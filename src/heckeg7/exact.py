"""Exact arithmetic for the identity suite.

Three layers, all over arbitrary-precision integers:

  Poly     sparse polynomials in Z[x1, x2, y1, y2, z1, z2], terms stored as
           a map from exponent vectors to nonzero int coefficients;
  ExtElem  elements p + q*r of the quadratic extension by a formal square
           root r of DELTA = x1*x2*y1*y2*z1*z2, with the rewrite
           r*r -> DELTA applied on every product (r-degree never exceeds 1);
  RatElem  fractions num/den of extension elements.

DELTA is squarefree and not a square, so the extension is an integral domain
and fraction equality by cross-multiplication (n1*d2 == n2*d1) is sound.  No
gcd normalization is ever performed; degrees stay small for every identity
checked here, and equality never depends on reduced form.

The operators skip work whose result is known without doing it:

  - +, -, * and RatElem's / test type(other) against their own class
    first; only other operands go through coercion, which maps the ints
    0, 1 and -1 (not a bool) to shared constants instead of building them;
  - a Poly product with a zero operand returns that operand, and one with
    the constant 1 returns the other operand; a product of two single-term
    polynomials writes its one monomial directly; a sum with zero, or a
    difference with a zero subtrahend, returns the other operand;
  - an ExtElem product with an r-free side forms only p1*p2 and the one
    cross term that can be nonzero (p1*q2 or q1*p2; neither when both are
    r-free), and the DELTA term of any other product raises every exponent
    of q1*q2 by one instead of multiplying by DELTA_POLY;
  - RatElem +, -, * and equals skip each multiplication by a denominator
    that is exactly 1, * forms the product of two r-free numerators itself
    as ExtElem's r-free product does, and equals compares the two cross
    products term by term instead of forming their difference;
  - dicts that already hold only nonzero coefficients are wrapped without
    being copied or filtered again, and a Substitution builds each term of
    a polynomial's image from these trusted constructors.

Invariant: every shortcut -- the type tests, the shared constants, the
single-term product, the one-sided and r-free products, the unit
denominators and the trusted substitution terms -- yields the same terms
dict (same monomials, coefficients and insertion order) as the full
computation it replaces, so the stored num/den/terms, and the residual
strings printed from them, do not depend on which path ran.  Results may
share an operand, a shared constant or its terms dict, so nothing may
mutate .terms, .p, .q, .num or .den after construction.

A Substitution maps variables to RatElems; each call must be told the image
of r.  One object is meant to serve many values under one assignment:

  - it converts and checks the variable images once, and builds each
    power images[name] ** e once;
  - it remembers the image of each Poly it has substituted, keyed by the
    object's identity (and holding the object, so its id stays unique), not
    by equality: two equal Polys may store their terms in a different order,
    and each must get the terms its own substitution yields;
  - every call still checks that its r image squares to the image of DELTA,
    exactly; only that image of DELTA is shared.

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
    """Sparse integer polynomial; terms maps exponent vectors to nonzero
    coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        self.terms: dict[Mono, int] = {}
        if terms:
            for mono, coeff in terms.items():
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
        if type(other) is not Poly and isinstance(other, int):
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
        if type(other) is not Poly and isinstance(other, int):
            other = Poly.const(other)
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0) - coeff
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Poly._trusted(out)

    def __rsub__(self, other: int) -> "Poly":
        return Poly.const(other) - self

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if type(other) is not Poly and isinstance(other, int):
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
        if not self.terms:
            return "0"
        # descending lexicographic order on exponent vectors: deterministic
        pieces = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
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
    return Poly.const(x) if isinstance(x, int) else x


class ExtElem:
    """p + q*r with r*r rewritten to DELTA."""

    __slots__ = ("p", "q")

    def __init__(self, p: PolyLike = 0, q: PolyLike = 0):
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
        return ExtElem._trusted(
            p1 * p2 + _times_delta(q1 * q2),
            p1 * q2 + q1 * p2,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ExtElem":
        if n < 0:
            raise ValueError("negative power of an extension element")
        return _power(self, n, ExtElem(1, 0))

    def conjugate(self) -> "ExtElem":
        return ExtElem._trusted(self.p, -self.q)

    def __str__(self) -> str:
        if self.q.is_zero():
            return str(self.p)
        if self.p.is_zero():
            return f"({self.q})*r"
        return f"({self.p}) + ({self.q})*r"

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
_ONE_EXT = _EXT_CONSTS[1]


def _is_one(e: ExtElem) -> bool:
    return not e.q.terms and e.p.terms == _ONE_TERMS


ExtLike = Union[ExtElem, Poly, int]


class RatElem:
    """Fraction of extension elements; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: ExtLike = 0, den: ExtLike = 1):
        n = _as_ext(num)
        d = _as_ext(den)
        if n is None or d is None:
            raise TypeError("numerator/denominator must be ExtElem, Poly or int")
        if d.is_zero():
            raise DivisionByZero("zero denominator")
        self.num = n
        self.den = d

    @staticmethod
    def _trusted(num: ExtElem, den: ExtElem) -> "RatElem":
        """Wrap extension elements as they are; den must be nonzero."""
        f = object.__new__(RatElem)
        f.num = num
        f.den = den
        return f

    @staticmethod
    def var(name: str) -> "RatElem":
        return RatElem(ExtElem.var(name), 1)

    @staticmethod
    def r(sign: int = 1) -> "RatElem":
        return RatElem(ExtElem.r(sign), 1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def equals(self, other) -> bool:
        other = _as_rat(other)
        if other is None:
            raise TypeError("cannot compare RatElem with this type")
        lhs = self.num if _is_one(other.den) else self.num * other.den
        rhs = other.num if _is_one(self.den) else other.num * self.den
        return lhs.p.terms == rhs.p.terms and lhs.q.terms == rhs.q.terms

    def __eq__(self, other: object) -> bool:
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        return self.equals(other)

    __hash__ = None  # semantic equality is not hash-compatible

    def __neg__(self) -> "RatElem":
        return RatElem._trusted(-self.num, self.den)

    def __add__(self, other) -> "RatElem":
        if type(other) is not RatElem:
            other = _as_rat(other)
            if other is None:
                return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        one1 = not d1.q.terms and d1.p.terms == _ONE_TERMS
        one2 = not d2.q.terms and d2.p.terms == _ONE_TERMS
        return RatElem._trusted(
            (n1 if one2 else n1 * d2) + (n2 if one1 else n2 * d1),
            d2 if one1 else d1 if one2 else d1 * d2,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RatElem":
        if type(other) is not RatElem:
            other = _as_rat(other)
            if other is None:
                return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        one1 = not d1.q.terms and d1.p.terms == _ONE_TERMS
        one2 = not d2.q.terms and d2.p.terms == _ONE_TERMS
        return RatElem._trusted(
            (n1 if one2 else n1 * d2) - (n2 if one1 else n2 * d1),
            d2 if one1 else d1 if one2 else d1 * d2,
        )

    def __rsub__(self, other) -> "RatElem":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "RatElem":
        if type(other) is not RatElem:
            other = _as_rat(other)
            if other is None:
                return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if n1.q.terms or n2.q.terms:
            num = n1 * n2
        else:  # ExtElem.__mul__'s r-free product, without the call
            num = ExtElem._trusted(n1.p * n2.p, n1.q)
        one1 = not d1.q.terms and d1.p.terms == _ONE_TERMS
        one2 = not d2.q.terms and d2.p.terms == _ONE_TERMS
        return RatElem._trusted(num, d2 if one1 else d1 if one2 else d1 * d2)

    __rmul__ = __mul__

    def inv(self) -> "RatElem":
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatElem._trusted(self.den, self.num)

    def __truediv__(self, other) -> "RatElem":
        if type(other) is not RatElem:
            other = _as_rat(other)
            if other is None:
                return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> "RatElem":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int) -> "RatElem":
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, RatElem(1, 1))

    def __str__(self) -> str:
        if _is_one(self.den):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _as_rat(x) -> RatElem | None:
    if isinstance(x, RatElem):
        return x
    e = _as_ext(x)
    if e is None:
        return None
    return RatElem._trusted(e, _ONE_EXT)


_ZERO_RAT = RatElem._trusted(_EXT_CONSTS[0], _ONE_EXT)


RatLike = Union[RatElem, ExtElem, Poly, int]


# ---------------------------------------------------------------------------
# substitution (exact) and evaluation (numeric)

class Substitution:
    """The images of the six variables (unassigned ones map to themselves),
    prepared once; calling it substitutes one value, as substitute does."""

    __slots__ = ("_images", "_powers", "_memo")

    def __init__(self, assignment: Mapping[str, RatLike]):
        unknown = set(assignment) - set(VARS)
        if unknown:
            raise KeyError(f"unknown variables in assignment: {sorted(unknown)}")
        self._images: dict[str, RatElem] = {}
        for name in VARS:
            img = _as_rat(assignment[name]) if name in assignment else RatElem.var(name)
            if img is None:
                raise TypeError(
                    f"image of {name} must be a RatElem, ExtElem, Poly or int, "
                    f"not {type(assignment[name]).__name__}"
                )
            self._images[name] = img
        self._powers: dict[tuple[str, int], RatElem] = {}
        # id(p) -> (p, image of p); holding p keeps its id from being reused
        self._memo: dict[int, tuple[Poly, RatElem]] = {}

    def _poly(self, p: Poly) -> RatElem:
        hit = self._memo.get(id(p))
        if hit is not None:
            return hit[1]
        powers = self._powers
        out = _ZERO_RAT
        for mono, coeff in p.terms.items():
            term = RatElem._trusted(_as_ext(coeff), _ONE_EXT)
            for name, e in zip(VARS, mono):
                if e:
                    key = (name, e)
                    if key not in powers:
                        powers[key] = self._images[name] ** e
                    term = term * powers[key]
            out = out + term
        self._memo[id(p)] = (p, out)
        return out

    def __call__(self, value: RatLike, r_image: RatLike) -> RatElem:
        r_img = _as_rat(r_image)
        if r_img is None:
            raise TypeError("r_image must be a RatElem, ExtElem, Poly or int")
        if not (r_img * r_img).equals(self._poly(DELTA_POLY)):
            raise InconsistentRootImage(
                "r_image squared does not equal the image of x1*x2*y1*y2*z1*z2"
            )
        val = _as_rat(value)
        if val is None:
            raise TypeError("value must be a RatElem, ExtElem, Poly or int")
        num = self._poly(val.num.p) + self._poly(val.num.q) * r_img
        den = self._poly(val.den.p) + self._poly(val.den.q) * r_img
        if den.is_zero():
            raise DenominatorVanishes("denominator vanishes under the assignment")
        return num / den


def substitute(
    value: RatLike,
    assignment: Mapping[str, RatLike] | Substitution,
    r_image: RatLike,
) -> RatElem:
    """Apply variable images and the stated image of r, exactly.

    assignment is a mapping from variable names to images, or a prepared
    Substitution to share its powers and polynomial images with other calls.
    Raises TypeError naming a variable whose image is not a RatElem, ExtElem,
    Poly or int; InconsistentRootImage unless r_image squared equals the
    image of DELTA (checked by cross-multiplication, on every call); and
    DenominatorVanishes when a denominator collapses to zero under the
    assignment.
    """
    if not isinstance(assignment, Substitution):
        assignment = Substitution(assignment)
    return assignment(value, r_image)


def poly_eval(p: Poly, values: Mapping[str, complex]) -> complex:
    out = 0j
    for mono, coeff in p.terms.items():
        term = complex(coeff)
        for name, e in zip(VARS, mono):
            if e:
                term *= values[name] ** e
        out += term
    return out


def ext_eval(e: ExtElem, values: Mapping[str, complex], r_value: complex) -> complex:
    return poly_eval(e.p, values) + poly_eval(e.q, values) * r_value


def eval_numeric(
    value: RatLike,
    values: Mapping[str, complex],
    r_value: complex,
    root_tol: float = 1e-9,
) -> complex:
    """Evaluate at complex parameter values with an explicit value for r.

    r_value must square to DELTA's value within root_tol (relative); a
    vanishing denominator raises DenominatorVanishes.
    """
    missing = [name for name in VARS if name not in values]
    if missing:
        raise KeyError(f"missing values for {missing}")
    delta_val = poly_eval(DELTA_POLY, values)
    if not approx_eq(r_value * r_value, delta_val, root_tol):
        raise InconsistentRootImage(
            f"r_value^2 = {r_value * r_value!r} but x1*x2*y1*y2*z1*z2 = {delta_val!r}"
        )
    val = _as_rat(value)
    if val is None:
        raise TypeError("value must be a RatElem, ExtElem, Poly or int")
    den = ext_eval(val.den, values, r_value)
    if den == 0:
        raise DenominatorVanishes("denominator evaluates to zero")
    return ext_eval(val.num, values, r_value) / den
