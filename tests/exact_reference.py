"""Two references for the exact ring that the package itself does not need.

heckeg7.exact builds its elements from ints, the six variables and r by the
ring operations, and never evaluates them at floats.  The tests need both:

  from_doubled -- an element straight from doubled exponent vectors (the
      ring's keys, module docstring of heckeg7.exact), so that a test can
      state its operands and expected results term by term;
  eval_numeric -- the value of an element at complex parameter values, the
      numeric cross-check of the exact operators and identities.
"""

import math

from heckeg7.exact import NVARS, VARS, ExtElem, _pack, _unpack
from heckeg7.numerics import approx_eq

# the doubled exponents a packed key can hold
LOW, HIGH = -(2**31), 2**31 - 1


def from_doubled(terms: dict) -> ExtElem:
    """The element with coefficient c at each doubled exponent vector: six
    ints, all even for a Laurent monomial m or all odd for m*r, each in
    [LOW, HIGH].  Zero coefficients are dropped."""
    packed = {}
    for key, coeff in terms.items():
        assert len(key) == NVARS and all(type(e) is int for e in key), key
        assert len({e & 1 for e in key}) == 1, f"{key} mixes even and odd entries"
        assert all(LOW <= e <= HIGH for e in key), f"{key} leaves the packed range"
        assert isinstance(coeff, int), coeff
        if coeff:
            packed[_pack(key)] = int(coeff)
    return ExtElem._trusted(packed)


def eval_numeric(value, values: dict, r_value: complex, root_tol: float = 1e-9) -> complex:
    """value (an ExtElem or int) at one complex value per variable, with
    r_value for r; r_value must square to x1*x2*y1*y2*z1*z2 within root_tol
    (relative).  A variable that is 0 under a negative exponent raises
    ZeroDivisionError."""
    delta = complex(math.prod(values[name] for name in VARS))
    assert approx_eq(r_value * r_value, delta, root_tol), (r_value, delta)
    out = 0j
    for key, coeff in ExtElem(value).terms.items():
        term = complex(coeff) * r_value if key & 1 else complex(coeff)
        for name, d in zip(VARS, _unpack(key)):
            e = d >> 1
            if e:
                term *= values[name] ** e
        out += term
    return out
