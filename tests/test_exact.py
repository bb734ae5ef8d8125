"""Exact sparse Laurent-polynomial and root-extension arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeg7 import exact
from heckeg7.exact import (
    DELTA_POLY,
    VARS,
    DenominatorVanishes,
    DivisionByZero,
    ExtElem,
    InconsistentRootImage,
    NotAUnit,
    Poly,
    Substitution,
    eval_numeric,
    ext_eval,
    poly_eval,
    substitute,
)
from heckeg7 import identities
from heckeg7.identities import run_all
from heckeg7.numerics import approx_eq

X1, X2, Y1, Y2, Z1, Z2 = (Poly.var(name) for name in VARS)

small_ints = st.integers(min_value=-4, max_value=4)
exponents = st.integers(min_value=0, max_value=3)
monomials = st.tuples(*([exponents] * 6))
laurent_monomials = st.tuples(*([st.integers(min_value=-3, max_value=3)] * 6))


@st.composite
def polys(draw, monos=monomials):
    terms = draw(
        st.dictionaries(monos, small_ints, min_size=0, max_size=5)
    )
    return Poly({m: c for m, c in terms.items() if c})


@st.composite
def ext_elems(draw, monos=monomials):
    return ExtElem(draw(polys(monos)), draw(polys(monos)))


laurent_elems = ext_elems(laurent_monomials)


@st.composite
def units(draw):
    """+-m or +-m*r for a Laurent monomial m."""
    term = Poly({draw(laurent_monomials): draw(st.sampled_from((1, -1)))})
    return ExtElem(0, term) if draw(st.booleans()) else ExtElem(term)


point_values = st.floats(min_value=0.25, max_value=4.0)


@st.composite
def eval_points(draw):
    values = {name: complex(draw(point_values)) for name in VARS}
    delta = 1.0
    for v in values.values():
        delta *= v.real
    return values, complex(math.sqrt(delta))


class TestPoly:
    def test_constructors_and_equality(self):
        assert Poly().is_zero()
        assert Poly.const(0) == Poly()
        assert Poly.const(3) + Poly.const(-3) == Poly()
        assert X1 * X2 == X2 * X1
        assert X1 != X2

    def test_string_form_is_deterministic(self):
        p = X1 * X1 * Y2 - Z1 + 2
        assert str(p) == "x1^2*y2 - z1 + 2"
        assert str(Poly()) == "0"

    def test_delta_is_the_product_of_all_six_variables(self):
        assert DELTA_POLY == X1 * X2 * Y1 * Y2 * Z1 * Z2
        assert [sum(m) for m in DELTA_POLY.terms] == [6]

    def test_power(self):
        assert (X1 + 1) ** 2 == X1 * X1 + 2 * X1 + 1
        assert (X1 + 1) ** 0 == Poly.const(1)

    @pytest.mark.parametrize(
        "cls, n", [(Poly, 5), (ExtElem, 5), (ExtElem, -5)],
        ids=["Poly", "ExtElem", "ExtElem-inverse"],
    )
    def test_power_multiplies_through_the_class_operator(self, cls, n, monkeypatch):
        # perfbench/tracing.py counts products by wrapping each class's __mul__
        base = cls.var("x1") if n > 0 else ExtElem.var("x1").inv()
        expected = base * base * base * base * base
        original, calls = cls.__mul__, []

        def counting(a, b):
            calls.append(b)
            return original(a, b)

        monkeypatch.setattr(cls, "__mul__", counting)
        assert cls.var("x1") ** n == expected
        # x^5 = x * (x^2)^2: one square per bit below the top, one product per set bit
        assert len(calls) == 4

    @given(polys(), polys(), polys())
    @settings(max_examples=150, derandomize=True)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly() == a
        assert a * Poly.const(1) == a

    @given(polys(), polys(), eval_points())
    @settings(max_examples=150, derandomize=True)
    def test_evaluation_is_a_ring_homomorphism(self, a, b, point):
        values, _ = point
        lhs_sum = poly_eval(a + b, values)
        rhs_sum = poly_eval(a, values) + poly_eval(b, values)
        assert approx_eq(lhs_sum, rhs_sum, 1e-10)
        lhs_prod = poly_eval(a * b, values)
        rhs_prod = poly_eval(a, values) * poly_eval(b, values)
        assert approx_eq(lhs_prod, rhs_prod, 1e-10)


class TestExtElem:
    def test_square_of_root_is_delta(self):
        r = ExtElem.r()
        square = r * r
        assert square == ExtElem(DELTA_POLY)

    def test_both_root_signs_square_identically(self):
        assert ExtElem.r(-1) * ExtElem.r(-1) == ExtElem(DELTA_POLY)
        assert ExtElem.r(-1) == -ExtElem.r(1)

    def test_conjugation_flips_the_root_part(self):
        e = ExtElem(X1, Y1)
        bar = e.conjugate()
        assert bar == ExtElem(X1, -Y1)
        # Norm e * conj(e) lands in the root-free subring.
        norm = e * bar
        assert norm.q.is_zero()
        assert norm.p == X1 * X1 - Y1 * Y1 * DELTA_POLY

    @given(ext_elems(), ext_elems(), ext_elems())
    @settings(max_examples=100, derandomize=True)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(ext_elems(), ext_elems(), eval_points())
    @settings(max_examples=100, derandomize=True)
    def test_evaluation_is_a_ring_homomorphism(self, a, b, point):
        values, r_value = point
        lhs = ext_eval(a * b, values, r_value)
        rhs = ext_eval(a, values, r_value) * ext_eval(b, values, r_value)
        assert approx_eq(lhs, rhs, 1e-10)

    @given(ext_elems(), eval_points())
    @settings(max_examples=100, derandomize=True)
    def test_conjugate_evaluates_at_negated_root(self, a, point):
        values, r_value = point
        lhs = ext_eval(a.conjugate(), values, r_value)
        rhs = ext_eval(a, values, -r_value)
        assert approx_eq(lhs, rhs, 1e-10)


class TestLaurentRing:
    """Negative exponents, the units +-m and +-m*r, and division by them."""

    def test_zero_and_non_unit_divisors_are_refused(self):
        with pytest.raises(DivisionByZero):
            ExtElem(0).inv()
        with pytest.raises(DivisionByZero):
            ExtElem.var("x1") / 0
        for non_unit in (ExtElem(X1 - X2), ExtElem(2), ExtElem(X1, Y1), ExtElem(0, 2 * X1)):
            with pytest.raises(NotAUnit):
                non_unit.inv()
            with pytest.raises(NotAUnit):
                ExtElem(1) / non_unit

    def test_equal_quotients_have_equal_terms(self):
        x1, x2, y1 = (ExtElem.var(n) for n in ("x1", "x2", "y1"))
        assert x1 / x2 == (x1 * y1) / (x2 * y1)
        assert (x1 / x2).p.terms == {(1, -1, 0, 0, 0, 0): 1}
        assert x1 * (1 / x1) == 1

    def test_equality_coerces_polys_and_ints(self):
        double = ExtElem(X1 * 2)
        assert double == X1 * 2 and double == ExtElem(X1 * 2)
        assert ExtElem(2) == 2 and double != 2
        assert (double == 2.0) is False

    def test_equal_elements_hash_alike(self):
        x1, x2 = ExtElem.var("x1"), ExtElem.var("x2")
        assert hash(x1 * x2 / x2) == hash(x1)
        assert len({x1, x1 * x2 / x2, x2}) == 2

    def test_inverse_and_division(self):
        q = ExtElem.var("x1") / ExtElem.var("y2")
        assert q * q.inv() == 1
        assert q / q == 1
        r = ExtElem.r()
        assert r.inv() == ExtElem(0, Poly({(-1,) * 6: 1}))
        assert r.inv() * r == 1 and (-r).inv() == -r.inv()

    def test_negative_powers(self):
        q = ExtElem.var("x1")
        assert q ** -2 == 1 / (q * q)
        assert ExtElem.r() ** -2 == 1 / ExtElem(DELTA_POLY)

    def test_root_squares_to_delta(self):
        r = ExtElem.r()
        assert r * r == ExtElem(DELTA_POLY)

    def test_a_negative_exponent_prints_as_one_fraction(self):
        y1_z2_over_y2 = Poly({(0, 0, 1, -1, 0, 1): 1})
        assert str(y1_z2_over_y2) == "(y1*z2) / (y2)"
        assert str(ExtElem(y1_z2_over_y2)) == "(y1*z2) / (y2)"
        x1, y2 = ExtElem.var("x1"), ExtElem.var("y2")
        r = ExtElem.r()
        assert str(x1 / y2 + r) == "((x1) + (y2)*r) / (y2)"
        assert str(-r / (x1 * x1)) == "((-1)*r) / (x1^2)"
        assert str(x1 / y2 - x1 / y2) == "0"

    @given(laurent_elems, units())
    @settings(max_examples=150, derandomize=True)
    def test_division_by_a_unit_is_undone_by_multiplying(self, a, u):
        assert u.inv() * u == 1
        assert (a / u) * u == a
        assert u * (a / u) == a

    @given(laurent_elems)
    @settings(max_examples=100, derandomize=True)
    def test_division_by_a_non_unit_raises(self, a):
        with pytest.raises(NotAUnit):
            a / ExtElem(X1 + X2)

    @given(laurent_elems, laurent_elems, laurent_elems)
    @settings(max_examples=100, derandomize=True)
    def test_ring_axioms_with_negative_exponents(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == 0


class TestOperands:
    def test_a_poly_defers_to_the_higher_layer(self):
        r = ExtElem.r()
        assert (X1 + r) == ExtElem(X1, 1) and type(X1 + r) is ExtElem
        assert (X1 - r) == ExtElem(X1, -1) and type(X1 - r) is ExtElem
        assert (X1 * r) == ExtElem(0, X1)
        quotient = X1 / r
        assert type(quotient) is ExtElem and quotient * r == X1
        assert (X1 - ExtElem(1)) == ExtElem(X1 - 1)

    def test_an_ext_elem_is_copied_with_an_added_r_part(self):
        e = ExtElem(X1, Y1)
        assert ExtElem(e) == e
        assert ExtElem(e, Z1) == ExtElem(X1, Y1 + Z1)

    @pytest.mark.parametrize("operand", [1.5, 2.0, 1j, "1", None])
    def test_non_ring_operands_are_refused(self, operand):
        for op in (
            lambda: X1 + operand,
            lambda: operand + X1,
            lambda: X1 - operand,
            lambda: operand - X1,
            lambda: X1 * operand,
            lambda: operand * X1,
            lambda: ExtElem(operand),
            lambda: ExtElem(X1, operand),
            lambda: ExtElem(ExtElem(X1), operand),
            lambda: ExtElem.r() / operand,
            lambda: operand / ExtElem.r(),
        ):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("coeff", [1.5, 2.0, Fraction(1, 2), 1j, "1", None])
    def test_a_poly_takes_only_int_coefficients(self, coeff):
        with pytest.raises(TypeError):
            Poly({exact.ZERO_MONO: coeff})
        with pytest.raises(TypeError):
            Poly.const(coeff)

    def test_a_bool_coefficient_is_accepted_as_an_int(self):
        assert Poly.const(True) == 1
        assert Poly.const(False).is_zero()


class TestSubstitute:
    def test_delta_image_matches_squared_root_image(self):
        # Setting x1 to x2*y1*z1/(y2*z2) turns the six-variable product into
        # the exact square of x2*y1*z1.
        assignment = {"x1": ExtElem(X2 * Y1 * Z1) / ExtElem(Y2 * Z2)}
        root = ExtElem(X2 * Y1 * Z1)
        image = substitute(DELTA_POLY, assignment, root)
        assert image == root * root

    def test_inconsistent_root_image_rejected(self):
        assignment = {"x1": ExtElem(X2 * Y1 * Z1) / ExtElem(Y2 * Z2)}
        with pytest.raises(InconsistentRootImage):
            substitute(DELTA_POLY, assignment, ExtElem(X2 * Y2 * Z1))

    # the equal-x-1 substitution, with the root image consistent with it
    EQUAL_X_1 = {"x1": ExtElem.var("x2"), "z1": ExtElem(Y1 * Z2) / ExtElem(Y2)}
    EQUAL_X_1_ROOT = ExtElem(X2 * Y1 * Z2)

    def test_a_vanishing_denominator_cannot_be_formed(self):
        # 1/(x1 - x2) would vanish under x1 -> x2; the ring has no such
        # element, and every image is a unit, so no image can vanish
        with pytest.raises(NotAUnit):
            ExtElem(1) / ExtElem(X1 - X2)
        value = ExtElem(1) / (ExtElem.var("x1") * ExtElem.var("z1"))
        image = substitute(value, self.EQUAL_X_1, self.EQUAL_X_1_ROOT)
        assert image == ExtElem(Y2) / ExtElem(X2 * Y1 * Z2)

    @pytest.mark.parametrize("image", [X1 + X2, 0, 2 * X2, ExtElem(X2, 1)])
    def test_non_unit_image_is_named(self, image):
        with pytest.raises(NotAUnit, match=r"image of x1 must be a unit"):
            Substitution({"x1": image})

    def test_untouched_variables_pass_through(self):
        image = substitute(
            ExtElem.var("y1") * ExtElem.var("z2"),
            self.EQUAL_X_1,
            self.EQUAL_X_1_ROOT,
        )
        assert image == ExtElem.var("y1") * ExtElem.var("z2")

    @pytest.mark.parametrize("image", [2.5, None, "x2"])
    def test_unconvertible_image_is_named(self, image):
        with pytest.raises(TypeError, match=r"image of x1 must be"):
            substitute(ExtElem.var("x1"), {"x1": image}, ExtElem.r())
        with pytest.raises(TypeError, match=r"image of z2 must be"):
            Substitution({"x1": ExtElem.var("x2"), "z2": image})

    def test_unknown_variable_rejected(self):
        with pytest.raises(KeyError, match="w1"):
            Substitution({"w1": ExtElem.var("x2")})

    @given(st.lists(units(), min_size=6, max_size=6), laurent_elems, laurent_elems)
    @settings(max_examples=150, derandomize=True)
    def test_unit_images_preserve_sums_and_products(self, drawn, a, b):
        # x1..z1 map to the first five units and z2 to their product's
        # inverse times t^2, so DELTA maps to t^2 and t is a root image
        *images, t = drawn
        product = ExtElem(1)
        for u in images:
            product = product * u
        assignment = dict(zip(VARS, images)) | {"z2": product.inv() * t * t}
        sub = Substitution(assignment)
        for root in (t, -t):
            assert sub(a + b, root) == sub(a, root) + sub(b, root)
            assert sub(a * b, root) == sub(a, root) * sub(b, root)
            assert sub(a - b, root) == sub(a, root) - sub(b, root)


class TestEvalNumeric:
    def test_requires_consistent_root_value(self):
        values = {name: 1 + 0j for name in VARS}
        assert eval_numeric(ExtElem.r(), values, 1.0) == 1.0
        with pytest.raises(InconsistentRootImage):
            eval_numeric(ExtElem.r(), values, 2.0)

    def test_missing_variable_named(self):
        values = {name: 1 + 0j for name in VARS if name != "z2"}
        with pytest.raises(KeyError, match="z2"):
            eval_numeric(ExtElem.var("x1"), values, 1.0)

    def test_negated_root_value_flips_the_root_element(self):
        values = {name: 1 + 0j for name in VARS}
        assert eval_numeric(ExtElem.r(), values, -1.0) == -1.0

    def test_division_by_vanishing_denominator(self):
        # a variable under a negative exponent that evaluates to 0
        values = {name: 1 + 0j for name in VARS} | {"x1": 0j}
        q = ExtElem(1) / ExtElem.var("x1")
        with pytest.raises(DenominatorVanishes, match="x1"):
            eval_numeric(q, values, 0.0)
        with pytest.raises(DenominatorVanishes, match="x1"):
            poly_eval(q.p, values)
        assert eval_numeric(ExtElem.var("x1") * q, values, 0.0) == 1

    @given(eval_points())
    @settings(max_examples=100, derandomize=True)
    def test_rational_evaluation_is_multiplicative(self, point):
        values, r_value = point
        a = ExtElem.var("x1") / ExtElem.var("y2") + ExtElem.r()
        b = ExtElem.var("z1") - ExtElem(1) / ExtElem.var("x2")
        lhs = eval_numeric(a * b, values, r_value)
        rhs = eval_numeric(a, values, r_value) * eval_numeric(b, values, r_value)
        assert approx_eq(lhs, rhs, 1e-10)


# ---------------------------------------------------------------------------
# The operators' shortcuts against the schoolbook formulas.  The references
# below work on plain term dicts and form every product, including those with
# a zero or unit factor, exactly as written; the operators must reproduce
# their terms dicts item for item, insertion order included.

ONE_MONO = (0,) * 6
DELTA_TERMS = {(1,) * 6: 1}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        s = out.get(mono, 0) + coeff
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def ref_neg(a: dict) -> dict:
    return {mono: -coeff for mono, coeff in a.items()}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def ref_ext(e: ExtElem) -> tuple[dict, dict]:
    return dict(e.p.terms), dict(e.q.terms)


def ref_ext_add(a, b):
    return ref_add(a[0], b[0]), ref_add(a[1], b[1])


def ref_ext_neg(a):
    return ref_neg(a[0]), ref_neg(a[1])


def ref_ext_mul(a, b):
    (p1, q1), (p2, q2) = a, b
    return (
        ref_add(ref_mul(p1, p2), ref_mul(ref_mul(q1, q2), DELTA_TERMS)),
        ref_add(ref_mul(p1, q2), ref_mul(q1, p2)),
    )


def items(value) -> list:
    """Every terms dict of a value as ordered item lists."""
    if isinstance(value, ExtElem):
        return items(value.p) + items(value.q)
    if isinstance(value, Poly):
        return [list(value.terms.items())]
    if isinstance(value, tuple):
        return [x for part in value for x in items(part)]
    return [list(value.items())]


single_term_polys = st.builds(
    lambda mono, coeff: Poly({mono: coeff}), monomials, small_ints.filter(bool)
)
shortcut_polys = st.one_of(
    st.just(Poly()),
    st.just(Poly.const(1)),
    small_ints.map(Poly.const),
    single_term_polys,
    polys(),
    polys(laurent_monomials),
)
r_free_elems = shortcut_polys.map(ExtElem)
# elements whose r-part is nonzero
r_elems = st.builds(
    ExtElem, shortcut_polys, st.one_of(single_term_polys, polys().filter(bool))
)
shortcut_elems = st.one_of(r_free_elems, st.builds(ExtElem, shortcut_polys, polys()))
INT_OPERANDS = (0, 1, -1, 2, -3)


def ref_int(c: int) -> tuple[dict, dict]:
    return ({ONE_MONO: c} if c else {}), {}


# Operands that reach each shortcut on every run, whatever the strategies
# draw.  Multi-term parts make a product's insertion order observable.
TWO_TERMS = X1 + 2 * Y1
THREE_TERMS = X2 - Y2 * Z1 + 3
R_ELEM = ExtElem(THREE_TERMS, TWO_TERMS)
R_ONLY = ExtElem(0, Z2 - 2 * X1 * Y1)


class TestShortcuts:
    @given(shortcut_polys, shortcut_polys)
    @settings(max_examples=300, derandomize=True)
    def test_poly_operators_match_schoolbook(self, a, b):
        before = items((a, b))
        ta, tb = dict(a.terms), dict(b.terms)
        assert items(a * b) == items(ref_mul(ta, tb))
        assert items(a + b) == items(ref_add(ta, tb))
        assert items(a - b) == items(ref_add(ta, ref_neg(tb)))
        assert items(-a) == items(ref_neg(ta))
        for c in (0, 1, -1, 3):
            ct = {ONE_MONO: c} if c else {}
            assert items(a * c) == items(ref_mul(ta, ct))
            assert items(c * a) == items(ref_mul(ct, ta))
            assert items(a + c) == items(ref_add(ta, ct))
            assert items(a - c) == items(ref_add(ta, ref_neg(ct)))
        assert items((a, b)) == before

    @given(r_free_elems, r_free_elems)
    @settings(max_examples=200, derandomize=True)
    def test_r_free_products_match_the_four_product_formula(self, a, b):
        before = items((a, b))
        product = a * b
        assert product.q.is_zero()
        assert items(product) == items(ref_ext_mul(ref_ext(a), ref_ext(b)))
        assert items((a, b)) == before

    @given(shortcut_elems, shortcut_elems)
    @settings(max_examples=200, derandomize=True)
    # both sides carry r and one (or each) has an empty polynomial part
    @example(R_ONLY, R_ELEM)
    @example(R_ELEM, R_ONLY)
    @example(R_ONLY, ExtElem(0, THREE_TERMS))
    def test_ext_operators_match_schoolbook(self, a, b):
        before = items((a, b))
        ra, rb = ref_ext(a), ref_ext(b)
        assert items(a * b) == items(ref_ext_mul(ra, rb))
        assert items(a + b) == items(ref_ext_add(ra, rb))
        assert items(a - b) == items(ref_ext_add(ra, ref_ext_neg(rb)))
        assert items(a.conjugate()) == items((ra[0], ref_neg(ra[1])))
        assert items((a, b)) == before

    @given(shortcut_polys)
    @settings(max_examples=200, derandomize=True)
    def test_delta_shift_matches_the_product_with_delta(self, q):
        before = items(q)
        expected = ref_mul(dict(q.terms), DELTA_TERMS)
        assert items(q * DELTA_POLY) == items(expected)
        # (q*r) * r = q*DELTA: the DELTA term of a product with r-parts
        shifted = ExtElem(0, q) * ExtElem.r()
        assert items(shifted) == items((expected, {}))
        assert items(q) == before

    @given(single_term_polys, single_term_polys)
    @settings(max_examples=200, derandomize=True)
    def test_single_term_products_write_one_monomial(self, a, b):
        before = items((a, b))
        product = a * b
        assert len(product.terms) == 1
        assert items(product) == items(ref_mul(dict(a.terms), dict(b.terms)))
        assert items((a, b)) == before

    @given(r_free_elems, r_elems)
    @settings(max_examples=200, derandomize=True)
    def test_one_sided_r_free_products_match_the_four_product_formula(self, a, b):
        before = items((a, b))
        ra, rb = ref_ext(a), ref_ext(b)
        assert items(a * b) == items(ref_ext_mul(ra, rb))
        assert items(b * a) == items(ref_ext_mul(rb, ra))
        assert items((a, b)) == before

    @given(shortcut_elems, units())
    @settings(max_examples=100, derandomize=True)
    # 0, 1 and -1 against operands that carry r
    @example(R_ELEM, ExtElem.r())
    @example(R_ONLY, ExtElem.r(-1))
    def test_int_operands_match_schoolbook(self, e, u):
        before = items((e, u))
        re = ref_ext(e)
        # __radd__ and __rmul__ are __add__ and __mul__: c + e is e + c
        for c in INT_OPERANDS:
            ce = ref_int(c)
            assert items(e * c) == items(ref_ext_mul(re, ce))
            assert items(c * e) == items(ref_ext_mul(re, ce))
            assert items(e + c) == items(ref_ext_add(re, ce))
            assert items(c + e) == items(ref_ext_add(re, ce))
            assert items(e - c) == items(ref_ext_add(re, ref_ext_neg(ce)))
            assert items(c - e) == items(ref_ext_add(ce, ref_ext_neg(re)))
            if c in (1, -1):
                # a unit int is its own inverse
                assert items(e / c) == items(ref_ext_mul(re, ce))
            # c / u is c times the inverse of u
            assert items(c / u) == items(ref_ext_mul(ce, ref_ext(u.inv())))
        assert items((e, u)) == before

    @given(shortcut_polys, shortcut_elems)
    @settings(max_examples=100, derandomize=True)
    def test_bool_operands_match_their_ints(self, p, e):
        before = items((p, e))
        for b in (False, True):
            c = int(b)
            for x in (p, e):
                assert items(x * b) == items(x * c)
                assert items(b * x) == items(c * x)
                assert items(x + b) == items(x + c)
                assert items(b + x) == items(c + x)
                assert items(x - b) == items(x - c)
                assert items(b - x) == items(c - x)
        assert items((p, e)) == before

    def test_run_all_leaves_the_shared_constants_alone(self):
        # a bool keeps its own coercion; the ints 0, 1, -1 get the shared
        # constants, which every identity report then uses as operands
        assert exact._as_ext(True) is not exact._EXT_CONSTS[1]
        for c, shared in exact._EXT_CONSTS.items():
            assert exact._as_ext(c) is shared
        # the symbolic objects every report shares, built once per process
        cached = (
            identities.sym_generators(1),
            identities.sym_generators(-1),
            identities.w_alpha_beta(),
            identities.conjugated_upper_right_numerator(),
        )
        before = items(cached)
        run_all()
        assert {c: items(shared) for c, shared in exact._EXT_CONSTS.items()} == {
            c: items(ref_int(c)) for c in (0, 1, -1)
        }
        assert exact._ONE_TERMS == {ONE_MONO: 1}
        assert identities.sym_generators(1) is cached[0]
        assert identities.sym_generators(-1) is cached[1]
        assert identities.w_alpha_beta() is cached[2]
        assert identities.conjugated_upper_right_numerator() is cached[3]
        assert items(cached) == before


# x1 -> x2*y1*z1/(y2*z2) makes DELTA the square of x2*y1*z1.
SHARED_ASSIGNMENT = {"x1": ExtElem(X2 * Y1 * Z1) / ExtElem(Y2 * Z2)}
SHARED_ROOT = ExtElem(X2 * Y1 * Z1)


def one_shot(value, r_image):
    return items(substitute(value, SHARED_ASSIGNMENT, r_image))


class TestSharedSubstitution:
    @given(st.lists(shortcut_elems, min_size=1, max_size=4))
    @settings(max_examples=100, derandomize=True)
    def test_reuse_matches_one_shot_and_leaves_operands_alone(self, values):
        operands = (SHARED_ASSIGNMENT["x1"], SHARED_ROOT, *values)
        before = items(operands)
        sub = Substitution(SHARED_ASSIGNMENT)
        for r_image in (SHARED_ROOT, -SHARED_ROOT):
            for value in values + values:
                assert items(substitute(value, sub, r_image)) == one_shot(value, r_image)
        assert items(operands) == before

    def test_every_root_image_is_checked_after_a_consistent_one(self):
        sub = Substitution(SHARED_ASSIGNMENT)
        value = ExtElem(X1, Y1) / ExtElem(Z1)
        consistent = substitute(value, sub, SHARED_ROOT)
        for wrong in (ExtElem(X2 * Y2 * Z1), SHARED_ROOT * 2, ExtElem(0)):
            with pytest.raises(InconsistentRootImage):
                substitute(value, sub, wrong)
            with pytest.raises(InconsistentRootImage):
                sub(value, wrong)
        assert items(substitute(value, sub, SHARED_ROOT)) == items(consistent)

    def test_a_wrong_root_image_is_rejected_each_time_it_is_passed(self):
        sub = Substitution(SHARED_ASSIGNMENT)
        wrong = SHARED_ROOT * 2
        for _ in range(2):
            with pytest.raises(InconsistentRootImage):
                sub(X1, wrong)

    def test_each_root_image_object_is_squared_once(self, monkeypatch):
        squared = []
        original = ExtElem.__mul__

        def recording(a, b):
            if a is b:
                squared.append(a)
            return original(a, b)

        monkeypatch.setattr(ExtElem, "__mul__", recording)
        sub = Substitution(SHARED_ASSIGNMENT)
        # an equal root image in a new object is checked again
        equal = ExtElem(X2 * Y1 * Z1)
        for r_image in (SHARED_ROOT, SHARED_ROOT, equal, SHARED_ROOT, equal):
            sub(X1, r_image)
        assert [id(a) for a in squared] == [id(SHARED_ROOT), id(equal)]

    def test_equal_polys_in_different_term_orders_keep_their_own_order(self):
        x1, x2 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)
        a = Poly({x1: 1, x2: 2})
        b = Poly({x2: 2, x1: 1})
        assert a == b and hash(a) == hash(b) and items(a) != items(b)
        expected = {id(p): one_shot(p, SHARED_ROOT) for p in (a, b)}
        assert expected[id(a)] != expected[id(b)]
        sub = Substitution(SHARED_ASSIGNMENT)
        for p in (a, b, a, b):
            assert items(substitute(p, sub, SHARED_ROOT)) == expected[id(p)]
