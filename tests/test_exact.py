"""Exact sparse-polynomial, root-extension, and rational arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeg7 import exact
from heckeg7.exact import (
    DELTA_POLY,
    VARS,
    DenominatorVanishes,
    DivisionByZero,
    ExtElem,
    InconsistentRootImage,
    Poly,
    RatElem,
    Substitution,
    eval_numeric,
    ext_eval,
    poly_eval,
    substitute,
)
from heckeg7.identities import run_all
from heckeg7.numerics import approx_eq

X1, X2, Y1, Y2, Z1, Z2 = (Poly.var(name) for name in VARS)

small_ints = st.integers(min_value=-4, max_value=4)
exponents = st.integers(min_value=0, max_value=3)
monomials = st.tuples(*([exponents] * 6))


@st.composite
def polys(draw):
    terms = draw(
        st.dictionaries(monomials, small_ints, min_size=0, max_size=5)
    )
    return Poly({m: c for m, c in terms.items() if c})


@st.composite
def ext_elems(draw):
    return ExtElem(draw(polys()), draw(polys()))


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

    @pytest.mark.parametrize("cls", [Poly, ExtElem, RatElem])
    def test_power_multiplies_through_the_class_operator(self, cls, monkeypatch):
        # perfbench/tracing.py counts products by wrapping each class's __mul__
        base = cls.var("x1")
        expected = base * base * base * base * base
        original, calls = cls.__mul__, []

        def counting(a, b):
            calls.append(b)
            return original(a, b)

        monkeypatch.setattr(cls, "__mul__", counting)
        assert base**5 == expected
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


class TestRatElem:
    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            RatElem(ExtElem(X1), ExtElem(0))
        with pytest.raises(DivisionByZero):
            RatElem.var("x1") / RatElem(0)

    def test_equality_by_cross_multiplication(self):
        half = RatElem(ExtElem(X1), ExtElem(X1 * 2))
        assert half.equals(RatElem(ExtElem(Poly.const(1)), ExtElem(Poly.const(2))))
        assert (RatElem.var("x1") / RatElem.var("x2")).equals(
            RatElem(ExtElem(X1 * Y1), ExtElem(X2 * Y1))
        )

    def test_equals_coerces_its_argument(self):
        double = RatElem(ExtElem(X1 * 2), ExtElem(Poly.const(2)))
        assert double.equals(X1)
        assert double.equals(ExtElem(X1))
        assert RatElem(4, 2).equals(2)
        assert not double.equals(2)
        with pytest.raises(TypeError):
            double.equals(2.0)

    def test_unhashable_because_equality_is_structural_on_values(self):
        with pytest.raises(TypeError):
            hash(RatElem.var("x1"))

    def test_inverse_and_division(self):
        q = RatElem.var("x1") / RatElem.var("y2")
        assert (q * q.inv()).equals(RatElem(1))
        assert (q / q).equals(RatElem(1))
        with pytest.raises(DivisionByZero):
            RatElem(0).inv()

    def test_negative_powers(self):
        q = RatElem.var("x1")
        assert (q ** -2).equals(RatElem(1) / (q * q))

    def test_root_squares_to_delta_in_the_field(self):
        r = RatElem.r()
        assert (r * r).equals(RatElem(ExtElem(DELTA_POLY)))

    @given(ext_elems(), ext_elems())
    @settings(max_examples=100, derandomize=True)
    def test_field_inverse_identity(self, a, b):
        num = RatElem(a + ExtElem(Poly.const(1)))
        den = RatElem(b * b + ExtElem(Poly.const(1)))
        # b*b + 1 cannot be zero here only when nonzero as an element; guard.
        if den.is_zero():
            return
        q = num / den
        if q.is_zero():
            return
        assert (q * q.inv()).equals(RatElem(1))


class TestSubstitute:
    def test_delta_image_matches_squared_root_image(self):
        # Setting x1 to x2*y1*z1/(y2*z2) turns the six-variable product into
        # the exact square of x2*y1*z1.
        assignment = {
            "x1": RatElem(ExtElem(X2 * Y1 * Z1), ExtElem(Y2 * Z2)),
        }
        root = RatElem(ExtElem(X2 * Y1 * Z1))
        image = substitute(RatElem(ExtElem(DELTA_POLY)), assignment, root)
        assert image.equals(root * root)

    def test_inconsistent_root_image_rejected(self):
        assignment = {
            "x1": RatElem(ExtElem(X2 * Y1 * Z1), ExtElem(Y2 * Z2)),
        }
        with pytest.raises(InconsistentRootImage):
            substitute(
                RatElem(ExtElem(DELTA_POLY)),
                assignment,
                RatElem(ExtElem(X2 * Y2 * Z1)),
            )

    # the equal-x-1 substitution, with the root image consistent with it
    EQUAL_X_1 = {"x1": RatElem.var("x2"), "z1": RatElem(ExtElem(Y1 * Z2), ExtElem(Y2))}
    EQUAL_X_1_ROOT = RatElem(ExtElem(X2 * Y1 * Z2))

    def test_vanishing_denominator_detected(self):
        value = RatElem(ExtElem(Poly.const(1)), ExtElem(X1 - X2))
        with pytest.raises(DenominatorVanishes):
            substitute(value, self.EQUAL_X_1, self.EQUAL_X_1_ROOT)

    def test_untouched_variables_pass_through(self):
        image = substitute(
            RatElem.var("y1") * RatElem.var("z2"),
            self.EQUAL_X_1,
            self.EQUAL_X_1_ROOT,
        )
        assert image.equals(RatElem.var("y1") * RatElem.var("z2"))

    @pytest.mark.parametrize("image", [2.5, None, "x2"])
    def test_unconvertible_image_is_named(self, image):
        with pytest.raises(TypeError, match=r"image of x1 must be"):
            substitute(RatElem.var("x1"), {"x1": image}, RatElem.r())
        with pytest.raises(TypeError, match=r"image of z2 must be"):
            Substitution({"x1": RatElem.var("x2"), "z2": image})

    def test_unknown_variable_rejected(self):
        with pytest.raises(KeyError, match="w1"):
            Substitution({"w1": RatElem.var("x2")})


class TestEvalNumeric:
    def test_requires_consistent_root_value(self):
        values = {name: 1 + 0j for name in VARS}
        assert eval_numeric(RatElem.r(), values, 1.0) == 1.0
        with pytest.raises(InconsistentRootImage):
            eval_numeric(RatElem.r(), values, 2.0)

    def test_missing_variable_named(self):
        values = {name: 1 + 0j for name in VARS if name != "z2"}
        with pytest.raises(KeyError, match="z2"):
            eval_numeric(RatElem.var("x1"), values, 1.0)

    def test_negated_root_value_flips_the_root_element(self):
        values = {name: 1 + 0j for name in VARS}
        assert eval_numeric(RatElem.r(), values, -1.0) == -1.0

    def test_division_by_vanishing_denominator(self):
        values = {name: 1 + 0j for name in VARS}
        q = RatElem(1) / (RatElem.var("x1") - RatElem.var("x2"))
        with pytest.raises(DenominatorVanishes):
            eval_numeric(q, values, 1.0)

    @given(eval_points())
    @settings(max_examples=100, derandomize=True)
    def test_rational_evaluation_is_multiplicative(self, point):
        values, r_value = point
        a = RatElem.var("x1") / RatElem.var("y2") + RatElem.r()
        b = RatElem.var("z1") - RatElem(1) / RatElem.var("x2")
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


def ref_rat(x: RatElem):
    return ref_ext(x.num), ref_ext(x.den)


def ref_rat_add(a, b):
    (n1, d1), (n2, d2) = a, b
    return ref_ext_add(ref_ext_mul(n1, d2), ref_ext_mul(n2, d1)), ref_ext_mul(d1, d2)


def ref_rat_sub(a, b):
    n2, d2 = b
    return ref_rat_add(a, (ref_ext_neg(n2), d2))


def ref_rat_mul(a, b):
    (n1, d1), (n2, d2) = a, b
    return ref_ext_mul(n1, n2), ref_ext_mul(d1, d2)


def ref_rat_equals(a, b) -> bool:
    (n1, d1), (n2, d2) = a, b
    diff = ref_ext_add(ref_ext_mul(n1, d2), ref_ext_neg(ref_ext_mul(n2, d1)))
    return not diff[0] and not diff[1]


def items(value) -> list:
    """Every terms dict of a value as ordered item lists."""
    if isinstance(value, RatElem):
        return items(value.num) + items(value.den)
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
)
r_free_elems = shortcut_polys.map(ExtElem)
# elements whose r-part is nonzero
r_elems = st.builds(
    ExtElem, shortcut_polys, st.one_of(single_term_polys, polys().filter(bool))
)
shortcut_elems = st.one_of(r_free_elems, st.builds(ExtElem, shortcut_polys, polys()))
denominators = st.one_of(
    st.just(ExtElem(1)),
    shortcut_elems.filter(lambda e: not e.is_zero()),
)
rat_elems = st.builds(RatElem, shortcut_elems, denominators)
r_free_rats = st.builds(RatElem, r_free_elems, denominators)
INT_OPERANDS = (0, 1, -1, 2, -3)
UNIT = ({ONE_MONO: 1}, {})


def ref_int(c: int) -> tuple[dict, dict]:
    return ({ONE_MONO: c} if c else {}), {}


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

    @given(rat_elems, rat_elems)
    @settings(max_examples=200, derandomize=True)
    def test_rat_operators_match_schoolbook(self, a, b):
        before = items((a, b))
        ra, rb = ref_rat(a), ref_rat(b)
        assert items(a + b) == items(ref_rat_add(ra, rb))
        assert items(a - b) == items(ref_rat_sub(ra, rb))
        assert items(a * b) == items(ref_rat_mul(ra, rb))
        assert items(-a) == items((ref_ext_neg(ra[0]), ra[1]))
        assert a.equals(b) == ref_rat_equals(ra, rb)
        assert items((a, b)) == before

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

    @given(r_free_rats, r_free_rats)
    @settings(max_examples=200, derandomize=True)
    def test_r_free_numerator_products_match_schoolbook(self, a, b):
        before = items((a, b))
        ra, rb = ref_rat(a), ref_rat(b)
        product = a * b
        assert product.num.q.is_zero()
        assert items(product) == items(ref_rat_mul(ra, rb))
        if not b.is_zero():
            assert items(a / b) == items(ref_rat_mul(ra, (rb[1], rb[0])))
        assert items((a, b)) == before

    @given(shortcut_elems, rat_elems)
    @settings(max_examples=100, derandomize=True)
    def test_int_operands_match_schoolbook(self, e, f):
        before = items((e, f))
        re, rf = ref_ext(e), ref_rat(f)
        # __radd__ and __rmul__ are __add__ and __mul__: c + e is e + c
        for c in INT_OPERANDS:
            ce = ref_int(c)
            cf = (ce, UNIT)
            assert items(e * c) == items(ref_ext_mul(re, ce))
            assert items(c * e) == items(ref_ext_mul(re, ce))
            assert items(e + c) == items(ref_ext_add(re, ce))
            assert items(c + e) == items(ref_ext_add(re, ce))
            assert items(e - c) == items(ref_ext_add(re, ref_ext_neg(ce)))
            assert items(c - e) == items(ref_ext_add(ce, ref_ext_neg(re)))
            assert items(f * c) == items(ref_rat_mul(rf, cf))
            assert items(c * f) == items(ref_rat_mul(rf, cf))
            assert items(f + c) == items(ref_rat_add(rf, cf))
            assert items(c + f) == items(ref_rat_add(rf, cf))
            assert items(f - c) == items(ref_rat_sub(rf, cf))
            assert items(c - f) == items(ref_rat_sub(cf, rf))
            if c:
                assert items(f / c) == items(ref_rat_mul(rf, (UNIT, ce)))
            if not f.is_zero():
                assert items(c / f) == items(ref_rat_mul(cf, (rf[1], rf[0])))
        assert items((e, f)) == before

    @given(shortcut_polys, shortcut_elems, rat_elems)
    @settings(max_examples=100, derandomize=True)
    def test_bool_operands_match_their_ints(self, p, e, f):
        before = items((p, e, f))
        for b in (False, True):
            c = int(b)
            for x in (p, e, f):
                assert items(x * b) == items(x * c)
                assert items(b * x) == items(c * x)
                assert items(x + b) == items(x + c)
                assert items(b + x) == items(c + x)
                assert items(x - b) == items(x - c)
                assert items(b - x) == items(c - x)
        assert items((p, e, f)) == before

    def test_run_all_leaves_the_shared_constants_alone(self):
        # a bool keeps its own coercion; the ints 0, 1, -1 get the shared
        # constants, which every identity report then uses as operands
        assert exact._as_ext(True) is not exact._EXT_CONSTS[1]
        for c, shared in exact._EXT_CONSTS.items():
            assert exact._as_ext(c) is shared
        run_all()
        assert {c: items(shared) for c, shared in exact._EXT_CONSTS.items()} == {
            c: items(ref_int(c)) for c in (0, 1, -1)
        }
        assert exact._ONE_EXT is exact._EXT_CONSTS[1]
        assert items(exact._ZERO_RAT) == items((ref_int(0), UNIT))
        assert exact._ONE_TERMS == {ONE_MONO: 1}

    @given(rat_elems, denominators)
    @settings(max_examples=200, derandomize=True)
    def test_equals_on_equal_fractions(self, a, k):
        scaled = RatElem(a.num * k, a.den * k)
        before = items((a, scaled))
        assert ref_rat_equals(ref_rat(a), ref_rat(scaled))
        assert a.equals(scaled) and scaled.equals(a)
        shifted = a + RatElem(1)
        assert a.equals(shifted) == ref_rat_equals(ref_rat(a), ref_rat(shifted))
        assert not a.equals(shifted)
        assert items((a, scaled)) == before


# x1 -> x2*y1*z1/(y2*z2) makes DELTA the square of x2*y1*z1.
SHARED_ASSIGNMENT = {"x1": RatElem(ExtElem(X2 * Y1 * Z1), ExtElem(Y2 * Z2))}
SHARED_ROOT = RatElem(ExtElem(X2 * Y1 * Z1))


def one_shot_or_error(value, r_image):
    try:
        return items(substitute(value, SHARED_ASSIGNMENT, r_image))
    except DenominatorVanishes:
        return DenominatorVanishes


class TestSharedSubstitution:
    @given(st.lists(rat_elems, min_size=1, max_size=4))
    @settings(max_examples=100, derandomize=True)
    def test_reuse_matches_one_shot_and_leaves_operands_alone(self, values):
        operands = (SHARED_ASSIGNMENT["x1"], SHARED_ROOT, *values)
        before = items(operands)
        sub = Substitution(SHARED_ASSIGNMENT)
        for r_image in (SHARED_ROOT, -SHARED_ROOT):
            for value in values + values:
                expected = one_shot_or_error(value, r_image)
                try:
                    shared = items(substitute(value, sub, r_image))
                except DenominatorVanishes:
                    shared = DenominatorVanishes
                assert shared == expected
        assert items(operands) == before

    def test_every_root_image_is_checked_after_a_consistent_one(self):
        sub = Substitution(SHARED_ASSIGNMENT)
        value = RatElem(ExtElem(X1, Y1), ExtElem(Z1))
        consistent = substitute(value, sub, SHARED_ROOT)
        for wrong in (RatElem(ExtElem(X2 * Y2 * Z1)), SHARED_ROOT * 2, RatElem(0)):
            with pytest.raises(InconsistentRootImage):
                substitute(value, sub, wrong)
            with pytest.raises(InconsistentRootImage):
                sub(value, wrong)
        assert items(substitute(value, sub, SHARED_ROOT)) == items(consistent)

    def test_equal_polys_in_different_term_orders_keep_their_own_order(self):
        x1, x2 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)
        a = Poly({x1: 1, x2: 2})
        b = Poly({x2: 2, x1: 1})
        assert a == b and hash(a) == hash(b) and items(a) != items(b)
        expected = {id(p): one_shot_or_error(p, SHARED_ROOT) for p in (a, b)}
        assert expected[id(a)] != expected[id(b)]
        sub = Substitution(SHARED_ASSIGNMENT)
        for p in (a, b, a, b):
            assert items(substitute(p, sub, SHARED_ROOT)) == expected[id(p)]
