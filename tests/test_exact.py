"""Exact arithmetic in the Laurent ring adjoined r, with r*r = DELTA."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_reference import eval_numeric, from_doubled
from heckeg7.exact import (
    DELTA,
    ONE_KEY,
    VARS,
    DivisionByZero,
    ExponentOutOfRange,
    ExtElem,
    InconsistentRootImage,
    NotAUnit,
    Substitution,
    _unpack,
    substitute,
)
from heckeg7 import identities
from heckeg7.identities import run_all
from heckeg7.numerics import approx_eq

X1, X2, Y1, Y2, Z1, Z2 = (ExtElem.var(name) for name in VARS)
R = ExtElem.r()


def elem(p=(), q=()) -> ExtElem:
    """p + q*r for two dicts from ordinary exponent vectors to ints: the
    ring's key is each exponent doubled, plus one throughout for q."""
    return from_doubled(
        {tuple(2 * e for e in m): c for m, c in dict(p).items()}
        | {tuple(2 * e + 1 for e in m): c for m, c in dict(q).items()}
    )


def doubled(e: ExtElem) -> dict:
    """e's terms under their doubled exponent vectors, unpacked from the
    stored keys by exact's own helper."""
    return {_unpack(key): coeff for key, coeff in e.terms.items()}


def split(e: ExtElem) -> tuple[dict, dict]:
    """The (p, q) of e = p + q*r, each a dict of ordinary exponents: a
    key's entries halved and rounded down, by its parity."""
    p, q = {}, {}
    for key, coeff in doubled(e).items():
        (q if key[0] & 1 else p)[tuple(k >> 1 for k in key)] = coeff
    return p, q


def one_parity(e: ExtElem) -> bool:
    """Every key has six entries, all even or all odd."""
    return all(len(key) == 6 and len({k & 1 for k in key}) == 1 for key in doubled(e))


def terms_of(value) -> list[dict]:
    """Copies of the terms dicts of an element or of nested tuples of them."""
    if isinstance(value, ExtElem):
        return [dict(value.terms)]
    return [t for part in value for t in terms_of(part)]


small_ints = st.integers(min_value=-4, max_value=4)
exponents = st.integers(min_value=0, max_value=3)
monomials = st.tuples(*([exponents] * 6))
laurent_monomials = st.tuples(*([st.integers(min_value=-3, max_value=3)] * 6))


def poly_dicts(monos=monomials):
    return st.dictionaries(monos, small_ints, min_size=0, max_size=5)


def polys(monos=monomials):
    return poly_dicts(monos).map(elem)


def ext_elems(monos=monomials):
    return st.builds(elem, poly_dicts(monos), poly_dicts(monos))


laurent_elems = ext_elems(laurent_monomials)
# ring elements and the ints they may equal
ring_or_ints = st.one_of(small_ints, small_ints.map(ExtElem), laurent_elems)


@st.composite
def units(draw):
    """+-m or +-m*r for a Laurent monomial m."""
    term = {draw(laurent_monomials): draw(st.sampled_from((1, -1)))}
    return elem(q=term) if draw(st.booleans()) else elem(term)


def unit_assignment(drawn: list[ExtElem]) -> tuple[dict, ExtElem]:
    """x1..z1 map to the first five of six units and z2 to their product's
    inverse times t^2, with t the sixth: DELTA maps to t^2, so t is a root
    image."""
    *images, t = drawn
    product = ExtElem(1)
    for u in images:
        product = product * u
    return dict(zip(VARS, images)) | {"z2": product.inv() * t * t}, t


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
        assert ExtElem().is_zero()
        assert ExtElem(0) == ExtElem()
        assert ExtElem(3) + ExtElem(-3) == ExtElem()
        assert X1 * X2 == X2 * X1
        assert X1 != X2

    def test_string_form_is_deterministic(self):
        p = X1 * X1 * Y2 - Z1 + 2
        assert str(p) == "x1^2*y2 - z1 + 2"
        assert str(ExtElem()) == "0"

    def test_delta_is_the_product_of_all_six_variables(self):
        assert DELTA == X1 * X2 * Y1 * Y2 * Z1 * Z2
        assert split(DELTA) == ({(1,) * 6: 1}, {})

    def test_power(self):
        assert (X1 + 1) ** 2 == X1 * X1 + 2 * X1 + 1
        assert (X1 + 1) ** 0 == ExtElem(1)

    @pytest.mark.parametrize("n", [5, -5], ids=["ExtElem", "ExtElem-inverse"])
    def test_power_multiplies_through_the_class_operator(self, n, monkeypatch):
        # perfbench/tracing.py counts products by wrapping the class's __mul__
        base = X1 if n > 0 else X1.inv()
        expected = base * base * base * base * base
        original, calls = ExtElem.__mul__, []

        def counting(a, b):
            calls.append(b)
            return original(a, b)

        monkeypatch.setattr(ExtElem, "__mul__", counting)
        assert X1 ** n == expected
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
        assert a + ExtElem() == a
        assert a * ExtElem(1) == a

    @given(polys(), polys(), eval_points())
    @settings(max_examples=150, derandomize=True)
    def test_evaluation_is_a_ring_homomorphism(self, a, b, point):
        values, r_value = point
        lhs_sum = eval_numeric(a + b, values, r_value)
        rhs_sum = eval_numeric(a, values, r_value) + eval_numeric(b, values, r_value)
        assert approx_eq(lhs_sum, rhs_sum, 1e-10)
        lhs_prod = eval_numeric(a * b, values, r_value)
        rhs_prod = eval_numeric(a, values, r_value) * eval_numeric(b, values, r_value)
        assert approx_eq(lhs_prod, rhs_prod, 1e-10)


class TestExtElem:
    def test_square_of_root_is_delta(self):
        assert R * R == DELTA

    def test_both_root_signs_square_identically(self):
        assert ExtElem.r(-1) * ExtElem.r(-1) == DELTA
        assert ExtElem.r(-1) == -ExtElem.r(1)

    def test_conjugation_flips_the_root_part(self):
        e = X1 + Y1 * R
        bar = e.conjugate()
        assert bar == X1 - Y1 * R
        # Norm e * conj(e) lands in the root-free subring.
        norm = e * bar
        assert split(norm)[1] == {}
        assert norm == X1 * X1 - Y1 * Y1 * DELTA

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
        lhs = eval_numeric(a * b, values, r_value)
        rhs = eval_numeric(a, values, r_value) * eval_numeric(b, values, r_value)
        assert approx_eq(lhs, rhs, 1e-10)

    @given(ext_elems(), eval_points())
    @settings(max_examples=100, derandomize=True)
    def test_conjugate_evaluates_at_negated_root(self, a, point):
        values, r_value = point
        lhs = eval_numeric(a.conjugate(), values, r_value)
        rhs = eval_numeric(a, values, -r_value)
        assert approx_eq(lhs, rhs, 1e-10)


class TestDoubledKeys:
    """Each term's key is its exponent vector doubled; r is the monomial
    with every exponent 1/2, so every key has six entries of one parity."""

    def test_variables_the_root_and_delta_are_single_keys(self):
        assert doubled(X1) == {(2, 0, 0, 0, 0, 0): 1}
        assert doubled(R) == {(1,) * 6: 1}
        assert doubled(DELTA) == {(2,) * 6: 1}
        # a product adds keys: r*r is DELTA with no rewrite
        assert doubled(R * R) == doubled(DELTA)
        assert doubled(X1 * R) == {(3, 1, 1, 1, 1, 1): 1}

    @given(
        laurent_elems,
        laurent_elems,
        units(),
        st.integers(min_value=0, max_value=3),
        st.lists(units(), min_size=6, max_size=6),
    )
    @settings(max_examples=100, derandomize=True)
    def test_every_result_keeps_one_parity_per_key(self, a, b, u, n, drawn):
        assignment, t = unit_assignment(drawn)
        sub = Substitution(assignment)
        results = [
            a + b, a - b, a * b, a / u, u.inv(), a ** n, u ** -n, a.conjugate(),
            substitute(a, assignment, t), sub(b, -t),
        ]
        assert all(one_parity(e) for e in results)


class TestLaurentRing:
    """Negative exponents, the units +-m and +-m*r, and division by them."""

    def test_zero_and_non_unit_divisors_are_refused(self):
        with pytest.raises(DivisionByZero):
            ExtElem(0).inv()
        with pytest.raises(DivisionByZero):
            X1 / 0
        for non_unit in (X1 - X2, ExtElem(2), X1 + Y1 * R, 2 * X1 * R):
            with pytest.raises(NotAUnit):
                non_unit.inv()
            with pytest.raises(NotAUnit):
                ExtElem(1) / non_unit

    def test_equal_quotients_have_equal_terms(self):
        assert X1 / X2 == (X1 * Y1) / (X2 * Y1)
        assert split(X1 / X2) == ({(1, -1, 0, 0, 0, 0): 1}, {})
        assert X1 * (1 / X1) == 1

    def test_equality_coerces_ints(self):
        double = X1 * 2
        assert double == 2 * X1 and double == ExtElem(double)
        assert ExtElem(2) == 2 and double != 2
        assert (double == 2.0) is False

    def test_equal_elements_hash_alike(self):
        assert hash(X1 * X2 / X2) == hash(X1)
        assert len({X1, X1 * X2 / X2, X2}) == 2

    def test_an_element_equal_to_an_int_hashes_as_the_int(self):
        assert {2: "v"}.get(ExtElem(2)) == "v"
        assert len({2, ExtElem(2)}) == 1
        assert {0: "zero"}[X1 - X1] == "zero"
        assert hash(ExtElem(True)) == hash(True) and hash(ExtElem(-1)) == hash(-1)

    @given(ring_or_ints, ring_or_ints)
    @settings(max_examples=200, derandomize=True)
    @example(2, ExtElem(2))
    @example(0, X1 - X1)
    @example(-1, R.inv() * -R)
    def test_equal_values_hash_alike(self, a, b):
        # a == b implies hash(a) == hash(b), for ring elements and ints on
        # either side; each derived value equals a
        if a == b:
            assert hash(a) == hash(b)
        for same in (a + b - b, a * X1 / X1, ExtElem(a)):
            assert same == a and hash(same) == hash(a)

    def test_inverse_and_division(self):
        q = X1 / Y2
        assert q * q.inv() == 1
        assert q / q == 1
        # r^-1 = r * DELTA^-1: every exponent -1/2
        assert R.inv() == elem(q={(-1,) * 6: 1})
        assert doubled(R.inv()) == {(-1,) * 6: 1}
        assert R.inv() * R == 1 and (-R).inv() == -R.inv()

    def test_negative_powers(self):
        assert X1 ** -2 == 1 / (X1 * X1)
        assert R ** -2 == 1 / DELTA

    def test_root_squares_to_delta(self):
        assert R * R == DELTA

    def test_a_negative_exponent_prints_as_one_fraction(self):
        y1_z2_over_y2 = elem({(0, 0, 1, -1, 0, 1): 1})
        assert str(y1_z2_over_y2) == "(y1*z2) / (y2)"
        assert str(X1 / Y2 + R) == "((x1) + (y2)*r) / (y2)"
        assert str(-R / (X1 * X1)) == "((-1)*r) / (x1^2)"
        assert str(X1 / Y2 - X1 / Y2) == "0"

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
            a / (X1 + X2)

    @given(laurent_elems, laurent_elems, laurent_elems)
    @settings(max_examples=100, derandomize=True)
    def test_ring_axioms_with_negative_exponents(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == 0


class TestOperands:
    def test_variables_and_the_root_share_one_class(self):
        assert X1 + R == elem({(1, 0, 0, 0, 0, 0): 1}, {(0,) * 6: 1})
        assert X1 - R == elem({(1, 0, 0, 0, 0, 0): 1}, {(0,) * 6: -1})
        assert X1 * R == elem(q={(1, 0, 0, 0, 0, 0): 1})
        assert (X1 / R) * R == X1
        assert all(type(e) is ExtElem for e in (X1 + R, X1 * R, X1 / R, X1 - 1))

    def test_an_ext_elem_is_copied(self):
        e = X1 + Y1 * R
        assert ExtElem(e) == e and ExtElem(e) is not e

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
            lambda: R / operand,
            lambda: operand / R,
        ):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("coeff", [1.5, 2.0, Fraction(1, 2), 1j, "1", None])
    def test_a_poly_takes_only_int_coefficients(self, coeff):
        with pytest.raises(TypeError):
            ExtElem(coeff)

    def test_a_bool_coefficient_is_accepted_as_an_int(self):
        assert ExtElem(True) == 1
        assert ExtElem(False).is_zero()
        assert doubled(ExtElem(True)) == {ONE_KEY: 1}
        assert [type(c) for c in ExtElem(True).terms.values()] == [int]

    @pytest.mark.parametrize("mapping", [{ONE_KEY: 1}, {(2, 0, 0, 0, 0, 0): 1}, {}])
    def test_a_mapping_is_refused(self, mapping):
        # the ring's elements come from ints, the variables and r
        with pytest.raises(TypeError, match="cannot make a ring element of dict"):
            ExtElem(mapping)

    def test_reflected_operators_reach_the_class_operators_at_call_time(self, monkeypatch):
        # perfbench/tracing.py counts products and sums by wrapping the
        # class's __mul__ and __add__ after import
        calls = []
        for name in ("__mul__", "__add__"):
            original = getattr(ExtElem, name)

            def counting(a, b, original=original, name=name):
                calls.append(name)
                return original(a, b)

            monkeypatch.setattr(ExtElem, name, counting)
        assert 3 * X1 == X1 * 3 and 3 + X1 == X1 + 3
        assert calls == ["__mul__", "__mul__", "__add__", "__add__"]

    @pytest.mark.parametrize("op, symbol", [(operator.mul, "*"), (operator.add, "+")])
    def test_a_float_on_the_left_raises_the_reflected_type_error(self, op, symbol):
        with pytest.raises(TypeError) as raised:
            op(1.5, X1)
        assert str(raised.value) == f"unsupported operand type(s) for {symbol}: 'float' and 'ExtElem'"


class TestSubstitute:
    def test_delta_image_matches_squared_root_image(self):
        # Setting x1 to x2*y1*z1/(y2*z2) turns the six-variable product into
        # the exact square of x2*y1*z1.
        assignment = {"x1": X2 * Y1 * Z1 / (Y2 * Z2)}
        root = X2 * Y1 * Z1
        image = substitute(DELTA, assignment, root)
        assert image == root * root

    def test_inconsistent_root_image_rejected(self):
        assignment = {"x1": X2 * Y1 * Z1 / (Y2 * Z2)}
        with pytest.raises(InconsistentRootImage):
            substitute(DELTA, assignment, X2 * Y2 * Z1)

    # the equal-x-1 substitution, with the root image consistent with it
    EQUAL_X_1 = {"x1": X2, "z1": Y1 * Z2 / Y2}
    EQUAL_X_1_ROOT = X2 * Y1 * Z2

    def test_a_vanishing_denominator_cannot_be_formed(self):
        # 1/(x1 - x2) would vanish under x1 -> x2; the ring has no such
        # element, and every image is a unit, so no image can vanish
        with pytest.raises(NotAUnit):
            ExtElem(1) / (X1 - X2)
        value = ExtElem(1) / (X1 * Z1)
        image = substitute(value, self.EQUAL_X_1, self.EQUAL_X_1_ROOT)
        assert image == Y2 / (X2 * Y1 * Z2)

    @pytest.mark.parametrize("image", [X1 + X2, 0, 2 * X2, X2 + R])
    def test_non_unit_image_is_named(self, image):
        with pytest.raises(NotAUnit, match=r"image of x1 must be a unit"):
            Substitution({"x1": image})

    def test_r_maps_to_the_stated_root_image(self):
        for root in (self.EQUAL_X_1_ROOT, -self.EQUAL_X_1_ROOT):
            image = substitute(X1 + Y2 * R, self.EQUAL_X_1, root)
            assert image == X2 + Y2 * root

    def test_untouched_variables_pass_through(self):
        image = substitute(Y1 * Z2, self.EQUAL_X_1, self.EQUAL_X_1_ROOT)
        assert image == Y1 * Z2

    @pytest.mark.parametrize("image", [2.5, None, "x2"])
    def test_unconvertible_image_is_named(self, image):
        with pytest.raises(TypeError, match=r"image of x1 must be"):
            substitute(X1, {"x1": image}, R)
        with pytest.raises(TypeError, match=r"image of z2 must be"):
            Substitution({"x1": X2, "z2": image})

    def test_unknown_variable_rejected(self):
        with pytest.raises(KeyError, match="w1"):
            Substitution({"w1": X2})

    @given(st.lists(units(), min_size=6, max_size=6), laurent_elems, laurent_elems)
    @settings(max_examples=150, derandomize=True)
    def test_unit_images_preserve_sums_and_products(self, drawn, a, b):
        assignment, t = unit_assignment(drawn)
        sub = Substitution(assignment)
        for root in (t, -t):
            assert sub(R, root) == root and sub(a * R, root) == sub(a, root) * root
            assert sub(a + b, root) == sub(a, root) + sub(b, root)
            assert sub(a * b, root) == sub(a, root) * sub(b, root)
            assert sub(a - b, root) == sub(a, root) - sub(b, root)


class TestEvalNumeric:
    """The tests' evaluator (exact_reference) on quotients by units."""

    @given(eval_points())
    @settings(max_examples=100, derandomize=True)
    def test_rational_evaluation_is_multiplicative(self, point):
        values, r_value = point
        a = X1 / Y2 + R
        b = Z1 - ExtElem(1) / X2
        lhs = eval_numeric(a * b, values, r_value)
        rhs = eval_numeric(a, values, r_value) * eval_numeric(b, values, r_value)
        assert approx_eq(lhs, rhs, 1e-10)


# ---------------------------------------------------------------------------
# The operators against the schoolbook formulas.  The references below work
# on pairs (p, q) for p + q*r, each a plain dict from ordinary exponent
# vectors to ints, form every product as written, including those with a
# zero or unit factor, and rewrite r*r to DELTA_TERMS.  split takes an
# element to that form by the parity of its keys.  Dicts compare without
# regard to order: nothing reads the order of an element's terms, and str
# sorts them.

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


def ref_ext_inv(a):
    """The inverse of a unit c*m (m^-1) or c*m*r (m^-1 * DELTA^-1 * r)."""
    p, q = a
    ((mono, c),) = (p or q).items()
    if p:
        return {tuple(-e for e in mono): c}, {}
    return {}, {tuple(-e - 1 for e in mono): c}


single_terms = st.builds(lambda mono, coeff: {mono: coeff}, monomials, small_ints.filter(bool))
shortcut_dicts = st.one_of(
    st.just({}),
    st.just({ONE_MONO: 1}),
    small_ints.map(lambda c: {ONE_MONO: c} if c else {}),
    single_terms,
    poly_dicts(),
    poly_dicts(laurent_monomials),
)
shortcut_polys = shortcut_dicts.map(elem)
# c*m or c*m*r
single_term_elems = st.builds(
    lambda term, odd: elem(q=term) if odd else elem(term), single_terms, st.booleans()
)
r_free_elems = shortcut_polys
# elements whose r-part is nonzero
r_elems = st.builds(elem, shortcut_dicts, st.one_of(single_terms, poly_dicts().filter(bool)))
shortcut_elems = st.one_of(r_free_elems, st.builds(elem, shortcut_dicts, poly_dicts()))
INT_OPERANDS = (0, 1, -1, 2, -3)


def ref_int(c: int) -> tuple[dict, dict]:
    return ({ONE_MONO: c} if c else {}), {}


# Operands with multi-term parts whose products meet r*r on every run,
# whatever the strategies draw.
TWO_TERMS = X1 + 2 * Y1
THREE_TERMS = X2 - Y2 * Z1 + 3
R_ELEM = THREE_TERMS + TWO_TERMS * R
R_ONLY = (Z2 - 2 * X1 * Y1) * R


class TestShortcuts:
    @given(shortcut_polys, shortcut_polys)
    @settings(max_examples=300, derandomize=True)
    def test_poly_operators_match_schoolbook(self, a, b):
        before = terms_of((a, b))
        ta, tb = split(a)[0], split(b)[0]
        assert split(a * b) == (ref_mul(ta, tb), {})
        assert split(a + b) == (ref_add(ta, tb), {})
        assert split(a - b) == (ref_add(ta, ref_neg(tb)), {})
        assert split(-a) == (ref_neg(ta), {})
        for c in (0, 1, -1, 3):
            ct = {ONE_MONO: c} if c else {}
            assert split(a * c) == (ref_mul(ta, ct), {})
            assert split(c * a) == (ref_mul(ct, ta), {})
            assert split(a + c) == (ref_add(ta, ct), {})
            assert split(a - c) == (ref_add(ta, ref_neg(ct)), {})
        assert terms_of((a, b)) == before

    @given(r_free_elems, r_free_elems)
    @settings(max_examples=200, derandomize=True)
    def test_r_free_products_match_the_four_product_formula(self, a, b):
        before = terms_of((a, b))
        product = a * b
        assert split(product)[1] == {}
        assert split(product) == ref_ext_mul(split(a), split(b))
        assert terms_of((a, b)) == before

    @given(shortcut_elems, shortcut_elems)
    @settings(max_examples=200, derandomize=True)
    # both sides carry r and one (or each) has an empty r-free part
    @example(R_ONLY, R_ELEM)
    @example(R_ELEM, R_ONLY)
    @example(R_ONLY, THREE_TERMS * R)
    def test_ext_operators_match_schoolbook(self, a, b):
        before = terms_of((a, b))
        ra, rb = split(a), split(b)
        assert split(a * b) == ref_ext_mul(ra, rb)
        assert split(a + b) == ref_ext_add(ra, rb)
        assert split(a - b) == ref_ext_add(ra, ref_ext_neg(rb))
        assert split(-a) == ref_ext_neg(ra)
        assert split(a.conjugate()) == (ra[0], ref_neg(ra[1]))
        assert split(a ** 2) == ref_ext_mul(ra, ra)
        assert terms_of((a, b)) == before

    @given(shortcut_elems, units())
    @settings(max_examples=200, derandomize=True)
    def test_unit_operators_match_schoolbook(self, a, u):
        before = terms_of((a, u))
        ra, ru = split(a), split(u)
        inverse = ref_ext_inv(ru)
        assert split(u.inv()) == inverse
        assert split(a / u) == ref_ext_mul(ra, inverse)
        assert split(u ** -2) == ref_ext_mul(inverse, inverse)
        assert terms_of((a, u)) == before

    @given(shortcut_polys)
    @settings(max_examples=200, derandomize=True)
    def test_delta_shift_matches_the_product_with_delta(self, q):
        before = terms_of(q)
        expected = (ref_mul(split(q)[0], DELTA_TERMS), {})
        assert split(q * DELTA) == expected
        # (q*r) * r = q*DELTA: the r*r of a product needs no rewrite
        assert split(q * R * R) == expected
        assert terms_of(q) == before

    @given(single_term_elems, single_term_elems)
    @settings(max_examples=200, derandomize=True)
    def test_single_term_products_write_one_monomial(self, a, b):
        before = terms_of((a, b))
        product = a * b
        assert len(doubled(product)) == 1
        assert split(product) == ref_ext_mul(split(a), split(b))
        assert terms_of((a, b)) == before

    @given(r_free_elems, r_elems)
    @settings(max_examples=200, derandomize=True)
    def test_one_sided_r_free_products_match_the_four_product_formula(self, a, b):
        before = terms_of((a, b))
        ra, rb = split(a), split(b)
        assert split(a * b) == ref_ext_mul(ra, rb)
        assert split(b * a) == ref_ext_mul(rb, ra)
        assert terms_of((a, b)) == before

    @given(shortcut_elems, units())
    @settings(max_examples=100, derandomize=True)
    # 0, 1 and -1 against operands that carry r
    @example(R_ELEM, R)
    @example(R_ONLY, ExtElem.r(-1))
    def test_int_operands_match_schoolbook(self, e, u):
        before = terms_of((e, u))
        re = split(e)
        # __radd__ and __rmul__ call __add__ and __mul__: c + e is e + c
        for c in INT_OPERANDS:
            ce = ref_int(c)
            assert split(e * c) == ref_ext_mul(re, ce)
            assert split(c * e) == ref_ext_mul(re, ce)
            assert split(e + c) == ref_ext_add(re, ce)
            assert split(c + e) == ref_ext_add(re, ce)
            assert split(e - c) == ref_ext_add(re, ref_ext_neg(ce))
            assert split(c - e) == ref_ext_add(ce, ref_ext_neg(re))
            if c in (1, -1):
                # a unit int is its own inverse
                assert split(e / c) == ref_ext_mul(re, ce)
            # c / u is c times the inverse of u
            assert split(c / u) == ref_ext_mul(ce, ref_ext_inv(split(u)))
        assert terms_of((e, u)) == before

    @given(shortcut_elems)
    @settings(max_examples=100, derandomize=True)
    def test_bool_operands_match_their_ints(self, e):
        before = terms_of(e)
        for b in (False, True):
            c = int(b)
            assert doubled(e * b) == doubled(e * c)
            assert doubled(b * e) == doubled(c * e)
            assert doubled(e + b) == doubled(e + c)
            assert doubled(b + e) == doubled(c + e)
            assert doubled(e - b) == doubled(e - c)
            assert doubled(b - e) == doubled(c - e)
        assert terms_of(e) == before

    def test_run_all_leaves_the_shared_constants_alone(self):
        # the symbolic objects every report shares, built once per process
        cached = (
            identities.sym_generators(1),
            identities.sym_generators(-1),
            identities.w_alpha_beta(),
            identities.conjugated_upper_right_numerator(),
        )
        before = terms_of(cached)
        run_all()
        assert doubled(DELTA) == {(2,) * 6: 1}
        assert identities.sym_generators(1) is cached[0]
        assert identities.sym_generators(-1) is cached[1]
        assert identities.w_alpha_beta() is cached[2]
        assert identities.conjugated_upper_right_numerator() is cached[3]
        assert terms_of(cached) == before


# x1 -> x2*y1*z1/(y2*z2) makes DELTA the square of x2*y1*z1.
SHARED_ASSIGNMENT = {"x1": X2 * Y1 * Z1 / (Y2 * Z2)}
SHARED_ROOT = X2 * Y1 * Z1


class TestSharedSubstitution:
    @given(st.lists(shortcut_elems, min_size=1, max_size=4))
    @settings(max_examples=100, derandomize=True)
    def test_reuse_matches_one_shot_and_leaves_operands_alone(self, values):
        operands = (SHARED_ASSIGNMENT["x1"], SHARED_ROOT, *values)
        before = terms_of(operands)
        sub = Substitution(SHARED_ASSIGNMENT)
        for r_image in (SHARED_ROOT, -SHARED_ROOT):
            for value in values + values:
                one_shot = substitute(value, SHARED_ASSIGNMENT, r_image)
                assert substitute(value, sub, r_image).terms == one_shot.terms
        assert terms_of(operands) == before

    def test_every_root_image_is_checked_after_a_consistent_one(self):
        sub = Substitution(SHARED_ASSIGNMENT)
        value = (X1 + Y1 * R) / Z1
        consistent = substitute(value, sub, SHARED_ROOT)
        for wrong in (X2 * Y2 * Z1, SHARED_ROOT * 2, ExtElem(0)):
            with pytest.raises(InconsistentRootImage):
                substitute(value, sub, wrong)
            with pytest.raises(InconsistentRootImage):
                sub(value, wrong)
        assert substitute(value, sub, SHARED_ROOT) == consistent

    def test_a_wrong_root_image_is_rejected_each_time_it_is_passed(self):
        sub = Substitution(SHARED_ASSIGNMENT)
        wrong = SHARED_ROOT * 2
        for _ in range(2):
            with pytest.raises(InconsistentRootImage):
                sub(X1, wrong)


# ---------------------------------------------------------------------------
# The packed keys hold doubled exponents in [LOW, HIGH]: ordinary exponents
# in [-2^30, 2^30 - 1].  Past the range every operation raises; it never
# returns an element whose key aliases another.

LOW, HIGH = -(2**31), 2**31 - 1
TOP = 2**30 - 1  # the largest ordinary exponent
edge_exponents = st.sampled_from((-(2**30), -(2**30) + 1, -1, 0, 1, TOP - 1, TOP))
edge_monomials = st.tuples(*([edge_exponents] * 6))
edge_units = st.builds(
    lambda mono, sign, odd: elem(q={mono: sign}) if odd else elem({mono: sign}),
    edge_monomials,
    st.sampled_from((1, -1)),
    st.booleans(),
)


def in_range(pq: tuple[dict, dict]) -> bool:
    """Every doubled exponent of the split form (p, q) lies in [LOW, HIGH]."""
    p, q = pq
    return all(
        LOW <= 2 * e + odd <= HIGH for odd, part in ((0, p), (1, q)) for m in part for e in m
    )


class TestKeyRange:
    def test_the_error_is_an_overflow_error(self):
        assert issubclass(ExponentOutOfRange, OverflowError)

    def test_the_largest_power_is_formed_and_one_past_it_raises(self):
        assert doubled(X1 ** TOP) == {(2 * TOP, 0, 0, 0, 0, 0): 1}
        assert doubled(R ** HIGH) == {(HIGH,) * 6: 1}
        for past in (lambda: X1 ** (TOP + 1), lambda: X1 ** TOP * X1, lambda: R ** HIGH * R):
            with pytest.raises(ExponentOutOfRange):
                past()

    def test_the_inverse_at_the_lower_edge_raises(self):
        # z2 fills the packed int's highest field, whose underflow makes it negative
        for var in (X1, Z2):
            bottom = var ** -(2**30)
            assert set(doubled(bottom)) == {tuple(LOW if e else 0 for e in _unpack(*var.terms))}
            for past in (bottom.inv, lambda: 1 / bottom, lambda: bottom / var):
                with pytest.raises(ExponentOutOfRange):
                    past()

    @pytest.mark.parametrize("key", [(LOW,) * 6, (HIGH,) * 6, (LOW, 0, 0, 0, 0, HIGH - 1)])
    def test_a_key_at_the_edges_is_kept(self, key):
        assert doubled(from_doubled({key: 3})) == {key: 3}

    @given(
        ext_elems(edge_monomials),
        st.one_of(ext_elems(edge_monomials), laurent_elems),
        st.one_of(edge_units, units()),
    )
    @settings(max_examples=300, derandomize=True)
    def test_near_the_edges_a_result_is_exact_or_raises(self, a, b, u):
        product = ref_ext_mul(split(a), split(b))
        inverse = ref_ext_inv(split(u))
        quotient = ref_ext_mul(split(a), inverse)
        for operation, expected, representable in (
            (lambda: a * b, product, in_range(product)),
            (u.inv, inverse, in_range(inverse)),
            # a / u forms u's inverse first
            (lambda: a / u, quotient, in_range(inverse) and in_range(quotient)),
        ):
            if representable:
                assert split(operation()) == expected
            else:
                with pytest.raises(ExponentOutOfRange):
                    operation()

    def test_a_substitution_image_at_the_edge_is_exact_and_past_it_raises(self):
        sub, root = Substitution(TestSubstitute.EQUAL_X_1), TestSubstitute.EQUAL_X_1_ROOT
        assert sub(X1 ** TOP, root) == X2 ** TOP
        assert sub(Z1 ** TOP / (Y1 * Z2) * R, -root) == (Y1 * Z2 / Y2) ** TOP / (Y1 * Z2) * -root
        for value in (X1 ** TOP * X2, Z1 ** -TOP / Y1 ** 2, X1 ** TOP * R):
            with pytest.raises(ExponentOutOfRange):
                sub(value, root)

    def test_a_substitution_that_would_wrap_a_field_raises(self):
        # x1 -> x1 * y1^(2^15) sends x1^(2^17) to y1^(2^32), one carry past
        # the y1 field: the guard bits alone would read a y2 key there
        sub = Substitution({"x1": X1 * Y1 ** 2**15})
        root = R * Y1 ** 2**14
        assert sub(X1 ** 2**14, root) == X1 ** 2**14 * Y1 ** 2**29
        with pytest.raises(ExponentOutOfRange):
            sub(X1 ** 2**17, root)
        # the bound is per term, not per image: moves that would cancel
        # are refused once they could reach 2^31 in all
        cancelling = Substitution({"x1": X1 * Y1 ** 2**15, "x2": X2 * Y1 ** -(2**15)})
        with pytest.raises(ExponentOutOfRange):
            cancelling(X1 ** 2**16 * X2 ** 2**16, R)
