"""Construction of the generator triple and its defining relations."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeg7.matrix2 import Mat2
from heckeg7.numerics import approx_eq, principal_sqrt
from heckeg7.representation import (
    GeneratorTriple,
    InvalidParams,
    Params,
    braid_residual,
    build_equal_x,
    build_general,
    conjugator,
    generators,
    hecke_residuals,
)

RELATION_TOL = 1e-12


def positive_params(rng: random.Random) -> Params:
    return Params(*(rng.uniform(0.1, 10.0) for _ in range(6)))


def complex_params(rng: random.Random) -> Params:
    def draw() -> complex:
        modulus = 10.0 ** rng.uniform(-1, 1)
        argument = math.pi - rng.random() * 2 * math.pi
        return cmath.rect(modulus, argument)

    return Params(*(draw() for _ in range(6)))


def assert_matrix_close(m: Mat2, entries, tol=1e-12) -> None:
    (a, b), (c, d) = entries
    for got, want in ((m.a, a), (m.b, b), (m.c, c), (m.d, d)):
        assert approx_eq(got, want, tol), f"{got!r} != {want!r}"


class TestParams:
    def test_validate_rejects_zero(self):
        with pytest.raises(InvalidParams, match="z1"):
            Params(1, 1, 1, 1, 0, 1).validate()

    def test_validate_rejects_nonfinite(self):
        with pytest.raises(InvalidParams, match="x2"):
            Params(1, float("inf"), 1, 1, 1, 1).validate()

    def test_validate_checks_optional_thirds(self):
        with pytest.raises(InvalidParams, match="y3"):
            Params(1, 1, 1, 1, 1, 1, y3=0).validate()
        Params(1, 1, 1, 1, 1, 1, y3=2, z3=3).validate()

    def test_construction_validates(self):
        with pytest.raises(InvalidParams, match="x1 must be nonzero"):
            Params(0, 1, 1, 1, 1, 1)
        with pytest.raises(InvalidParams, match="z2 is not finite"):
            Params(1, 1, 1, 1, 1, complex("nan"))
        with pytest.raises(InvalidParams, match="z3 is not finite"):
            Params(1, 1, 1, 1, 1, 1, z3=float("-inf"))

    def test_as_dict_round_trip(self):
        p = Params(1, 2, 3, 4, 5, 6)
        d = p.as_dict()
        assert d["x1"] == 1 and d["z2"] == 6
        assert "y3" not in d


class TestGeneratorEntries:
    def test_all_ones_triple(self):
        g = build_equal_x(Params(1, 1, 1, 1, 1, 1))
        assert_matrix_close(g.s2, ((2, 1), (-1, 0)))
        assert_matrix_close(g.s3, ((0, -1), (1, 2)))
        assert g.s3.c == 1

    def test_equal_x_with_two_z_values(self):
        # x = (1, 1), y = (1, 1), z = (4, 1): the root is 2 and the top-right
        # entry of s1 is 2/1 - 5*1/2 = -1/2.
        g = build_equal_x(Params(1, 1, 1, 1, 4, 1))
        assert g.s3.c == pytest.approx(2)
        assert g.s1.b == pytest.approx(-0.5)

    def test_equal_x_with_larger_moduli(self):
        # x2 = 1, y = (2, 2), z = (8, 2): root 8, top-right 4/4 - 10/8 = -1/4.
        g = build_equal_x(Params(1, 1, 2, 2, 8, 2))
        assert g.s3.c == pytest.approx(8)
        assert g.s1.b == pytest.approx(-0.25)

    def test_s2_eigenvalues_are_y1_y2(self):
        g = build_equal_x(Params(1, 1, 2, 3, 1, 1))
        assert_matrix_close(g.s2, ((5, 1), (-6, 0)))
        # Characteristic data: trace y1+y2, determinant y1*y2.
        assert g.s2.a + g.s2.d == pytest.approx(5)
        assert g.s2.a * g.s2.d - g.s2.b * g.s2.c == pytest.approx(6)

    def test_s2_satisfies_its_own_characteristic_polynomial(self):
        g = build_equal_x(Params(1, 1, 1, 2, 1, 1))
        assert_matrix_close(g.s2, ((3, 1), (-2, 0)))
        square = g.s2 * g.s2
        assert_matrix_close(square, ((7, 3), (-6, -2)))
        rebuilt = (g.s2 + g.s2 + g.s2).minus_scalar(2)
        assert (square - rebuilt).maxmod() < 1e-14

    def test_r_sign_flips_the_root(self):
        p = Params(1, 1, 1, 1, 4, 1)
        plus = build_equal_x(p, r_sign=1)
        minus = build_equal_x(p, r_sign=-1)
        assert plus.s3.c == 2
        assert minus.s3.c == -plus.s3.c

    def test_general_uses_principal_root_of_full_product(self):
        p = Params(2, 3, 5, 7, 11, 13)
        g = build_general(p)
        assert approx_eq(g.s3.c, principal_sqrt(2 * 3 * 5 * 7 * 11 * 13), 1e-15)
        assert g.s1.a == 2 and g.s1.d == 3 and g.s1.c == 0

    def test_equal_x_matches_general_when_x1_equals_x2(self):
        rng = random.Random(7)
        for _ in range(20):
            p = complex_params(rng)
            q = Params(p.x2, p.x2, p.y1, p.y2, p.z1, p.z2)
            a = build_general(q)
            b = build_equal_x(q)
            for left, right in zip(a, b):
                assert (left - right).maxmod() < 1e-12 * max(1.0, left.maxmod())

    def test_build_general_is_generators_at_the_principal_root(self):
        p = Params(1, 2, 3, 4, 5, 6)
        r = principal_sqrt(720)
        assert build_general(p) == generators(*p[:6], r)
        assert build_general(p, -1) == generators(*p[:6], -r)
        assert list(build_general(p)) == [*generators(*p[:6], r)]


nonzero_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=9
).filter(bool)


class TestGeneratorsOverTheRationals:
    """generators is written with + - * / only, so it runs over exact
    fractions too.  z2 is chosen so that DELTA = x1*x2*y1*y2*z1*z2 is the
    square q^2; on both branches r = +-q the defining relations and the
    central element s1*s2*s3 = r*I hold exactly."""

    @given(*[nonzero_fractions] * 6)
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_relations_and_central_element_hold_exactly(self, x1, x2, y1, y2, z1, q):
        z2 = q * q / (x1 * x2 * y1 * y2 * z1)
        zero = Mat2(0, 0, 0, 0)
        for r in (q, -q):
            g = generators(x1, x2, y1, y2, z1, z2, r)
            assert all(type(e) is Fraction for m in g for e in m)
            s1, s2, s3 = g
            product = s1 * s2 * s3
            assert product == s2 * s3 * s1 == s3 * s1 * s2
            assert product == Mat2(r, 0, 0, r)
            for m, e1, e2 in ((s1, x1, x2), (s2, y1, y2), (s3, z1, z2)):
                assert m.minus_scalar(e1) * m.minus_scalar(e2) == zero


class TestBuilderSafetyChecks:
    def test_entry_overflow_rejected(self):
        with pytest.raises(
            InvalidParams, match="^parameter magnitudes overflow the matrix entries$"
        ):
            build_general(Params(1e200, 1e200, 1e-200, 1, 1, 1))

    @pytest.mark.parametrize("build", [build_general, build_equal_x])
    @pytest.mark.parametrize("r_sign", [1, -1])
    def test_product_underflow_rejected(self, build, r_sign):
        with pytest.raises(InvalidParams, match="^parameter product underflows to zero$"):
            build(Params(*[1e-60] * 6), r_sign)

    @pytest.mark.parametrize("build", [build_general, build_equal_x])
    def test_bad_r_sign_rejected(self, build):
        with pytest.raises(InvalidParams, match=r"^r_sign must be \+1 or -1, got 2$"):
            build(Params(1, 2, 3, 4, 5, 6), 2)


class TestRelations:
    @pytest.mark.parametrize("r_sign", [1, -1])
    def test_braid_relation_on_random_complex_points(self, r_sign):
        rng = random.Random(11)
        for _ in range(50):
            p = complex_params(rng)
            g = build_general(p, r_sign)
            assert braid_residual(g) < RELATION_TOL

    @pytest.mark.parametrize("r_sign", [1, -1])
    def test_eigenvalue_relations_on_random_complex_points(self, r_sign):
        rng = random.Random(13)
        for _ in range(50):
            p = complex_params(rng)
            g = build_general(p, r_sign)
            for value in hecke_residuals(g, p).values():
                assert value < RELATION_TOL

    def test_equal_x_relations(self):
        rng = random.Random(17)
        for _ in range(50):
            p = complex_params(rng)
            q = Params(p.x2, p.x2, p.y1, p.y2, p.z1, p.z2)
            g = build_equal_x(q)
            assert braid_residual(g) < RELATION_TOL
            for value in hecke_residuals(g, q).values():
                assert value < RELATION_TOL

    def test_cubic_rows_appear_and_vanish_when_thirds_supplied(self):
        p = Params(1, 2, 3, 4, 5, 6, y3=9, z3=11)
        g = build_general(p)
        res = hecke_residuals(g, p)
        assert set(res) == {"s1", "s2", "s3", "s2_cubic", "s3_cubic"}
        # The cubic has the quadratic as a factor, so it vanishes too.
        assert res["s2_cubic"] < RELATION_TOL
        assert res["s3_cubic"] < RELATION_TOL

    def test_corrupted_triple_breaks_the_braid_relation(self):
        p = Params(1, 2, 3, 4, 5, 6)
        g = build_general(p)
        bad = GeneratorTriple(
            s1=Mat2(g.s1.a, g.s1.b + 0.05, g.s1.c, g.s1.d),
            s2=g.s2,
            s3=g.s3,
        )
        assert braid_residual(bad) > 0.01

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, derandomize=True)
    def test_relations_hold_across_seeds(self, seed):
        p = complex_params(random.Random(seed))
        g = build_general(p)
        assert braid_residual(g) < RELATION_TOL
        assert max(hecke_residuals(g, p).values()) < RELATION_TOL


def adjugate(m: Mat2) -> Mat2:
    return Mat2(m.d, -m.b, -m.c, m.a)


class TestConjugator:
    def test_reference_point(self):
        # x = (1, 3), y = z = (1, 1): root sqrt(3), top-right of s1 is
        # 2 - 6/sqrt(3) = 2 - 2*sqrt(3), and x2 - x1 = 2.
        p = Params(1, 3, 1, 1, 1, 1)
        g = build_general(p)
        t = conjugator(g.s1, p.x1, p.x2)
        assert t.a == 2 and t.c == 0 and t.d == 2
        assert t.b == pytest.approx(2 - 2 * math.sqrt(3))

    def test_conjugation_diagonalizes_s1(self):
        rng = random.Random(19)
        for _ in range(25):
            p = complex_params(rng)
            if abs(p.x1 - p.x2) < 1e-3:
                continue
            g = build_general(p)
            t = conjugator(g.s1, p.x1, p.x2)
            # adj(T)*s1*T = det(T)*diag(x1, x2), det(T) = (x2 - x1)^2
            det_t = (p.x2 - p.x1) ** 2
            conj = adjugate(t) * g.s1 * t
            assert abs(conj.b) < 1e-9 * max(1.0, g.s1.maxmod()) * t.maxmod() ** 2
            assert abs(conj.c) == 0.0
            assert approx_eq(conj.a, det_t * p.x1, 1e-9)
            assert approx_eq(conj.d, det_t * p.x2, 1e-9)

    def test_conjugated_s2_lower_left_is_minus_x1_y1_y2(self):
        p = Params(1, 3, 1, 1, 1, 1)
        g = build_general(p)
        t = conjugator(g.s1, p.x1, p.x2)
        conj = adjugate(t) * g.s2 * t
        assert approx_eq(conj.c, -4 * p.x1 * p.y1 * p.y2, 1e-12)
