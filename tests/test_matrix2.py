"""Eigen-decomposition and common-eigenvector oracle for 2x2 matrices."""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeg7.matrix2 import (
    JORDAN,
    SCALAR,
    SEMISIMPLE,
    Mat2,
    SingularMatrix,
    common_eigenvector,
    cross,
    eigen_directions,
    inverse,
    normalize_direction,
    parallel,
    vec_maxmod,
)
from heckeg7.numerics import VERDICT_TOL, approx_eq

entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)
matrices = st.builds(Mat2, entries, entries, entries, entries)


def assert_eigenpair(m: Mat2, value: complex, direction) -> None:
    image = m.apply(direction)
    expected = (value * direction[0], value * direction[1])
    assert approx_eq(image[0], expected[0], VERDICT_TOL)
    assert approx_eq(image[1], expected[1], VERDICT_TOL)


class TestArithmetic:
    def test_product_and_trace_and_det(self):
        a = Mat2(1, 2, 3, 4)
        b = Mat2(5, 6, 7, 8)
        p = a * b
        assert (p.a, p.b, p.c, p.d) == (19, 22, 43, 50)
        assert a.trace() == 5
        assert a.det() == -2

    def test_identity_and_scale(self):
        m = Mat2(1, 2, 3, 4)
        i = Mat2.identity()
        assert (m * i - m).maxmod() == 0
        assert (i * m - m).maxmod() == 0
        half = m.scale(0.5)
        assert (half.a, half.d) == (0.5, 2.0)

    def test_inverse_round_trip(self):
        m = Mat2(1, 2, 3, 4)
        inv = inverse(m, VERDICT_TOL)
        assert (m * inv - Mat2.identity()).maxmod() < 1e-14
        assert (inv * m - Mat2.identity()).maxmod() < 1e-14

    def test_inverse_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            inverse(Mat2(1, 2, 2, 4), VERDICT_TOL)

    @given(matrices, matrices)
    @settings(max_examples=200, derandomize=True)
    def test_det_is_multiplicative(self, a, b):
        # Error scales with the entry magnitudes of both factors (det of the
        # product suffers cancellation), so bound it by those, not by the
        # possibly tiny result.
        lhs = (a * b).det()
        rhs = a.det() * b.det()
        scale = max(1.0, a.maxmod() ** 2 * b.maxmod() ** 2)
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestVectors:
    def test_cross_and_parallel(self):
        assert cross((1, 2), (2, 4)) == 0
        assert parallel((1, 2), (-3, -6), VERDICT_TOL)
        assert not parallel((1, 2), (2, 1), VERDICT_TOL)

    def test_normalize_direction_pivots_on_largest_entry(self):
        v = normalize_direction((2j, 1))
        assert v[0] == 1
        assert cmath.isclose(v[1], -0.5j)
        w = normalize_direction((1, -4))
        assert w[1] == 1
        assert cmath.isclose(w[0], -0.25)

    def test_vec_maxmod(self):
        assert vec_maxmod((3, -4j)) == 4.0


class TestEigenDirections:
    def test_diagonal_matrix(self):
        rep = eigen_directions(Mat2(2, 0, 0, 5), VERDICT_TOL)
        assert rep.kind == SEMISIMPLE
        values = sorted(rep.eigenvalues, key=lambda z: z.real)
        assert cmath.isclose(values[0], 2)
        assert cmath.isclose(values[1], 5)
        for value, direction in zip(rep.eigenvalues, rep.directions):
            assert_eigenpair(Mat2(2, 0, 0, 5), value, direction)

    def test_scalar_matrix(self):
        rep = eigen_directions(Mat2(3, 0, 0, 3), VERDICT_TOL)
        assert rep.kind == SCALAR
        assert cmath.isclose(rep.eigenvalues[0], 3)

    def test_jordan_block_has_one_direction(self):
        rep = eigen_directions(Mat2(2, 1, 0, 2), VERDICT_TOL)
        assert rep.kind == JORDAN
        assert len(rep.directions) == 1
        assert_eigenpair(Mat2(2, 1, 0, 2), rep.eigenvalues[0], rep.directions[0])

    def test_principal_root_ordering_of_eigenvalues(self):
        # Eigenvalues come out as (tr +/- principal_sqrt(disc)) / 2 with the
        # plus root first, so the order is deterministic.
        rep = eigen_directions(Mat2(0, 1, 1, 0), VERDICT_TOL)
        assert cmath.isclose(rep.eigenvalues[0], 1)
        assert cmath.isclose(rep.eigenvalues[1], -1)

    def test_candidate_and_pivot_ties_pick_the_first(self):
        # In [[a, b], [b, a]] the two kernel candidates (b, lam - a) and
        # (lam - d, c) always tie in size; they differ only by rounding, so
        # the exact result shows which candidate and which pivot were taken.
        a, b = -2.19 + 2.08j, 1.58 - 1.47j
        rep = eigen_directions(Mat2(a, b, b, a), VERDICT_TOL)
        assert rep.directions == (
            (1 + 0j, 1 + 0j),
            (1 + 0j, -1 - 7.532915547238733e-17j),
        )

    @given(matrices)
    @settings(max_examples=300, derandomize=True)
    def test_every_reported_pair_satisfies_definition(self, m):
        rep = eigen_directions(m, VERDICT_TOL)
        if rep.kind == SCALAR:
            return
        scale = max(1.0, m.maxmod())
        for value, direction in zip(rep.eigenvalues, rep.directions):
            image = m.apply(direction)
            expected = (value * direction[0], value * direction[1])
            err = max(abs(image[0] - expected[0]), abs(image[1] - expected[1]))
            assert err <= 1e-6 * max(scale, abs(value))


class TestCommonEigenvector:
    def test_textbook_pair(self):
        found = common_eigenvector(
            [Mat2(1, 1, 0, 2), Mat2(3, 0, 0, 4)], VERDICT_TOL
        )
        assert found is not None
        assert parallel(found, (1, 0), VERDICT_TOL)

    def test_no_common_direction(self):
        # Rotation-like and diagonal matrices share no eigenvector.
        found = common_eigenvector(
            [Mat2(0, -1, 1, 0), Mat2(1, 0, 0, 2)], VERDICT_TOL
        )
        assert found is None

    def test_all_scalar_family_returns_first_basis_vector(self):
        found = common_eigenvector(
            [Mat2(2, 0, 0, 2), Mat2(3, 0, 0, 3)], VERDICT_TOL
        )
        assert found == (1, 0)

    def test_shared_direction_of_three_matrices(self):
        # All three are upper triangular, so they share the line through e1.
        mats = [Mat2(1, 1, 0, 2), Mat2(3, -1, 0, 5), Mat2(2, 7, 0, 9)]
        found = common_eigenvector(mats, VERDICT_TOL)
        assert found is not None
        assert parallel(found, (1, 0), VERDICT_TOL)
        for m in mats:
            rep = eigen_directions(m, VERDICT_TOL)
            assert any(parallel(found, d, 1e-9) for d in rep.directions)

    @given(matrices)
    @settings(max_examples=200, derandomize=True)
    def test_single_matrix_always_has_an_eigenvector(self, m):
        found = common_eigenvector([m], VERDICT_TOL)
        assert found is not None
