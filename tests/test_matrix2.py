"""Eigen-decomposition and common-eigenvector oracle for 2x2 matrices."""

import cmath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeg7.matrix2 import (
    JORDAN,
    SCALAR,
    SEMISIMPLE,
    Mat2,
    common_eigenvector,
    cross,
    eigen_directions,
    normalize_direction,
    parallel,
    vec_maxmod,
)
from heckeg7.numerics import VERDICT_TOL, approx_eq
from oracle_reference import bits, ref_eigen_directions, ref_normalize_direction

entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)
matrices = st.builds(Mat2, entries, entries, entries, entries)

# Nearly defective: eigenvalue gap 2*sqrt(100*2e-8) ~ 2.8e-3, far above
# tol * maxmod = 1e-7, so semisimple with two close directions.
NEAR_JORDAN = Mat2(1, 100, 2e-8, 1)


def assert_eigenpair(m: Mat2, value: complex, direction) -> None:
    image = m.apply(direction)
    expected = (value * direction[0], value * direction[1])
    assert approx_eq(image[0], expected[0], VERDICT_TOL)
    assert approx_eq(image[1], expected[1], VERDICT_TOL)


def det(m: Mat2) -> complex:
    return m.a * m.d - m.b * m.c


class TestArithmetic:
    def test_product(self):
        a = Mat2(1, 2, 3, 4)
        b = Mat2(5, 6, 7, 8)
        p = a * b
        assert (p.a, p.b, p.c, p.d) == (19, 22, 43, 50)

    def test_sum_is_entrywise(self):
        # not the tuple concatenation a NamedTuple inherits
        m = Mat2(1, 2, 3, 4)
        assert m + m == Mat2(2, 4, 6, 8)
        with pytest.raises(TypeError):
            2 * m

    @given(matrices, matrices)
    @settings(max_examples=200, derandomize=True)
    def test_det_is_multiplicative(self, a, b):
        # Error scales with the entry magnitudes of both factors (det of the
        # product suffers cancellation), so bound it by those, not by the
        # possibly tiny result.
        lhs = det(a * b)
        rhs = det(a) * det(b)
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

    @given(entries, entries)
    @settings(max_examples=300, derandomize=True)
    def test_normalize_direction_matches_reference(self, v0, v1):
        if v0 == 0 and v1 == 0:
            with pytest.raises(ValueError, match="zero vector"):
                normalize_direction((v0, v1))
            return
        assert bits(normalize_direction((v0, v1))) == bits(ref_normalize_direction((v0, v1)))

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

    @pytest.mark.parametrize("eps, kind", [(1e-19, JORDAN), (1e-17, SEMISIMPLE)])
    def test_jordan_means_an_eigenvalue_gap_within_tol(self, eps, kind):
        # gap 2*sqrt(eps) against tol * maxmod = 1e-9; either way the
        # matrix keeps an eigendirection that passes its own test
        m = Mat2(1, 1, eps, 1)
        rep = eigen_directions(m, VERDICT_TOL)
        assert rep.kind == kind
        assert all(parallel(m.apply(v), v, VERDICT_TOL) for v in rep.directions)

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

    def test_overflowing_eigenvalue_raises_overflow_error(self):
        # every entry is finite, but (a - d) ** 2 is NaN: the kernel
        # candidates carry a NaN modulus and no usable pivot
        m = Mat2(1e160 + 1e160j, 2, 0, 1)
        with pytest.raises(OverflowError, match="^eigenvalue is not finite$"):
            eigen_directions(m, VERDICT_TOL)

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
    @example(NEAR_JORDAN)
    @settings(max_examples=200, derandomize=True)
    def test_single_matrix_always_has_an_eigenvector(self, m):
        found = common_eigenvector([m], VERDICT_TOL)
        assert found is not None


# ---------------------------------------------------------------------------
# common_eigenvector against a reference that tests every candidate against
# the matrices in list order, with the eigen-classification kept verbatim in
# oracle_reference

def reference_common_eigenvector(matrices, tol):
    for m in matrices:
        report = ref_eigen_directions(m, tol)
        if report.kind != SCALAR:
            break
    else:
        return (1.0 + 0.0j, 0.0 + 0.0j)
    for v in report.directions:
        if all(parallel(m.apply(v), v, tol) for m in matrices):
            return ref_normalize_direction(v)
    return None


# Eigendirections drawn from a small pool, so that families often share one.
POOL = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2j), (3, 1 + 1j))
eigenvalues = st.complex_numbers(
    min_magnitude=0.25, max_magnitude=8, allow_nan=False, allow_infinity=False
)
two_directions = st.lists(st.sampled_from(POOL), min_size=2, max_size=2, unique=True)


def in_basis(directions, m: Mat2) -> Mat2:
    """P * m * P^-1, P's columns the two directions."""
    (u0, u1), (v0, v1) = directions
    p = Mat2(u0, v0, u1, v1)
    d = det(p)
    return p * m * Mat2(v1 / d, -v0 / d, -u1 / d, u0 / d)


scalar_matrices = st.builds(
    lambda lam, nudge: Mat2(lam, nudge, 0, lam + nudge),
    eigenvalues,
    st.sampled_from((0.0, 1e-13, 1e-11)),
)
semisimple_matrices = st.builds(
    lambda d, l1, l2: in_basis(d, Mat2(l1, 0, 0, l2)), two_directions, eigenvalues, eigenvalues
)
jordan_matrices = st.one_of(
    st.builds(
        lambda d, lam, b: in_basis(d, Mat2(lam, b, 0, lam)),
        two_directions, eigenvalues, st.sampled_from((1.0, 1e3)),
    ),
    # nearly defective: Jordan when the eigenvalue gap 2*sqrt(b*eps) is
    # within tol * maxmod (eps = 1e-20), semisimple with two close
    # directions otherwise
    st.builds(
        lambda lam, b, eps: Mat2(lam, b, eps, lam),
        eigenvalues, st.sampled_from((1.0, 100.0)),
        st.sampled_from((1e-20, 1e-12, 1e-9, 2e-8)),
    ),
)
non_scalar_matrices = st.one_of(semisimple_matrices, jordan_matrices, matrices)


@st.composite
def families(draw):
    """Scalar matrices up to the first non-scalar one, at any position or
    none at all, then matrices of any kind."""
    first = draw(st.integers(0, 3))
    if draw(st.integers(0, 9)) == 0:
        return [draw(scalar_matrices) for _ in range(first + 1)]
    family = [draw(scalar_matrices) for _ in range(first)]
    family.append(draw(non_scalar_matrices))
    any_kind = st.one_of(scalar_matrices, non_scalar_matrices)
    family += [draw(any_kind) for _ in range(draw(st.integers(0, 3 - first)))]
    return family


def first_non_scalar(family) -> int | None:
    kinds = [eigen_directions(m, VERDICT_TOL).kind for m in family]
    return next((k for k, kind in enumerate(kinds) if kind != SCALAR), None)


class TestCommonEigenvectorMatchesReference:
    @given(families())
    @settings(max_examples=400, derandomize=True)
    def test_hypothesis_families(self, family):
        expected = bits(reference_common_eigenvector(family, VERDICT_TOL))
        assert bits(common_eigenvector(family, VERDICT_TOL)) == expected
        assert bits(common_eigenvector(tuple(family), VERDICT_TOL)) == expected
        for m in family:
            assert bits(eigen_directions(m, VERDICT_TOL)) == bits(
                ref_eigen_directions(m, VERDICT_TOL)
            )

    I2, I3 = Mat2(2, 0, 0, 2), Mat2(3, 0, 0, 3)
    UPPER = Mat2(1, 1, 0, 2)  # candidates (1, 1), then (1, 0)
    NEAR_JORDAN = NEAR_JORDAN

    @pytest.mark.parametrize(
        "family, first, expected",
        [
            # first non-scalar at 0, 1 and 2; UPPER's first candidate (1, 1)
            # is rejected where a diagonal matrix follows
            ([UPPER, Mat2(3, 0, 0, 4), Mat2(2, 7, 0, 9)], 0, (1, 0)),
            ([I2, UPPER, Mat2(5, 0, 0, 6)], 1, (1, 0)),
            ([I2, I3, UPPER], 2, (1, 1)),
            ([UPPER, Mat2(4, 0, -1, 5)], 0, (1, 1)),
            # a Jordan first matrix
            ([Mat2(2, 1, 0, 2), Mat2(3, 5, 0, 4)], 0, (1, 0)),
            # all scalar
            ([I2, I3, Mat2(4, 0, 0, 4)], None, (1, 0)),
            # both candidates pass the matrix they came from, fail another
            ([UPPER, Mat2(0, -1, 1, 0)], 0, None),
            ([I2, UPPER, I3, Mat2(0, -1, 1, 0)], 1, None),
            # a nearly defective matrix keeps its first direction
            ([I2, NEAR_JORDAN, I3], 1, (1, 1.4142135623731456e-05)),
        ],
    )
    def test_named_families(self, family, first, expected):
        assert first_non_scalar(family) == first
        found = common_eigenvector(family, VERDICT_TOL)
        assert bits(found) == bits(reference_common_eigenvector(family, VERDICT_TOL))
        assert found == expected

    def test_near_jordan_candidates_pass_every_matrix(self):
        report = eigen_directions(self.NEAR_JORDAN, VERDICT_TOL)
        assert report.kind == SEMISIMPLE and len(report.directions) == 2
        for v in report.directions:
            for m in (self.NEAR_JORDAN, self.I2, self.I3):
                assert parallel(m.apply(v), v, VERDICT_TOL)
