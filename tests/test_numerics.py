"""Branch conventions and tolerance semantics of the complex helpers."""

import cmath
import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeg7.numerics import (
    VERDICT_TOL,
    approx_eq,
    from_polar,
    is_finite,
    principal_sqrt,
)

nonzero_complex = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


class TestPrincipalSqrt:
    @pytest.mark.parametrize(
        "z, expected",
        [
            (4, 2),
            (-1, 1j),
            (2j, 1 + 1j),
            (-2j, 1 - 1j),
            (1, 1),
            (0, 0),
        ],
    )
    def test_reference_values(self, z, expected):
        assert cmath.isclose(principal_sqrt(z), expected, rel_tol=0, abs_tol=1e-15)

    def test_negative_real_gets_positive_imaginary_root(self):
        # The branch cut maps -rho to +i*sqrt(rho), never -i*sqrt(rho).
        for rho in (1.0, 2.0, 0.25, 9.0, 1e6):
            root = principal_sqrt(-rho)
            assert root.real == 0.0
            assert root.imag == pytest.approx(math.sqrt(rho))

    @given(nonzero_complex)
    @settings(max_examples=300, derandomize=True)
    def test_square_of_root_recovers_input(self, z):
        root = principal_sqrt(z)
        assert cmath.isclose(root * root, z, rel_tol=1e-12)

    @given(nonzero_complex)
    @settings(max_examples=300, derandomize=True)
    def test_root_lies_in_right_half_plane(self, z):
        # Exact half-plane membership: positive real part, or on the
        # imaginary axis with nonnegative imaginary part.  (A phase
        # comparison would be unreliable: atan2 rounds to exactly -pi/2
        # for inputs just below the negative real axis.)
        root = principal_sqrt(z)
        assert root.real > 0 or (root.real == 0 and root.imag >= 0)

    def test_root_of_square_identity_holds_only_on_right_half_plane(self):
        # sqrt(z^2) == z exactly when arg(z) is in (-pi/2, pi/2] ...
        for z in (1, 1 + 1j, 2 - 3j, 1j, 0.5):
            assert cmath.isclose(principal_sqrt(z * z), z, rel_tol=1e-12)
        # ... and fails outside: arg(z) = 3*pi/4 lands on the other sheet.
        z = cmath.exp(0.75j * math.pi)
        assert cmath.isclose(principal_sqrt(z * z), -z, rel_tol=1e-12)
        assert not cmath.isclose(principal_sqrt(z * z), z, rel_tol=1e-12)

    @given(nonzero_complex)
    @settings(max_examples=300, derandomize=True)
    def test_matches_cmath_except_on_the_cut(self, z):
        ours = principal_sqrt(z)
        theirs = cmath.sqrt(z)
        if theirs.real == 0.0 and theirs.imag < 0.0:
            assert ours == -theirs
        else:
            assert ours == theirs


def polar_formula(modulus: float, argument: float) -> complex:
    return complex(modulus * math.cos(argument), modulus * math.sin(argument))


def part_bits(z: complex) -> tuple:
    """Both parts in hex, so that 0.0 and -0.0 differ."""
    return z.real.hex(), z.imag.hex()


MODULI = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300, 1e308, sys.float_info.max)
ARGUMENTS = (0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 1.0, -2.5, 5e-324)


class TestPolar:
    # from_polar is cmath.rect: at finite moduli it must give the written-out
    # formula's parts bit for bit, signed zeros included.
    def test_named_points_match_the_formula_bit_for_bit(self):
        mismatches = [
            (modulus, argument)
            for modulus, argument in itertools.product(MODULI, ARGUMENTS)
            if part_bits(from_polar(modulus, argument))
            != part_bits(polar_formula(modulus, argument))
        ]
        assert mismatches == []

    @given(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=2000, derandomize=True)
    def test_finite_moduli_match_the_formula_bit_for_bit(self, modulus, argument):
        assert part_bits(from_polar(modulus, argument)) == part_bits(
            polar_formula(modulus, argument)
        )

    @given(nonzero_complex)
    @settings(max_examples=300, derandomize=True)
    def test_round_trip(self, z):
        assert cmath.isclose(from_polar(abs(z), cmath.phase(z)), z, rel_tol=1e-12)


class TestApproxEq:
    def test_scale_relative_comparison(self):
        # Relative to max(1, |a|, |b|): at magnitude 1e6 an absolute gap of
        # 1e-4 sits well inside a 1e-9 relative tolerance.
        assert approx_eq(1e6, 1e6 + 1e-4, 1e-9)
        assert not approx_eq(1.0, 1.0 + 1e-4, 1e-9)

    def test_small_numbers_compared_absolutely(self):
        # Below magnitude 1 the scale floor is 1, so the comparison is
        # effectively absolute.
        assert approx_eq(1e-12, 2e-12, 1e-9)
        assert not approx_eq(1e-6, 2e-6, 1e-9)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            approx_eq(1, 1, 0.0)
        with pytest.raises(ValueError):
            approx_eq(1, 1, -1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), -math.inf])
    def test_rejects_nan_and_negative_infinite_tolerance_as_nonpositive(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            approx_eq(1, 1, tol)

    def test_rejects_infinite_tolerance(self):
        # an infinite bound would make any two finite values equal
        with pytest.raises(ValueError, match="^tolerance must be finite$"):
            approx_eq(1, 1000, math.inf)

    @given(nonzero_complex)
    @settings(max_examples=200, derandomize=True)
    def test_reflexive(self, z):
        assert approx_eq(z, z, VERDICT_TOL)

    @given(nonzero_complex, nonzero_complex)
    @settings(max_examples=200, derandomize=True)
    def test_symmetric(self, a, b):
        assert approx_eq(a, b, VERDICT_TOL) == approx_eq(b, a, VERDICT_TOL)


class TestIsFinite:
    def test_accepts_ordinary_values(self):
        assert is_finite(0)
        assert is_finite(1 + 2j)
        assert is_finite(-1e300)

    def test_rejects_nan_and_infinity(self):
        assert not is_finite(complex("nan"))
        assert not is_finite(complex("inf"))
        assert not is_finite(complex(0, float("inf")))
