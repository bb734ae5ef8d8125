"""The per-point decide path's tolerance tests and maxima against their
builtin-max forms, bit for bit.

heckeg7.numerics states the rule: for tol > 0, d <= tol*max(1, a, b) is the
chain d <= tol or d <= tol*a or d <= tol*b, and each maximum is the
builtin's own fold, x if x > cur else cur.  oracle_reference keeps the max
forms verbatim.  Each pair must return the same bits, or raise the same
exception with the same message, on entries from a named grid of edge
values (signed zeros, the smallest subnormal, the overflow edge, both
infinities and NaN, in every slot), on ties, on differences exactly at the
bound, and on Hypothesis draws over the grid.

The relation residuals fold their maxima the same way, and Mat2's
operators build their results as records; those are held to their
constructor-and-max forms on the grid too, in every slot, over complex
floats and over the exact ring.  So is the sweep's separation test for
injected draws, a chain of the negated form.
"""

import cmath
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeg7.exact import ExtElem
from heckeg7.irreducibility import theorem_verdict
from heckeg7.matrix2 import (
    Mat2,
    _kernel_direction,
    common_eigenvector,
    eigen_directions,
    parallel,
    vec_maxmod,
)
from heckeg7.numerics import VERDICT_TOL, approx_eq
from heckeg7.representation import GeneratorTriple, _scaled_product_residual, braid_residual
from heckeg7.sweep import _separated
from oracle_reference import (
    bits,
    ref_approx_eq,
    ref_braid_residual,
    ref_common_eigenvector,
    ref_hot_eigen_directions,
    ref_hot_kernel_direction,
    ref_mat2_add,
    ref_mat2_mul,
    ref_mat2_sub,
    ref_maxmod,
    ref_minus_scalar,
    ref_parallel,
    ref_scaled_product_residual,
    ref_separated,
    ref_theorem_verdict,
    ref_vec_maxmod,
)

inf, nan = math.inf, math.nan
GRID = (0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308, inf, -inf, nan)
# The rule holds for tol > 0: the positive grid entries and the default.
# approx_eq and theorem_verdict refuse the others, so they get all of GRID.
TOLS = (5e-324, 1e-300, VERDICT_TOL, 1.0, 1e300, 1.7e308, inf)
COMPLEX_GRID = tuple(complex(re, im) for re in GRID for im in GRID)
REAL_MATRICES = tuple(itertools.starmap(Mat2, itertools.product(GRID, repeat=4)))

parts = st.one_of(st.sampled_from(GRID), st.floats())
values = st.builds(complex, parts, parts)
matrices = st.builds(Mat2, values, values, values, values)
tols = st.one_of(st.sampled_from(TOLS), st.floats(min_value=5e-324, exclude_min=False))


def outcome(fn, *args):
    """fn(*args) as bits, or the type and message of what it raised.

    abs of a complex whose parts are NaN and finite leaves errno as it was,
    and raises OverflowError("absolute value too large") if an earlier
    overflow left ERANGE there (CPython 3.11's _Py_c_abs).  A finite abs
    clears errno first, so that each call starts from the same state."""
    abs(1j)
    try:
        return "returned", bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def assert_same(fn, ref, *args):
    assert outcome(fn, *args) == outcome(ref, *args), args


def tols_at_bound(d, scale):
    """d/scale and its two float neighbours, those in (0, inf): for one of
    them tol*scale == d, as the callers count."""
    t = d / scale
    return [x for x in (math.nextafter(t, 0.0), t, math.nextafter(t, inf)) if 0.0 < x < inf]


def called_as_in_eigen_directions(kernel_direction):
    """kernel_direction(a, b, c, d, |b|, |c|, lam), the moduli taken first:
    abs itself raises OverflowError on the largest entries."""
    return lambda a, b, c, d, lam: kernel_direction(a, b, c, d, abs(b), abs(c), lam)


KERNEL = called_as_in_eigen_directions(_kernel_direction)
REF_KERNEL = called_as_in_eigen_directions(ref_hot_kernel_direction)


class TestMaxima:
    def test_vec_maxmod_on_the_grid(self):
        # NaN first sticks, NaN last is skipped, ties keep the first
        for v in itertools.product(COMPLEX_GRID, repeat=2):
            assert_same(vec_maxmod, ref_vec_maxmod, v)

    def test_kernel_direction_on_the_grid(self):
        for a, b, c, d in itertools.product(GRID, repeat=4):
            for lam in GRID:
                assert_same(KERNEL, REF_KERNEL, a, b, c, d, lam)

    def test_kernel_direction_on_complex_entries(self):
        rng = random.Random("kernel-direction")
        for _ in range(20000):
            a, b, c, d, lam = (rng.choice(COMPLEX_GRID) for _ in range(5))
            assert_same(KERNEL, REF_KERNEL, a, b, c, d, lam)

    @given(values, values, values, values, values)
    @settings(max_examples=300, derandomize=True)
    def test_kernel_direction_hypothesis(self, a, b, c, d, lam):
        assert_same(KERNEL, REF_KERNEL, a, b, c, d, lam)


class TestApproxEq:
    def test_on_the_grid(self):
        for a, b in itertools.product(COMPLEX_GRID, repeat=2):
            for tol in GRID:
                assert_same(approx_eq, ref_approx_eq, a, b, tol)

    def test_at_the_bound(self):
        rng = random.Random("approx-eq-bound")
        ties = 0
        for _ in range(3000):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) * 10.0 ** rng.randint(-8, 8)
            b = a * (1 + complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 1e-9)
            d, scale = abs(a - b), max(1.0, abs(a), abs(b))
            for tol in tols_at_bound(d, scale):
                ties += d == tol * scale
                assert_same(approx_eq, ref_approx_eq, a, b, tol)
        assert ties >= 2000

    def test_ties_with_the_floor(self):
        for a, b in [(1.0, -1.0), (1j, 1.0), (-1.0, 1j), (2.0, -2.0), (3j, -3.0)]:
            for tol in (*GRID, 0.5, 2.0):
                assert_same(approx_eq, ref_approx_eq, a, b, tol)

    @given(values, values, tols)
    @settings(max_examples=300, derandomize=True)
    def test_hypothesis(self, a, b, tol):
        assert_same(approx_eq, ref_approx_eq, a, b, tol)


class TestParallel:
    def test_on_the_grid(self):
        vectors = tuple(itertools.product(GRID, repeat=2))
        for u, v in itertools.product(vectors, repeat=2):
            for tol in TOLS:
                assert_same(parallel, ref_parallel, u, v, tol)

    def test_at_the_bound(self):
        rng = random.Random("parallel-bound")
        ties = 0
        for _ in range(3000):
            u = (complex(rng.gauss(0, 1), rng.gauss(0, 1)), complex(rng.gauss(0, 1), 0.0))
            v = (u[0] * 10.0 ** rng.randint(-3, 3), u[1] * (1 + rng.gauss(0, 1e-6)))
            d = abs(u[0] * v[1] - u[1] * v[0])
            scale = max(1.0, ref_vec_maxmod(u) * ref_vec_maxmod(v))
            for tol in tols_at_bound(d, scale):
                ties += d == tol * scale
                assert_same(parallel, ref_parallel, u, v, tol)
        assert ties >= 2000

    @given(values, values, values, values, tols)
    @settings(max_examples=300, derandomize=True)
    def test_hypothesis(self, u0, u1, v0, v1, tol):
        assert_same(parallel, ref_parallel, (u0, u1), (v0, v1), tol)


class TestEigenDirections:
    def test_real_entries_on_the_grid(self):
        for m in REAL_MATRICES:
            for tol in TOLS:
                assert_same(eigen_directions, ref_hot_eigen_directions, m, tol)

    def test_complex_entries_on_the_grid(self):
        rng = random.Random("eigen-directions")
        for _ in range(20000):
            m = Mat2(*(rng.choice(COMPLEX_GRID) for _ in range(4)))
            assert_same(eigen_directions, ref_hot_eigen_directions, m, rng.choice(TOLS))

    def test_nan_in_each_slot(self):
        # a NaN |a| makes the scale NaN, so the scalar test's floor is 1; a
        # NaN |d| or gap is skipped by both maxima; a NaN |b| sticks as the
        # first off-diagonal modulus
        for slot in range(4):
            for filler in (0.0, 1e-300, 1.0, 1e300):
                entries = [filler] * 4
                entries[slot] = complex(nan, 0.0)
                for tol in TOLS:
                    m = Mat2(*entries)
                    assert_same(eigen_directions, ref_hot_eigen_directions, m, tol)

    def test_scalar_test_at_the_bound(self):
        # Mat2(s, e, 0, s) with |e| <= |s| is scalar iff |e| <= tol*max(1, |s|)
        ties = 0
        for s in (0.25, 1.0, 3.0, 1e6, 1e300):
            for tol in (1e-300, 1e-12, VERDICT_TOL, 1e-3):
                for e in tols_at_bound(tol * max(1.0, s), 1.0):
                    ties += e == tol * max(1.0, s)
                    for m in (Mat2(s, e, 0.0, s), Mat2(s, 0.0, e, s)):
                        assert_same(eigen_directions, ref_hot_eigen_directions, m, tol)
        assert ties == 20

    @given(matrices, tols)
    @settings(max_examples=300, derandomize=True)
    def test_hypothesis(self, m, tol):
        assert_same(eigen_directions, ref_hot_eigen_directions, m, tol)


class TestCommonEigenvector:
    def test_triples_from_the_grid(self):
        rng = random.Random("common-eigenvector")
        for _ in range(8000):
            triple = tuple(rng.choice(REAL_MATRICES) for _ in range(3))
            assert_same(common_eigenvector, ref_common_eigenvector, triple, rng.choice(TOLS))

    def test_complex_triples_from_the_grid(self):
        rng = random.Random("common-eigenvector-complex")
        for _ in range(8000):
            triple = tuple(
                Mat2(*(rng.choice(COMPLEX_GRID) for _ in range(4))) for _ in range(3)
            )
            assert_same(common_eigenvector, ref_common_eigenvector, triple, rng.choice(TOLS))

    def test_residual_at_the_bound(self):
        # diag(1, 2) offers (0, 1) and (1, 0).  Mat2(a, 1, c, 1) rejects the
        # first and maps the second to (a, c), whose residual |c| is
        # compared with tol*max(1, max(|a|, |c|) * 1)
        ties = 0
        for a in (0.0, 0.5, 1.0, 4.0, 1e6, 1e300):
            for tol in (1e-300, 1e-12, VERDICT_TOL, 1e-3):
                for c in tols_at_bound(tol * max(1.0, a), 1.0):
                    ties += c == tol * max(1.0, a)
                    triple = (
                        Mat2(1.0, 0.0, 0.0, 2.0), Mat2(a, 1.0, c, 1.0), Mat2(3.0, 0.0, 0.0, 3.0)
                    )
                    assert_same(common_eigenvector, ref_common_eigenvector, triple, tol)
                    at_bound = common_eigenvector(triple, tol)
                    assert (at_bound is not None) == (c <= tol * max(1.0, a))
        assert ties == 24

    @given(matrices, matrices, matrices, tols)
    @settings(max_examples=300, derandomize=True)
    def test_hypothesis(self, m1, m2, m3, tol):
        assert_same(common_eigenvector, ref_common_eigenvector, (m1, m2, m3), tol)


POINT = (2.0, 3.0, 5.0, 7.0, 11.0, 13.0)


def point(values):
    return (*values, None, None)  # theorem_verdict ignores the cubic slots


class TestTheoremVerdict:
    def test_one_or_two_entries_from_the_grid(self):
        for i, j in itertools.combinations_with_replacement(range(6), 2):
            for gi, gj in itertools.product(COMPLEX_GRID[::3], GRID):
                values = list(POINT)
                values[i], values[j] = gi, gj
                for tol in GRID:
                    assert_same(theorem_verdict, ref_theorem_verdict, point(values), tol)

    def test_regime_and_flags_at_the_bound(self):
        rng = random.Random("theorem-verdict-bound")
        ties = 0
        for _ in range(1500):
            values = [
                complex(rng.uniform(0.1, 10), rng.uniform(-10, 10)) * 10.0 ** rng.randint(-4, 4)
                for _ in range(6)
            ]
            values[1] = values[0] * (1 + rng.gauss(0, 1e-9))
            x1, x2, y1, y2, z1, z2 = values
            sides = [(x1, x2), (x1 * y2 * z2, x2 * y1 * z1), (x1 * y1 * z1, x2 * y2 * z2)]
            lhs, rhs = rng.choice(sides)
            d, scale = abs(lhs - rhs), max(1.0, abs(lhs), abs(rhs))
            for tol in tols_at_bound(d, scale):
                ties += d == tol * scale
                assert_same(theorem_verdict, ref_theorem_verdict, point(values), tol)
        assert ties >= 1000

    def test_ties_of_the_sides(self):
        # |lhs| == |rhs| == 1, and lhs == -rhs, at a tol that puts d = 2
        # exactly on the bound tol*1
        for sign in (1.0, -1.0):
            values = (1.0, sign, 1.0, 1.0, 1.0, 1.0)
            for tol in (*GRID, 1.0, 2.0, math.nextafter(2.0, 0.0)):
                assert_same(theorem_verdict, ref_theorem_verdict, point(values), tol)

    @given(st.lists(values, min_size=6, max_size=6), tols)
    @settings(max_examples=300, derandomize=True)
    def test_hypothesis(self, values, tol):
        assert_same(theorem_verdict, ref_theorem_verdict, point(values), tol)


def every_slot(n, entries, seed, fillers):
    """n-lists with each of entries in each slot, and the other slots drawn
    from entries, fillers times over."""
    rng = random.Random(seed)
    for slot in range(n):
        for value in entries:
            for _ in range(fillers):
                row = [rng.choice(entries) for _ in range(n)]
                row[slot] = value
                yield row


def assert_same_record(fn, ref, *args):
    # + - * on these entries never raise, so both sides return
    got = fn(*args)
    assert type(got) is Mat2 and bits(got) == bits(ref(*args)), args


X1, Y2 = ExtElem.var("x1"), ExtElem.var("y2")
# ring elements, and the plain ints that conjugator puts in a Mat2
RING = (
    ExtElem(0), ExtElem(1), ExtElem(-3), X1, X1 * Y2 - 2, ExtElem.r(),
    ExtElem.r(-1) + X1, 1 / Y2, 0, 2,
)
ARITHMETIC = (
    (Mat2.__mul__, ref_mat2_mul), (Mat2.__add__, ref_mat2_add), (Mat2.__sub__, ref_mat2_sub),
)
M = Mat2(1.0, 2.0, 3.0, 4.0)


class TestMat2Arithmetic:
    @pytest.mark.parametrize("entries, fillers", [(GRID, 8), (COMPLEX_GRID, 2), (RING, 8)])
    def test_products_sums_and_differences_in_every_slot(self, entries, fillers):
        for row in every_slot(8, entries, "mat2-arithmetic", fillers):
            m, other = Mat2(*row[:4]), Mat2(*row[4:])
            for fn, ref in ARITHMETIC:
                assert_same_record(fn, ref, m, other)

    @pytest.mark.parametrize("entries, fillers", [(GRID, 8), (COMPLEX_GRID, 2), (RING, 8)])
    def test_minus_scalar_in_every_slot(self, entries, fillers):
        for row in every_slot(5, entries, "minus-scalar", fillers):
            assert_same_record(Mat2.minus_scalar, ref_minus_scalar, Mat2(*row[:4]), row[4])

    @pytest.mark.parametrize(
        "other", [2, 2.0, 1j, None, "abcd", (1.0, 2.0, 3.0, 4.0), [1.0, 2.0, 3.0, 4.0], X1]
    )
    def test_other_operands_raise_as_before(self, other):
        for fn, ref in ARITHMETIC:
            assert_same(fn, ref, M, other)
        assert_same(Mat2.minus_scalar, ref_minus_scalar, M, other)

    def test_operators_refuse_what_is_not_a_matrix(self):
        for product in (lambda: M * 2, lambda: M * (1, 2, 3, 4), lambda: M + 2, lambda: M - [0]):
            with pytest.raises(AttributeError, match="object has no attribute 'a'"):
                product()
        with pytest.raises(TypeError, match="unsupported operand"):
            2 * M

    @given(matrices, matrices, values)
    @settings(max_examples=300, derandomize=True)
    def test_hypothesis(self, m, other, lam):
        for fn, ref in ARITHMETIC:
            assert_same_record(fn, ref, m, other)
        assert_same_record(Mat2.minus_scalar, ref_minus_scalar, m, lam)


def residual_cases(entries, fillers):
    """One, two and three factors, and a generator triple, with each entry
    in each slot."""
    for n in (1, 2, 3):
        for row in every_slot(4 * n, entries, f"residual-{n}", fillers):
            yield n, [Mat2(*row[4 * k:4 * k + 4]) for k in range(n)]


class TestResidualMaxima:
    def test_maxmod_of_real_matrices(self):
        # NaN first sticks, NaN later is skipped, ties keep the first
        for m in REAL_MATRICES:
            assert_same(Mat2.maxmod, ref_maxmod, m)

    def test_maxmod_in_every_slot(self):
        for row in every_slot(4, COMPLEX_GRID, "maxmod", 8):
            assert_same(Mat2.maxmod, ref_maxmod, Mat2(*row))

    @pytest.mark.parametrize("entries, fillers", [(GRID, 6), (COMPLEX_GRID, 1)])
    def test_scaled_products_and_braids_in_every_slot(self, entries, fillers):
        for n, factors in residual_cases(entries, fillers):
            assert_same(_scaled_product_residual, ref_scaled_product_residual, factors)
            if n == 3:
                g = GeneratorTriple(*factors)
                assert_same(braid_residual, ref_braid_residual, g)

    @given(matrices, matrices, matrices)
    @settings(max_examples=300, derandomize=True)
    def test_hypothesis(self, m1, m2, m3):
        assert_same(_scaled_product_residual, ref_scaled_product_residual, [m1, m2, m3])
        assert_same(braid_residual, ref_braid_residual, GeneratorTriple(m1, m2, m3))


class TestSeparated:
    def test_on_the_grid(self):
        for a, b in itertools.product(COMPLEX_GRID, repeat=2):
            assert_same(_separated, ref_separated, a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            (1.7e308, -1.7e308),
            (1.7e308j, -1.7e308j),
            (complex(1e308, -1e308), complex(-1e308, 1e308)),
            # a NaN modulus, which max skips, beside an infinite difference
            (complex(nan, 0.0), complex(0.0, inf)),
        ],
        ids=["real", "imaginary", "both-parts", "nan-modulus"],
    )
    def test_a_difference_that_overflows_is_separated(self, a, b):
        assert abs(a - b) == inf
        assert outcome(_separated, a, b) == outcome(ref_separated, a, b) == ("returned", True)

    def test_at_the_bound(self):
        # b = a * (1 + 1e-3 * u) for |u| = 1 puts |a - b| = 1e-3 * |a| a
        # relative 1e-3 or less from 1e-3 * |b|, on either side, for |a| >= 1
        rng = random.Random("separated-bound")
        outcomes = set()
        for _ in range(3000):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) * 10.0 ** rng.randint(-3, 3)
            b = a * (1 + 1e-3 * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            assert_same(_separated, ref_separated, a, b)
            outcomes.add(ref_separated(a, b))
        assert outcomes == {True, False}

    @given(values, values)
    @settings(max_examples=300, derandomize=True)
    def test_hypothesis(self, a, b):
        assert_same(_separated, ref_separated, a, b)
