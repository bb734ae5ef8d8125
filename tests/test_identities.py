"""Exact symbolic identity suite, plus numeric cross-checks of each identity."""

import math
import random
import time

import pytest

from heckeg7.exact import (
    DELTA_POLY,
    VARS,
    ExtElem,
    Poly,
    Substitution,
    eval_numeric,
    ext_eval,
    substitute,
)
from heckeg7 import identities
from heckeg7.identities import (
    FAILED,
    REGISTRY,
    SIGN_DEPENDENT,
    VERIFIED,
    case_substitution,
    conjugated_upper_right_numerator,
    report_as_dict,
    run_all,
    sym_generators,
    verify_braid_hecke_relations,
    verify_conjugated_upper_right_vanishing,
    verify_conjugation_formulas,
    verify_invariant_line_eigenrelations,
    verify_reducibility_condition_factorization,
    verify_w_factorization,
    w_alpha_beta,
)
from heckeg7.matrix2 import Mat2
from heckeg7.numerics import approx_eq
from heckeg7.representation import conjugator

X1, X2, Y1, Y2, Z1, Z2 = (Poly.var(name) for name in VARS)

NUMERIC_TOL = 1e-10


def seeded_points(count: int = 5):
    rng = random.Random(4242)
    for _ in range(count):
        values = {name: complex(10.0 ** rng.uniform(-0.5, 0.5)) for name in VARS}
        product = 1.0
        for v in values.values():
            product *= v.real
        yield values, complex(math.sqrt(product))


class TestSuiteReports:
    def test_registry_contents(self):
        assert list(REGISTRY) == [
            "reducibility-condition-factorization",
            "w-factorization",
            "braid-hecke-relations",
            "conjugation-formulas",
            "conjugated-upper-right-vanishing",
            "invariant-line-eigenrelations",
        ]

    def test_run_all_produces_no_failures(self):
        reports = run_all()
        assert len(reports) == len(REGISTRY)
        assert not any(report.failed() for report in reports)
        statuses = {report.name: report.status for report in reports}
        assert statuses["conjugated-upper-right-vanishing"] == SIGN_DEPENDENT
        for name, status in statuses.items():
            if name != "conjugated-upper-right-vanishing":
                assert status == VERIFIED, name

    def test_run_all_single_selection(self):
        reports = run_all("w-factorization")
        assert len(reports) == 1
        assert reports[0].name == "w-factorization"

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="w-factorization"):
            run_all("bogus")

    def test_report_as_dict_is_json_shaped(self):
        doc = report_as_dict(run_all("w-factorization")[0])
        assert doc["name"] == "w-factorization"
        assert doc["status"] == VERIFIED
        assert all(check["ok"] for check in doc["checks"])

    def test_every_check_passes_individually(self):
        for report in run_all():
            for check in report.checks:
                assert check.ok, f"{report.name}: {check.name}"


class TestFactorizations:
    def test_equal_x_condition_difference_factors(self):
        report = verify_reducibility_condition_factorization()
        assert report.status == VERIFIED
        # The identity itself, restated locally: with x1 = x2 the quantity
        # (y1+y2)^2 z1 z2 - (z1+z2)^2 y1 y2 equals -(y1 z1 - y2 z2)(y2 z1 - y1 z2).
        lhs = (Y1 + Y2) ** 2 * Z1 * Z2 - (Z1 + Z2) ** 2 * Y1 * Y2
        rhs = -(Y1 * Z1 - Y2 * Z2) * (Y2 * Z1 - Y1 * Z2)
        assert lhs == rhs

    def test_w_factors_into_alpha_beta(self):
        report = verify_w_factorization()
        assert report.status == VERIFIED
        w, alpha, beta = w_alpha_beta()
        assert w == alpha * beta

    def test_alpha_beta_conjugate_norms(self):
        _, alpha, beta = w_alpha_beta()
        norm_alpha = alpha * alpha.conjugate()
        expected_alpha = ExtElem(
            Y1 * Y2 * (X1 * Y1 * Z2 - X2 * Y2 * Z1) * (X1 * Y2 * Z2 - X2 * Y1 * Z1)
        )
        assert norm_alpha == expected_alpha
        norm_beta = beta * beta.conjugate()
        expected_beta = ExtElem(
            Y1 * Y2 * (X1 * Y2 * Z1 - X2 * Y1 * Z2) * (X1 * Y1 * Z1 - X2 * Y2 * Z2)
        )
        assert norm_beta == expected_beta

    def test_w_numeric_evaluation_matches_direct_formula(self):
        w, _, _ = w_alpha_beta()
        for values, r_value in seeded_points():
            x1, x2 = values["x1"], values["x2"]
            y1, y2 = values["y1"], values["y2"]
            z1, z2 = values["z1"], values["z2"]
            direct = (x1 - x2) ** 2 * y1**2 * y2**2 * z1 * z2 + (
                (y1 + y2) * r_value - x1 * y1 * y2 * (z1 + z2)
            ) * ((y1 + y2) * r_value - x2 * y1 * y2 * (z1 + z2))
            assert approx_eq(ext_eval(w, values, r_value), direct, NUMERIC_TOL)


class TestSymbolicGenerators:
    def test_relations_report(self):
        report = verify_braid_hecke_relations()
        assert report.status == VERIFIED
        # Both root signs are covered.
        assert len(report.checks) == 10

    def test_braid_products_coincide_numerically(self):
        s1, s2, s3 = sym_generators()
        p123 = s1 * s2 * s3
        p231 = s2 * s3 * s1
        p312 = s3 * s1 * s2
        for m1, m2 in ((p123, p231), (p231, p312)):
            for e1, e2 in zip(m1, m2):
                assert e1 == e2
        for values, r_value in seeded_points(3):
            for entry, other in zip(p123, p231):
                lhs = eval_numeric(entry, values, r_value)
                rhs = eval_numeric(other, values, r_value)
                assert approx_eq(lhs, rhs, NUMERIC_TOL)

    def test_conjugation_report_covers_both_signs(self):
        report = verify_conjugation_formulas()
        assert report.status == VERIFIED
        assert len(report.checks) == 36

    def test_generator_entries_stay_in_the_field(self):
        # the zero entries are r - r, not the int 0, so .is_zero() works on
        # every entry of every product
        for sign in (1, -1):
            g = sym_generators(sign)
            assert all(type(e) is ExtElem for m in g for e in m)
            assert all(type(e) is ExtElem for e in g.s1 * g.s2 * g.s3)

    def test_conjugator_is_division_free_with_det_x2_minus_x1_squared(self):
        s1, _, _ = sym_generators()
        x1, x2 = ExtElem.var("x1"), ExtElem.var("x2")
        t = conjugator(s1, x1, x2)
        assert (t.a, t.b, t.c, t.d) == (x2 - x1, s1.b, 0, x2 - x1)
        adj = Mat2(t.d, -t.b, -t.c, t.a)
        det_t = (x2 - x1) ** 2
        assert tuple(t * adj) == (det_t, 0, 0, det_t)

    def test_conjugated_s1_is_diagonal(self):
        s1, _, _ = sym_generators()
        x1, x2 = ExtElem.var("x1"), ExtElem.var("x2")
        t = conjugator(s1, x1, x2)
        d = Mat2(t.d, -t.b, -t.c, t.a) * s1 * t
        assert d.b.is_zero() and d.c.is_zero()
        assert d.a == (x2 - x1) ** 2 * x1
        assert d.d == (x2 - x1) ** 2 * x2


class TestCaseSubstitutions:
    def test_all_six_cases_have_consistent_root_images(self):
        # substitute() raises unless the stated root image squares to the
        # image of the six-variable product, so success is the assertion.
        for case_id in (
            "equal-x-1",
            "equal-x-2",
            "distinct-x-1",
            "distinct-x-2",
            "distinct-x-3",
            "distinct-x-4",
        ):
            assignment, root = case_substitution(case_id)
            image = substitute(DELTA_POLY, assignment, root)
            assert image == root * root

    def test_first_distinct_case_square(self):
        assignment, root = case_substitution("distinct-x-1")
        assert root == ExtElem(X2 * Y1 * Z1)
        image = substitute(DELTA_POLY, assignment, root)
        assert image == ExtElem((X2 * Y1 * Z1) ** 2)

    def test_upper_right_vanishing_is_sign_dependent(self):
        report = verify_conjugated_upper_right_vanishing()
        assert report.status == SIGN_DEPENDENT
        assert not report.failed()
        # Eight checks: four distinct-x cases, two root signs each.
        assert len(report.checks) == 8

    def test_upper_right_numerator_vanishes_under_first_case(self):
        numerator = conjugated_upper_right_numerator()
        assignment, root = case_substitution("distinct-x-1")
        image = substitute(numerator, assignment, root)
        assert image.is_zero()
        flipped = substitute(numerator, assignment, -root)
        assert not flipped.is_zero()

    def test_eigenrelation_report(self):
        report = verify_invariant_line_eigenrelations()
        assert report.status == VERIFIED
        assert len(report.checks) == 22


class TestCheckHelpers:
    """The one check behind every report: a pass carries no residual, a
    failure names what differs."""

    RX1, RX2 = ExtElem.var("x1"), ExtElem.var("x2")
    UPPER = Mat2(RX1, ExtElem(1), ExtElem(0), RX2)
    ONE, ZERO = ExtElem(1), ExtElem(0)

    def test_check_passes_without_residual(self):
        check = identities._check("m = m", self.UPPER, self.UPPER, "note")
        assert check == ("m = m", True, "note", None)

    def test_check_lists_each_unequal_entry(self):
        m = self.UPPER
        other = Mat2(m.a, m.b + self.RX1, m.c, m.d + ExtElem(2))
        check = identities._check("m = other", m, other)
        assert not check.ok
        assert check.residual == "(1,2): -x1; (2,2): -2"

    def test_check_labels_matrix_positions_row_major(self):
        m = Mat2(*(ExtElem(k) for k in range(4)))
        check = identities._check("m = m + 1", m, Mat2(*(e + 1 for e in m)))
        assert check.residual == "(1,1): -1; (1,2): -1; (2,1): -1; (2,2): -1"

    def test_check_accepts_an_eigenvector(self):
        image = self.UPPER.apply((self.ONE, self.ZERO))
        check = identities._check("s*e1", image, (self.RX1, self.ZERO), "n")
        assert check.ok and check.residual is None

    def test_check_rejects_a_non_eigenvector(self):
        image = self.UPPER.apply((self.ZERO, self.ONE))
        check = identities._check("s*e2", image, (self.ZERO, self.RX2), "n")
        assert not check.ok
        assert check.residual == "(1): 1"

    def test_residual_names_an_unequal_second_entry(self):
        # only the second component differs: (x1, 1) against (x1, 0)
        lower = Mat2(self.RX1, self.ZERO, self.ONE, self.RX2)
        image = lower.apply((self.ONE, self.ZERO))
        check = identities._check("s*e1", image, (self.RX1, self.ZERO), "n")
        assert not check.ok
        assert check.residual == "(2): 1"
        m = self.UPPER
        check = identities._check("m = other", m, Mat2(m.a, m.b / self.RX2, m.c, m.d))
        assert check.residual == "(1,2): (x2 - 1) / (x2)"

    def test_zero_check_reports_the_difference(self):
        assert identities._check("0", self.RX1 - self.RX1, self.ZERO).residual is None
        check = identities._check("x1/x2", self.RX1 / self.RX2, self.ZERO)
        assert not check.ok
        assert check.residual == "(x1) / (x2)"

    def test_differs_passes_on_unequal_sides_and_fails_without_residual(self):
        assert identities._differs("x1 != x2", self.RX1, self.RX2, "n") == (
            "x1 != x2", True, "n", None
        )
        same = self.RX1 * self.RX2 / self.RX2
        check = identities._differs("x1 != x1*x2/x2", self.RX1, same, "n")
        assert check == ("x1 != x1*x2/x2", False, "n", None)


class TestPlantedFailures:
    """A wrong input must fail exactly the reports that use it, with the
    residual strings lhs - rhs prints in the Laurent ring.  A shortcut that
    loses or adds a term breaks them."""

    @staticmethod
    def _failures(reports) -> dict[str, dict[str, str]]:
        return {
            report.name: {c.name: c.residual for c in report.checks if not c.ok}
            for report in reports
            if report.status == FAILED
        }

    def test_perturbed_upper_right_numerator(self, monkeypatch):
        original = identities.conjugated_upper_right_numerator

        def planted() -> ExtElem:
            nb = original()
            return ExtElem(nb.p + X1, nb.q)

        monkeypatch.setattr(identities, "conjugated_upper_right_numerator", planted)
        failures = self._failures(run_all())
        assert set(failures) == {"conjugation-formulas", "conjugated-upper-right-vanishing"}
        assert all(all(failures[name].values()) for name in failures)
        vanishing = failures["conjugated-upper-right-vanishing"]
        assert len(vanishing) == 4
        assert (
            vanishing["distinct-x-1: numerator vanishes at induced root sign +1"]
            == "(x2*y1*z1) / (y2*z2)"
        )
        assert failures["conjugation-formulas"][
            "conjugated s3 (1,2) = x1*x2*z1*z2*(sum)/((x1-x2)^2*r^3) [r sign -1]"
        ] == "((1)*r) / (x2*y1^2*y2^2*z1*z2)"

    def test_perturbed_s2_upper_right_entry(self, monkeypatch):
        original = identities.sym_generators

        def planted(r_sign: int = 1):
            s1, s2, s3 = original(r_sign)
            return s1, Mat2(s2.a, s2.b + ExtElem(X1), s2.c, s2.d), s3

        monkeypatch.setattr(identities, "sym_generators", planted)
        failures = self._failures(run_all())
        assert set(failures) == {
            "braid-hecke-relations",
            "conjugation-formulas",
            "invariant-line-eigenrelations",
        }
        assert all(all(failures[name].values()) for name in failures)
        assert len(failures["braid-hecke-relations"]) == 6
        assert failures["braid-hecke-relations"][
            "(s2 - y1)(s2 - y2) = 0 [r sign +1]"
        ] == "(1,1): -x1^2*y1*y2; (2,2): -x1^2*y1*y2"
        assert failures["braid-hecke-relations"][
            "s1*s2*s3 = s3*s1*s2 [r sign -1]"
        ] == "(1,1): (-x1^2)*r; (1,2): x1^2*z1 + x1^2*z2; (2,2): (x1^2)*r"
        assert failures["conjugation-formulas"][
            "det of conjugated s2 = y1*y2 [r sign +1]"
        ] == (
            # det(adj(T)*s2*T) = (x2 - x1)^4 * det(s2): the planted entry adds
            # x1^2*y1*y2 to det(s2)
            "x1^6*y1*y2 - 4*x1^5*x2*y1*y2 + 6*x1^4*x2^2*y1*y2"
            " - 4*x1^3*x2^3*y1*y2 + x1^2*x2^4*y1*y2"
        )
        assert failures["invariant-line-eigenrelations"][
            "equal-x-2: s2*v = y2*v with the complementary direction v = (-1/(x2*y1), 1)"
        ] == "(1): x2"


def _items(value: ExtElem) -> list:
    """The two terms dicts of a ring element as ordered item lists."""
    return [list(poly.terms.items()) for poly in (value.p, value.q)]


def _substituted_entries(case_id: str) -> list[ExtElem]:
    """What the reports substitute under each case: the generator entries
    (equal-x) or the conjugated upper-right numerator (distinct-x)."""
    if case_id.startswith("equal-x"):
        return [e for m in sym_generators(1) for e in m]
    return [conjugated_upper_right_numerator()]


class TestSharedSubstitution:
    CASES = (
        "equal-x-1",
        "equal-x-2",
        "distinct-x-1",
        "distinct-x-2",
        "distinct-x-3",
        "distinct-x-4",
    )

    @pytest.mark.parametrize("case_id", CASES)
    @pytest.mark.parametrize("signs", [(1, -1), (-1, 1)])
    def test_reused_substitution_matches_one_shot(self, case_id, signs):
        assignment, root = case_substitution(case_id)
        entries = _substituted_entries(case_id)
        sub = Substitution(assignment)
        for sign in signs:
            r_image = root if sign == 1 else -root
            for entry in entries:
                expected = _items(substitute(entry, assignment, r_image))
                assert _items(substitute(entry, sub, r_image)) == expected

    def test_reports_share_one_substitution_per_case(self, monkeypatch):
        calls = []
        original = identities.substitute

        def recording(value, assignment, r_image):
            calls.append(assignment)
            return original(value, assignment, r_image)

        monkeypatch.setattr(identities, "substitute", recording)
        verify_conjugated_upper_right_vanishing()
        verify_invariant_line_eigenrelations()
        # 4 distinct-x cases x 2 signs, then 2 equal-x cases x (12 entries + flip)
        assert len(calls) == 34
        assert all(isinstance(a, Substitution) for a in calls)
        assert len({id(a) for a in calls}) == 6
        per_case = [calls[0:2], calls[2:4], calls[4:6], calls[6:8], calls[8:21], calls[21:34]]
        assert all(len({id(a) for a in group}) == 1 for group in per_case)


# built once per process, on first call, and shared by every report
ONCE_PER_PROCESS = (sym_generators, w_alpha_beta, conjugated_upper_right_numerator)


class TestRepeatedWork:
    """The suite's saving, counted rather than timed."""

    def test_each_symbolic_object_is_built_once(self, monkeypatch):
        for fn in ONCE_PER_PROCESS:
            fn.cache_clear()
        roots = []
        original = identities.generators

        def recording(*args):
            roots.append(str(args[-1]))
            return original(*args)

        monkeypatch.setattr(identities, "generators", recording)
        first = run_all()
        assert sorted(roots) == ["(-1)*r", "(1)*r"]
        assert [fn.cache_info().misses for fn in ONCE_PER_PROCESS] == [2, 1, 1]
        second = run_all()
        assert len(roots) == 2
        assert [fn.cache_info().misses for fn in ONCE_PER_PROCESS] == [2, 1, 1]
        assert second == first

    def test_each_root_image_object_is_squared_once(self, monkeypatch):
        roots, squared = [], []
        original_substitute = identities.substitute
        original_mul = ExtElem.__mul__

        def recording_substitute(value, assignment, r_image):
            roots.append(r_image)
            return original_substitute(value, assignment, r_image)

        def recording_mul(a, b):
            if a is b:
                squared.append(a)
            return original_mul(a, b)

        monkeypatch.setattr(identities, "substitute", recording_substitute)
        monkeypatch.setattr(ExtElem, "__mul__", recording_mul)
        run_all()
        distinct = {id(r): r for r in roots}
        assert (len(roots), len(distinct)) == (34, 12)
        assert sorted(id(a) for a in squared if id(a) in distinct) == sorted(distinct)

    def test_cold_run_all_stays_within_its_product_budget(self, monkeypatch):
        # Poly and ExtElem products of one run_all() with nothing cached,
        # counted as perfbench/tracing.py counts them (on __mul__ alone):
        # 901 and 564 in the Laurent ring.  The fraction field made 1,721
        # and 718, plus 996 fraction products; before that, building each
        # object on every use and forming every zero and unit product made
        # 2,731 and 902.  A new identity report may raise these bounds on
        # purpose.
        for fn in ONCE_PER_PROCESS:
            fn.cache_clear()
        calls = {Poly: 0, ExtElem: 0}
        for cls in calls:

            def counting(a, b, _cls=cls, _mul=cls.__mul__):
                calls[_cls] += 1
                return _mul(a, b)

            monkeypatch.setattr(cls, "__mul__", counting)
        run_all()
        assert calls[Poly] <= 920
        assert calls[ExtElem] <= 580


class TestBudget:
    def test_full_suite_runs_quickly(self):
        start = time.perf_counter()
        run_all()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
