"""The public records are immutable named tuples.

These tests pin what a record must still do as a tuple subclass: refuse
attribute assignment, keep its repr, refuse the tuple repetition and
concatenation that would otherwise leak into the matrix types, and (for
Params) coerce and validate every value, also through _replace.
"""

import pytest

from heckeg7.exact import RatElem
from heckeg7.identities import VERIFIED, CheckResult, IdentityReport
from heckeg7.irreducibility import BranchDiagnosis, ConditionFlag, Verdict, decide
from heckeg7.matrix2 import SCALAR, EigenReport, Mat2
from heckeg7.representation import GeneratorTriple, InvalidParams, Params, build_general
from heckeg7.sweep import SweepConfig, SweepResult, run_sweep

ONE = RatElem(1)


def one_of_each():
    p = Params(2, 3, 5, 7, 11, 13)
    return [
        Mat2(1, 2, 3, 4),
        EigenReport(SCALAR, (1,), ()),
        p,
        build_general(p),
        ConditionFlag("z1*y2 = y1*z2", 1, 2, False),
        BranchDiagnosis("reducible", True, (1, 0)),
        decide(p),
        CheckResult("c", True),
        IdentityReport("r", VERIFIED, ()),
        SweepConfig(samples=5),
        run_sweep(SweepConfig(samples=5)),
    ]


def test_every_record_type_is_covered():
    types = {type(rec) for rec in one_of_each()}
    assert types == {
        Mat2, EigenReport, Params, GeneratorTriple, ConditionFlag,
        BranchDiagnosis, Verdict, CheckResult, IdentityReport,
        SweepConfig, SweepResult,
    }


@pytest.mark.parametrize("record", one_of_each(), ids=lambda rec: type(rec).__name__)
def test_records_refuse_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


# cli.load_params reads Params._fields and Params._field_defaults, and
# cli.cmd_sweep builds a SweepConfig from SweepConfig._fields
FIELDS_AND_DEFAULTS = {
    Mat2: ("a b c d", {}),
    EigenReport: ("kind eigenvalues directions", {}),
    Params: ("x1 x2 y1 y2 z1 z2 y3 z3", {"y3": None, "z3": None}),
    GeneratorTriple: ("s1 s2 s3", {}),
    ConditionFlag: ("name lhs rhs equal", {}),
    BranchDiagnosis: ("flipped_oracle_decision resolved flipped_invariant_vector", {}),
    Verdict: (
        "regime r_sign tolerance theorem_decision conditions oracle_decision "
        "invariant_vector agreement branch_diagnosis",
        {},
    ),
    CheckResult: ("name ok note residual", {"note": "", "residual": None}),
    IdentityReport: ("name status checks summary", {"summary": ""}),
    SweepConfig: (
        "samples seed domain tolerance r_sign inject_reducible_rate "
        "log10_modulus_min log10_modulus_max regime_filter",
        {
            "samples": 10000, "seed": 42, "domain": "positive-real",
            "tolerance": 1e-9, "r_sign": 1, "inject_reducible_rate": 0.1,
            "log10_modulus_min": -1.0, "log10_modulus_max": 1.0, "regime_filter": None,
        },
    ),
    SweepResult: (
        "config counts injected_total injected_per_case witness_failures "
        "predicted_mismatches disagreements",
        {},
    ),
}


@pytest.mark.parametrize("cls", FIELDS_AND_DEFAULTS, ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_pinned(cls):
    fields, defaults = FIELDS_AND_DEFAULTS[cls]
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == defaults


# repr strings as the frozen dataclasses printed them
@pytest.mark.parametrize(
    "record, expected",
    [
        (Mat2(1, 2j, -0.5, 3 - 1j), "Mat2(a=1, b=2j, c=-0.5, d=(3-1j))"),
        (
            Params(1, 2.5, 3j, -4, 5 + 6j, 7),
            "Params(x1=(1+0j), x2=(2.5+0j), y1=3j, y2=(-4+0j), z1=(5+6j), "
            "z2=(7+0j), y3=None, z3=None)",
        ),
        (
            Params(1, 2, 3, 4, 5, 6, y3=8, z3=-1j),
            "Params(x1=(1+0j), x2=(2+0j), y1=(3+0j), y2=(4+0j), z1=(5+0j), "
            "z2=(6+0j), y3=(8+0j), z3=(-0-1j))",
        ),
        (
            ConditionFlag("z1*y2 = y1*z2", 2j, 2j, True),
            "ConditionFlag(name='z1*y2 = y1*z2', lhs=2j, rhs=2j, equal=True)",
        ),
        (
            decide(Params(1, 1, -1j, 1, -1j, 1)),
            "Verdict(regime='equal_x', r_sign=1, tolerance=1e-09, "
            "theorem_decision='reducible', conditions=("
            "ConditionFlag(name='x1*y2*z2 = x2*y1*z1', lhs=(1+0j), rhs=(-1+0j), equal=False), "
            "ConditionFlag(name='x1*y1*z2 = x2*y2*z1', lhs=-1j, rhs=-1j, equal=True), "
            "ConditionFlag(name='x1*y2*z1 = x2*y1*z2', lhs=-1j, rhs=-1j, equal=True), "
            "ConditionFlag(name='x1*y1*z1 = x2*y2*z2', lhs=(-1+0j), rhs=(1+0j), equal=False)), "
            "oracle_decision='irreducible', invariant_vector=None, agreement=False, "
            "branch_diagnosis=BranchDiagnosis(flipped_oracle_decision='reducible', "
            "resolved=True, flipped_invariant_vector=((1+0j), 1j)))",
        ),
    ],
    ids=["Mat2", "Params", "Params-cubic", "ConditionFlag", "Verdict"],
)
def test_repr_is_unchanged(record, expected):
    assert repr(record) == expected


@pytest.mark.parametrize(
    "matrix", [Mat2(1, 2, 3, 4), Mat2(ONE, ONE, ONE, ONE)], ids=["Mat2", "Mat2-exact"]
)
def test_scalar_times_matrix_is_refused(matrix):
    # tuple.__rmul__ would silently return the entries repeated
    with pytest.raises(TypeError):
        2 * matrix


def test_exact_matrices_add_entrywise():
    # not the tuple concatenation a NamedTuple inherits
    m = Mat2(ONE, ONE, ONE, ONE)
    assert m + m == Mat2(2, 2, 2, 2)


class TestParams:
    def test_five_positional_values_are_refused(self):
        with pytest.raises(TypeError):
            Params(1, 2, 3, 4, 5)

    def test_ints_and_floats_become_complex(self):
        p = Params(1, 2.5, 3, 4, 5, 6, y3=7, z3=8.5)
        assert all(type(v) is complex for v in p)
        assert p == (1, 2.5, 3, 4, 5, 6, 7, 8.5)
        assert Params(1, 2, 3, 4, 5, 6).y3 is None

    def test_validation_runs_at_construction_in_field_order(self):
        with pytest.raises(InvalidParams, match="^y1 must be nonzero$"):
            Params(1, 2, 0, float("nan"), 5, 6)
        with pytest.raises(InvalidParams, match="^y2 is not finite$"):
            Params(1, 2, 3, float("nan"), 5, 0)
        with pytest.raises(InvalidParams, match="^z3 must be nonzero$"):
            Params(1, 2, 3, 4, 5, 6, y3=1, z3=0)

    # every bad value in every field, y3 and z3 included
    FIELDS = ("x1", "x2", "y1", "y2", "z1", "z2", "y3", "z3")
    GOOD = (1.5, -2, 3j, 4 + 1j, -5.25, 6, 7, 8j)
    BAD = (
        (0, "must be nonzero"),
        (-0.0, "must be nonzero"),
        (float("nan"), "is not finite"),
        (float("inf"), "is not finite"),
        (complex(0, float("nan")), "is not finite"),
    )

    def with_values(self, **bad):
        return [bad.get(name, good) for name, good in zip(self.FIELDS, self.GOOD)]

    def test_good_values_pass(self):
        Params(*self.GOOD).validate()
        Params(*self.GOOD[:6]).validate()

    @pytest.mark.parametrize("field", FIELDS)
    def test_each_bad_value_in_each_field(self, field):
        for value, problem in self.BAD:
            values = self.with_values(**{field: value})
            with pytest.raises(InvalidParams, match=f"^{field} {problem}$"):
                Params(*values)
            if field not in ("y3", "z3"):
                with pytest.raises(InvalidParams, match=f"^{field} {problem}$"):
                    Params(*values[:6])  # without y3 and z3

    @pytest.mark.parametrize("first", range(len(FIELDS)))
    def test_first_bad_field_is_named(self, first):
        name = self.FIELDS[first]
        for second in self.FIELDS[first + 1:]:
            for value, problem in self.BAD:
                for other, _ in self.BAD:
                    with pytest.raises(InvalidParams, match=f"^{name} {problem}$"):
                        Params(*self.with_values(**{name: value, second: other}))

    def test_replace_coerces_and_validates(self):
        p = Params(1, 2, 3, 4, 5, 6)
        q = p._replace(x1=9, y3=2)
        assert type(q) is Params
        assert type(q.x1) is complex and type(q.y3) is complex
        with pytest.raises(InvalidParams, match="^x1 must be nonzero$"):
            p._replace(x1=0)

    def test_validate_and_as_dict_live_on_params(self):
        # the per-layer tracer wraps Params.validate through vars(Params)
        assert "validate" in vars(Params)
        assert "as_dict" in vars(Params)
        assert "as_dict" in vars(SweepResult)
