"""Command-line interface: formats, exit codes, determinism, entry points."""

import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeg7.cli import INPUT_ERROR, MATH_FAILURE, OK, main

ALL_ONES = {
    name: {"re": 1, "im": 0} for name in ("x1", "x2", "y1", "y2", "z1", "z2")
}

IRREDUCIBLE_POINT = {
    "x1": {"re": 2, "im": 0},
    "x2": {"re": 3, "im": 0},
    "y1": {"re": 5, "im": 0},
    "y2": {"re": 7, "im": 0},
    "z1": {"re": 11, "im": 0},
    "z2": {"re": 13, "im": 0},
}

# Reducible by the closed-form criteria, but the oracle on the default
# branch disagrees; flipping the root sign restores agreement.
WRONG_BRANCH = {
    "x1": {"re": 1, "im": 0},
    "x2": {"re": 1, "im": 0},
    "y1": {"modulus": 1, "argument": 0.9 * math.pi},
    "y2": {"re": 1, "im": 0},
    "z1": {"modulus": 1, "argument": 0.9 * math.pi},
    "z2": {"re": 1, "im": 0},
}

# y = z, so both equal-x conditions hold, but x1 != x2: irreducible.
Y_EQUALS_Z_DISTINCT_X = {
    "x1": {"re": 2, "im": 0},
    "x2": {"re": 3, "im": 0},
    "y1": {"re": 1, "im": 0},
    "y2": {"re": 2, "im": 0},
    "z1": {"re": 1, "im": 0},
    "z2": {"re": 2, "im": 0},
}

# All real and finite, but (s2 - y1)(s2 - y2) overflows to a NaN residual.
NAN_RESIDUAL_POINT = {
    name: {"re": value, "im": 0}
    for name, value in dict(
        x1=1e135, x2=1e-18, y1=1e46, y2=1e99, z1=1e12, z2=1e10
    ).items()
}

GOLDEN_IDENTITIES = Path(__file__).parent / "fixtures" / "identities.json"


def write_params(tmp_path, doc, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_agreement_exits_zero_with_full_document(self, tmp_path, capsys):
        path = write_params(tmp_path, ALL_ONES)
        code, out, _ = run_cli(capsys, "check", path)
        assert code == OK
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert doc["kind"] == "check-verdict"
        assert doc["verdict"]["agreement"] is True
        assert doc["verdict"]["theorem-decision"] == "reducible"
        assert doc["relations"]["braid-residual"] <= 1e-12
        assert set(doc["relations"]["hecke-residuals"]) == {"s1", "s2", "s3"}

    def test_output_is_canonical_json_with_trailing_newline(
        self, tmp_path, capsys
    ):
        path = write_params(tmp_path, ALL_ONES)
        _, out, _ = run_cli(capsys, "check", path)
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_text_output(self, tmp_path, capsys):
        path = write_params(tmp_path, ALL_ONES)
        code, out, _ = run_cli(capsys, "check", path, "--output", "text")
        assert code == OK
        lines = out.splitlines()
        assert "criteria decision: reducible" in lines
        assert "agreement: yes" in lines
        assert "branch diagnosis: not needed" in lines
        assert "hecke residuals: s1=0.000e+00 s2=0.000e+00 s3=0.000e+00" in lines

    def test_text_of_a_resolved_disagreement_with_cubic_rows(self, tmp_path, capsys):
        # perfbench/workloads.py:_check_fields reads the four lines pinned
        # here and in test_text_output
        doc = dict(WRONG_BRANCH, y3={"re": 2, "im": 0}, z3={"re": 3, "im": 0})
        code, out, err = run_cli(capsys, "check", write_params(tmp_path, doc), "--output", "text")
        assert (code, err) == (MATH_FAILURE, "")
        lines = out.splitlines()
        assert "criteria decision: reducible" in lines
        assert "agreement: no" in lines
        assert (
            "branch diagnosis: disagreement disappears on the flipped branch "
            "(flipped r sign -1 -> reducible, witness (1+0i, 0.951056516295-0.309016994375i))"
        ) in lines
        hecke = next(line for line in lines if line.startswith("hecke residuals: "))
        rows = [item.split("=")[0] for item in hecke.split(": ")[1].split()]
        assert rows == ["s1", "s2", "s2_cubic", "s3", "s3_cubic"]

    def test_irreducible_point(self, tmp_path, capsys):
        path = write_params(tmp_path, IRREDUCIBLE_POINT)
        code, out, _ = run_cli(capsys, "check", path)
        assert code == OK
        doc = json.loads(out)
        assert doc["verdict"]["theorem-decision"] == "irreducible"
        assert doc["verdict"]["invariant-vector"] is None

    def test_branch_disagreement_exits_two_with_diagnosis(
        self, tmp_path, capsys
    ):
        path = write_params(tmp_path, WRONG_BRANCH)
        code, out, _ = run_cli(capsys, "check", path)
        assert code == MATH_FAILURE
        doc = json.loads(out)
        assert doc["verdict"]["agreement"] is False
        diagnosis = doc["verdict"]["branch-diagnosis"]
        assert diagnosis["resolved"] is True
        assert diagnosis["flipped-r-sign"] == -1

    def test_flipped_branch_restores_agreement(self, tmp_path, capsys):
        path = write_params(tmp_path, WRONG_BRANCH)
        code, out, _ = run_cli(capsys, "check", path, "--r-sign", "-1")
        assert code == OK
        assert json.loads(out)["verdict"]["agreement"] is True

    def test_regime_cannot_be_overridden(self, tmp_path, capsys):
        path = write_params(tmp_path, ALL_ONES)
        code, out, err = run_cli(capsys, "check", path, "--force-regime", "equal")
        assert code == INPUT_ERROR
        assert out == ""
        assert "unrecognized arguments: --force-regime equal" in err

    @pytest.mark.parametrize(
        "doc, regime, conditions, decision",
        [
            (ALL_ONES, "equal_x", 4, "reducible"),
            (Y_EQUALS_Z_DISTINCT_X, "distinct_x", 4, "irreducible"),
        ],
    )
    def test_regime_is_detected_from_x(
        self, tmp_path, capsys, doc, regime, conditions, decision
    ):
        path = write_params(tmp_path, doc)
        code, out, _ = run_cli(capsys, "check", path)
        assert code == OK
        verdict = json.loads(out)["verdict"]
        assert verdict["regime"] == regime
        assert len(verdict["conditions"]) == conditions
        assert verdict["theorem-decision"] == decision
        assert verdict["agreement"] is True

    @pytest.mark.parametrize(
        "doc, flags, builds",
        [
            (ALL_ONES, [], 1),
            (IRREDUCIBLE_POINT, ["--r-sign", "-1"], 1),
            # disagreement: decide also builds the flipped branch
            (WRONG_BRANCH, [], 2),
            (WRONG_BRANCH, ["--r-sign", "-1"], 1),
        ],
    )
    def test_each_triple_is_built_once(
        self, tmp_path, capsys, monkeypatch, doc, flags, builds
    ):
        from heckeg7 import cli, irreducibility

        calls = []
        for module in (cli, irreducibility):
            for name in ("build_general", "build_equal_x"):
                original = getattr(module, name)
                monkeypatch.setattr(
                    module,
                    name,
                    lambda p, s, _f=original: calls.append(s) or _f(p, s),
                )
        path = write_params(tmp_path, doc)
        _, out, _ = run_cli(capsys, "check", path, *flags)
        assert len(calls) == builds
        _, rel_out, _ = run_cli(capsys, "relations", path, *flags)
        relations = json.loads(rel_out)
        assert json.loads(out)["relations"] == {
            "braid-residual": relations["braid-residual"],
            "hecke-residuals": relations["hecke-residuals"],
        }

    def test_polar_and_cartesian_forms_agree(self, tmp_path, capsys):
        polar = {
            name: {"modulus": 1, "argument": 0.0}
            for name in ("x1", "x2", "y1", "y2", "z1", "z2")
        }
        path_a = write_params(tmp_path, ALL_ONES, "a.json")
        path_b = write_params(tmp_path, polar, "b.json")
        _, out_a, _ = run_cli(capsys, "check", path_a)
        _, out_b, _ = run_cli(capsys, "check", path_b)
        assert out_a == out_b


class TestInputErrors:
    def test_missing_field_is_named(self, tmp_path, capsys):
        doc = {k: v for k, v in ALL_ONES.items() if k != "z2"}
        path = write_params(tmp_path, doc)
        code, _, err = run_cli(capsys, "check", path)
        assert code == INPUT_ERROR
        assert "z2" in err

    def test_unknown_field_is_named(self, tmp_path, capsys):
        doc = dict(ALL_ONES, q7={"re": 1, "im": 0})
        path = write_params(tmp_path, doc)
        code, _, err = run_cli(capsys, "check", path)
        assert code == INPUT_ERROR
        assert "q7" in err

    @pytest.mark.parametrize("command", ["check", "relations"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param(
                dict(ALL_ONES, x1=3),
                "{path}: x1: expected an object with re/im or modulus/argument keys",
                id="value-not-an-object",
            ),
            pytest.param(
                dict(ALL_ONES, x1={"re": "1", "im": 0}),
                "{path}: x1.re: expected a number, got str", id="part-is-a-string",
            ),
            pytest.param(
                dict(ALL_ONES, x1={"re": True, "im": 0}),
                "{path}: x1.re: expected a number, got bool", id="part-is-a-bool",
            ),
            pytest.param(
                dict(ALL_ONES, x1={"modulus": -1, "argument": 0}),
                "{path}: x1.modulus: must be >= 0", id="negative-modulus",
            ),
            # A non-finite polar modulus takes cmath.rect's special-value
            # branch, (inf, 0) -> inf+0j, where the written-out formula
            # gives inf+nanj; Params refuses both alike.
            pytest.param(
                dict(ALL_ONES, x1={"modulus": math.inf, "argument": 0}),
                "{path}: x1 is not finite", id="infinite-modulus-argument-0",
            ),
            pytest.param(
                dict(ALL_ONES, x1={"modulus": math.inf, "argument": 1}),
                "{path}: x1 is not finite", id="infinite-modulus-argument-1",
            ),
            pytest.param(
                dict(ALL_ONES, x1={"modulus": math.nan, "argument": 1}),
                "{path}: x1 is not finite", id="nan-modulus",
            ),
            pytest.param(
                dict(ALL_ONES, x1={"re": math.inf, "im": 0}),
                "{path}: x1 is not finite", id="infinite-re",
            ),
        ],
    )
    def test_refused_value_is_one_error_line(self, tmp_path, capsys, command, doc, message):
        path = write_params(tmp_path, doc)
        code, out, err = run_cli(capsys, command, path)
        assert_one_error_line(code, out, err, message.format(path=path))

    def test_top_level_list_is_one_error_line(self, tmp_path, capsys):
        path = write_params(tmp_path, [ALL_ONES])
        code, out, err = run_cli(capsys, "check", path)
        assert_one_error_line(code, out, err, f"{path}: top level must be a JSON object")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == INPUT_ERROR
        assert "invalid JSON" in err

    @pytest.mark.parametrize("digits", [401, 5000])
    def test_number_too_large_for_a_float_is_one_error_line(self, tmp_path, capsys, digits):
        # 401 digits overflow float(); 5000 exceed the int digit limit that
        # json.loads enforces on Python versions that have one
        path = tmp_path / "huge.json"
        text = json.dumps(dict(ALL_ONES, x1={"re": 0, "im": 0}))
        path.write_text(text.replace('"re": 0', '"re": 1' + "0" * (digits - 1), 1))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (INPUT_ERROR, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if digits == 401:
            assert err.startswith(f"error: {path}: x1.re: ")

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param("check", "[" * 100_000 + "]" * 100_000, id="check-arrays"),
            pytest.param(
                "relations", '{"a": ' * 50_000 + "1" + "}" * 50_000, id="relations-objects"
            ),
        ],
    )
    def test_nesting_too_deep_is_one_error_line(self, tmp_path, capsys, command, text):
        # json.loads raises RecursionError, not ValueError, past its depth limit
        path = tmp_path / "nested.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (INPUT_ERROR, "")
        assert err.startswith(f"error: {path}: invalid JSON (maximum recursion depth")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_nonexistent_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.json"))
        assert code == INPUT_ERROR
        assert "cannot read" in err

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        # a UTF-16 file with its byte-order mark ff fe
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(ALL_ONES).encode("utf-16-le"))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (INPUT_ERROR, "")
        assert err.startswith(f"error: cannot read parameter file {path}: ")
        assert err.count("\n") == 1

    def test_argument_out_of_range_is_named(self, tmp_path, capsys):
        doc = dict(ALL_ONES, x1={"modulus": 1, "argument": 4.0})
        path = write_params(tmp_path, doc)
        code, _, err = run_cli(capsys, "check", path)
        assert code == INPUT_ERROR
        assert "x1.argument" in err

    def test_mixed_key_object_rejected(self, tmp_path, capsys):
        doc = dict(ALL_ONES, y1={"re": 1, "argument": 0})
        path = write_params(tmp_path, doc)
        code, _, err = run_cli(capsys, "check", path)
        assert code == INPUT_ERROR
        assert "y1" in err

    def test_zero_parameter_rejected(self, tmp_path, capsys):
        doc = dict(ALL_ONES, z1={"re": 0, "im": 0})
        path = write_params(tmp_path, doc)
        code, _, err = run_cli(capsys, "check", path)
        assert code == INPUT_ERROR
        assert "nonzero" in err

    @pytest.mark.parametrize("command", ["check", "sweep", "relations"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_nonpositive_tolerance_rejected(self, tmp_path, capsys, command, value):
        path = write_params(tmp_path, ALL_ONES)
        argv = [command] if command == "sweep" else [command, path]
        code, out, err = run_cli(capsys, *argv, "--tolerance", value)
        assert (code, out) == (INPUT_ERROR, "")
        assert err == "error: --tolerance must be positive and finite\n"

    @pytest.mark.parametrize("command", ["check", "sweep", "relations"])
    @pytest.mark.parametrize("value", ["inf", "1e999"])
    @pytest.mark.parametrize("output", ["json", "text"])
    def test_non_finite_tolerance_rejected(self, tmp_path, capsys, command, value, output):
        # an infinite tolerance makes every condition hold: the irreducible
        # point would read reducible, and a sweep would agree everywhere
        path = write_params(tmp_path, IRREDUCIBLE_POINT)
        argv = [command] if command == "sweep" else [command, path]
        code, out, err = run_cli(
            capsys, *argv, "--tolerance", value, "--output", output
        )
        assert_one_error_line(
            code, out, err, "--tolerance must be positive and finite"
        )

    @pytest.mark.parametrize("flag", [["--r-sign", "-1"], ["--tolerance", "1e-9"]])
    def test_identities_takes_no_sign_or_tolerance(self, capsys, flag):
        code, out, err = run_cli(capsys, "identities", *flag)
        assert (code, out) == (INPUT_ERROR, "")
        assert f"unrecognized arguments: {flag[0]}" in err

    def test_bad_flag_value_reported_as_input_error(self, tmp_path, capsys):
        path = write_params(tmp_path, ALL_ONES)
        code, _, err = run_cli(capsys, "check", path, "--r-sign", "0")
        assert code == INPUT_ERROR
        assert "--r-sign" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == INPUT_ERROR


def assert_one_error_line(code, out, err, message=None):
    assert (code, out) == (INPUT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if message is not None:
        assert err == f"error: {message}\n"


# Each field {"modulus": 10 ** e, "argument": a} with e in [-160, 160] and
# a in [-3.14, 3.14]: finite, nonzero, and often far beyond what the float
# arithmetic of the matrices, the criteria or the oracle can carry.
extreme_points = st.fixed_dictionaries({
    name: st.builds(
        lambda e, a: {"modulus": 10.0 ** e, "argument": a},
        st.floats(-160.0, 160.0),
        st.floats(-3.14, 3.14),
    )
    for name in ALL_ONES
})


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestExtremePoints:
    """Every finite, nonzero point ends in a verdict or in one error line,
    and a verdict's stdout is JSON: never NaN or Infinity."""

    @given(doc=extreme_points)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_no_point_escapes_main(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "extreme.json"
        path.write_text(json.dumps(doc))
        for command in ("check", "relations"):
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, str(path)])
            assert code in (OK, INPUT_ERROR, MATH_FAILURE)
            if code == INPUT_ERROR:
                assert_one_error_line(code, out.getvalue(), err.getvalue())
            else:
                json.loads(out.getvalue(), parse_constant=refuse_constant)

    @pytest.mark.parametrize(
        "fields",
        [
            # s1 = [[1e200, b], [0, 1e-200]]: (a - d) ** 2 raises OverflowError
            pytest.param(
                {"x1": {"re": 1e200, "im": 0}, "x2": {"re": 1e-200, "im": 0}},
                id="gap-squared",
            ),
            # a = 1e160 + 1e160i: (a - d) ** 2 is NaN, so is the eigenvalue,
            # and its kernel direction has no nonzero pivot
            pytest.param({"x1": {"re": 1e160, "im": 1e160}}, id="nan-eigenvalue"),
        ],
    )
    def test_oracle_overflow_is_one_error_line(self, tmp_path, capsys, fields):
        doc = dict(ALL_ONES, **fields)
        code, out, err = run_cli(capsys, "check", write_params(tmp_path, doc))
        assert_one_error_line(
            code, out, err, "parameter magnitudes overflow the criteria or the oracle"
        )

    @pytest.mark.parametrize("output", ["json", "text"])
    @pytest.mark.parametrize(
        "doc",
        [
            # the criteria's x1*y1*z1 is 1e360: inf, and its flag held
            pytest.param(
                {
                    name: {"re": 1e120 if name.endswith("1") else 1e-120, "im": 0}
                    for name in ALL_ONES
                },
                id="inf-side",
            ),
            # x1*y2*z2 = (1e160 + 1e160i)*(1e160 + 1e160i) is nan+infi
            pytest.param(
                dict(
                    ALL_ONES,
                    x1={"re": 1, "im": 1}, x2={"re": 1e80, "im": 0},
                    y2={"re": 1e160, "im": 0}, z1={"re": 1e-160, "im": 0},
                    z2={"re": 1e160, "im": 1e160},
                ),
                id="nan-part-side",
            ),
        ],
    )
    def test_a_non_finite_result_is_one_error_line(self, tmp_path, capsys, doc, output):
        # every matrix entry is finite, but a side of the criteria is not:
        # both output forms refuse it rather than decide on it
        code, out, err = run_cli(
            capsys, "check", write_params(tmp_path, doc), "--output", output
        )
        assert_one_error_line(
            code, out, err, "parameter magnitudes overflow the criteria or the oracle"
        )

    @pytest.mark.parametrize("command", ["check", "relations"])
    def test_underflowing_denominator_is_one_error_line(self, tmp_path, capsys, command):
        # y1*y2 underflows to 0, though r = sqrt(1e300 * 1e-400) does not
        doc = dict(
            ALL_ONES,
            x1={"re": 1e150, "im": 0}, x2={"re": 1e150, "im": 0},
            y1={"re": 1e-200, "im": 0}, y2={"re": 1e-200, "im": 0},
        )
        code, out, err = run_cli(capsys, command, write_params(tmp_path, doc))
        assert_one_error_line(
            code, out, err, "parameter magnitudes underflow a denominator to zero"
        )


class TestIdentities:
    def test_full_suite(self, capsys):
        code, out, _ = run_cli(capsys, "identities")
        assert code == OK
        doc = json.loads(out)
        assert doc["kind"] == "identity-reports"
        assert doc["failed"] == 0
        assert len(doc["reports"]) == 6

    def test_single_selection(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--only", "w-factorization")
        assert code == OK
        doc = json.loads(out)
        assert [rep["name"] for rep in doc["reports"]] == ["w-factorization"]

    def test_unknown_name_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "identities", "--only", "bogus")
        assert code == INPUT_ERROR
        assert "available" in err

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--output", "text")
        assert code == OK
        assert "failed reports: 0" in out

    def test_text_output_names_each_failed_check_and_its_residual(
        self, capsys, monkeypatch
    ):
        from heckeg7 import identities

        original = identities.conjugated_upper_right_numerator
        monkeypatch.setattr(
            identities, "conjugated_upper_right_numerator", lambda: original() + identities.X1
        )
        code, out, err = run_cli(capsys, "identities", "--output", "text")
        assert (code, err) == (MATH_FAILURE, "")
        lines = out.splitlines()
        assert "conjugated-upper-right-vanishing: failed" in lines
        failed = lines.index(
            "  FAILED: distinct-x-1: numerator vanishes at induced root sign +1"
        )
        assert lines[failed + 1] == "    residual: (x2*y1*z1) / (y2*z2)"
        assert lines[-1] == "failed reports: 2"

    def test_stdout_matches_the_golden_document(self, capsys):
        # tests/fixtures/identities.json is a recorded `heckeg7 identities`
        # stdout; regenerate it when a report or a check is added
        code, out, _ = run_cli(capsys, "identities")
        assert code == OK
        assert out == GOLDEN_IDENTITIES.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "name", [rep["name"] for rep in json.loads(GOLDEN_IDENTITIES.read_text())["reports"]]
    )
    def test_single_report_matches_the_golden_document(self, capsys, name):
        golden = json.loads(GOLDEN_IDENTITIES.read_text(encoding="utf-8"))
        golden["reports"] = [rep for rep in golden["reports"] if rep["name"] == name]
        code, out, _ = run_cli(capsys, "identities", "--only", name)
        assert code == OK
        assert out == json.dumps(golden, sort_keys=True, indent=2) + "\n"


class TestRelations:
    def test_residuals_within_tolerance(self, tmp_path, capsys):
        path = write_params(tmp_path, ALL_ONES)
        code, out, _ = run_cli(capsys, "relations", path)
        assert code == OK
        doc = json.loads(out)
        assert doc["kind"] == "relation-residuals"
        assert doc["within-tolerance"] is True
        assert doc["braid-residual"] == 0.0

    def test_cubic_rows_present_with_optional_thirds(self, tmp_path, capsys):
        doc = dict(
            ALL_ONES, y3={"re": 2, "im": 0}, z3={"re": 3, "im": 0}
        )
        path = write_params(tmp_path, doc)
        code, out, _ = run_cli(capsys, "relations", path)
        assert code == OK
        residuals = json.loads(out)["hecke-residuals"]
        assert "s2_cubic" in residuals and "s3_cubic" in residuals

    def test_text_output(self, tmp_path, capsys):
        path = write_params(tmp_path, dict(ALL_ONES, y3={"re": 2, "im": 0}))
        code, out, err = run_cli(capsys, "relations", path, "--output", "text")
        assert (code, err) == (OK, "")
        assert out == (
            "regime: equal_x (r sign +1)\n"
            "braid residual: 0.000e+00\n"
            "s1 relation residual: 0.000e+00\n"
            "s2 relation residual: 0.000e+00\n"
            "s2_cubic relation residual: 0.000e+00\n"
            "s3 relation residual: 0.000e+00\n"
            "within tolerance 1e-09: yes\n"
        )

    def test_nan_residual_is_outside_the_tolerance(self, tmp_path, capsys):
        # a NaN residual is not <= any tolerance; the text form still prints it
        path = write_params(tmp_path, NAN_RESIDUAL_POINT)
        code, out, err = run_cli(capsys, "relations", path, "--output", "text")
        assert (code, err) == (MATH_FAILURE, "")
        assert "s2 relation residual: nan" in out.splitlines()
        assert out.endswith("within tolerance 1e-09: no\n")
        code, out, err = run_cli(capsys, "relations", path)
        assert_one_error_line(code, out, err)
        assert "nan" in err

    def test_unreachable_tolerance_exits_two(self, tmp_path, capsys):
        path = write_params(tmp_path, WRONG_BRANCH)
        code, out, _ = run_cli(
            capsys, "relations", path, "--tolerance", "1e-300"
        )
        assert code == MATH_FAILURE
        assert json.loads(out)["within-tolerance"] is False


class TestSweep:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--samples", "50")
        assert code == OK
        doc = json.loads(out)
        assert doc["kind"] == "sweep-summary"
        assert sum(doc["counts"].values()) == 50

    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--samples", "50", "--output", "text")
        assert (code, err) == (OK, "")
        assert out == (
            "samples: 50 (domain positive-real, seed 42)\n"
            "agree-irreducible: 45\n"
            "agree-reducible: 5\n"
            "disagree-resolved-by-branch: 0\n"
            "disagree-unresolved: 0\n"
            "injected reducible tuples: 5 "
            "(distinct-x-1=1 distinct-x-2=1 equal-x-1=2 equal-x-2=1)\n"
            "witness failures: 0\n"
            "predicted-direction mismatches: 0\n"
            "archived disagreements: 0\n"
        )

    def test_byte_identical_reruns(self, capsys):
        args = ("sweep", "--samples", "120", "--seed", "99")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == OK
        assert out_a == out_b

    def test_fixtures_out_written(self, tmp_path, capsys):
        target = tmp_path / "fixtures.json"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--samples",
            "400",
            "--domain",
            "general-complex",
            "--fixtures-out",
            str(target),
        )
        assert code == OK
        doc = json.loads(target.read_text())
        assert doc["kind"] == "disagreement-fixtures"
        assert doc["config"]["domain"] == "general-complex"
        assert isinstance(doc["disagreements"], list)

    def test_regime_filter_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--samples", "100", "--regime-filter", "equal"
        )
        assert code == OK
        doc = json.loads(out)
        assert doc["config"]["regime-filter"] == "equal_x"
        assert all(
            k.startswith("equal") for k in doc["injected"]["per-case"]
        )

    def test_invalid_samples_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--samples", "0")
        assert code == INPUT_ERROR
        assert "samples" in err

    def test_invalid_domain_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--domain", "made-up")
        assert code == INPUT_ERROR

    @pytest.mark.parametrize(
        "band, message",
        [
            (("350", "400"), "log10 modulus bound 350 overflows"),
            (("nan", "1"), "log10 modulus bound nan is not finite"),
            (("-1", "inf"), "log10 modulus bound inf is not finite"),
            (("-400", "-390"), "log10 modulus bound -400 underflows"),
            (("-330", "-300"), "log10 modulus bound -330 underflows"),
        ],
    )
    def test_unrepresentable_modulus_band_exits_one(self, capsys, band, message):
        # 10 ** 350 is no float and 10 ** -400 rounds to 0.0: the band is
        # refused before anything is drawn
        code, out, err = run_cli(
            capsys, "sweep", "--samples", "20",
            "--log10-modulus-min", band[0], "--log10-modulus-max", band[1],
        )
        assert code == INPUT_ERROR
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    def test_overflowing_matrix_entries_exit_one(self, capsys):
        # 10 ** 150 is a float, but the generator entries overflow
        code, out, err = run_cli(
            capsys, "sweep", "--samples", "20", "--domain", "positive-real",
            "--log10-modulus-min", "-150", "--log10-modulus-max", "150",
        )
        assert code == INPUT_ERROR
        assert out == ""
        assert err == "error: parameter magnitudes overflow the matrix entries\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # every solved z1 of equal-x-1 leaves [1e-6, 1e6] in this band
            (("--samples", "200", "--log10-modulus-min", "-10",
              "--log10-modulus-max", "-5"),
             "could not construct a sane tuple for case equal-x-1"),
            # every modulus is 1, so x1 and x2 are never separated
            (("--samples", "5", "--domain", "positive-real",
              "--log10-modulus-min", "0", "--log10-modulus-max", "0",
              "--regime-filter", "distinct", "--inject-reducible-rate", "0"),
             "could not draw a sample satisfying the regime filter"),
        ],
    )
    def test_band_without_a_sane_draw_exits_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == INPUT_ERROR
        assert out == ""
        assert err == f"error: {message}\n"

    def test_overflowing_oracle_arithmetic_exits_one(self, capsys):
        # every built triple is finite, but a later sample overflows decide
        code, out, err = run_cli(
            capsys, "sweep", "--samples", "300", "--domain", "general-complex",
            "--log10-modulus-min", "-100", "--log10-modulus-max", "100",
        )
        assert_one_error_line(
            code, out, err, "parameter magnitudes overflow the criteria or the oracle"
        )

    def test_failed_fixtures_write_leaves_stdout_empty(self, tmp_path, capsys):
        target = tmp_path / "missing" / "fx.json"
        code, out, err = run_cli(
            capsys, "sweep", "--samples", "50", "--fixtures-out", str(target)
        )
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: cannot write {target}: ")


class TestOneProcess:
    # main() builds its parser on the first call and reuses it, so a warm
    # process must answer every later request exactly as a fresh one would
    def test_repeated_requests_repeat_their_output_with_one_parser(
        self, tmp_path, capsys, monkeypatch
    ):
        from heckeg7 import cli

        path = write_params(tmp_path, WRONG_BRANCH)
        requests = [
            ["check", path],
            ["check", path, "--output", "text"],
            ["check", path, "--r-sign", "-1"],
            ["check", path, "--r-sign", "-1", "--output", "text"],
            ["relations", path],
            ["sweep", "--samples", "50"],
            ["identities", "--only", "w-factorization"],
            ["check", path, "--r-sig", "-1", "--out=text"],
            ["sweep", "--samp=50", "--tol", "1e-9"],
            ["check", path, "--r-sign", "2"],
            ["frobnicate"],
            ["check", path, "--tolerance", "0"],
            ["check", str(tmp_path / "missing.json")],
            ["--help"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        builds = []
        build_parser = cli.build_parser
        cli._parser.cache_clear()
        monkeypatch.setattr(
            cli, "build_parser", lambda: builds.append(1) or build_parser()
        )
        first = [run(argv) for argv in requests]
        second = [run(argv) for argv in requests]
        assert len(builds) == 1
        assert [code for code, _, _ in first] == [
            MATH_FAILURE, MATH_FAILURE, OK, OK, OK, OK, OK, OK, OK,
            INPUT_ERROR, INPUT_ERROR, INPUT_ERROR, INPUT_ERROR, ("SystemExit", 0),
        ]
        assert "usage: heckeg7" in first[-1][1]
        # abbreviated and "=" forms answer as the full flags do
        assert first[7] == first[3]
        assert first[8] == first[5]
        assert second == first

        src = Path(__file__).resolve().parents[1] / "src"
        fresh = subprocess.run(
            [sys.executable, "-m", "heckeg7", *requests[0]],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == first[0]


# What the wrapper script written by an install does with the declared
# "module:attribute" target: import it and hand its result to sys.exit.
RUN_ENTRY_POINT = """
import importlib, sys
module, _, attribute = sys.argv[1].partition(":")
target = getattr(importlib.import_module(module), attribute)
sys.argv = ["heckeg7", *sys.argv[2:]]
sys.exit(target())
"""


def declared_console_script():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"]["heckeg7"]


def check_console_command(command):
    ok = subprocess.run(
        [*command, "identities", "--only", "w-factorization"],
        capture_output=True,
        text=True,
    )
    assert ok.returncode == OK, ok.stderr
    assert json.loads(ok.stdout)["failed"] == 0
    # A nonzero exit code must reach the shell, not just a zero one.
    bad = subprocess.run(
        [*command, "identities", "--only", "bogus"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == INPUT_ERROR, bad.stderr


class TestEntryPoints:
    def test_console_script(self):
        check_console_command(
            [sys.executable, "-c", RUN_ENTRY_POINT, declared_console_script()]
        )

    @pytest.mark.skipif(
        shutil.which("heckeg7") is None,
        reason="no heckeg7 on PATH; the wrapper script exists only after an install",
    )
    def test_installed_wrapper_script(self):
        check_console_command(["heckeg7"])

    def test_cold_import_leaves_out_dataclasses_inspect_and_typing(self):
        # dataclasses (and the inspect it imports) were most of the import
        # time of heckeg7.cli, and typing.NamedTuple records cost most of the
        # rest; argparse, and the gettext and locale its first parser build
        # imported, cost most of a cold request's parser build.  -S keeps
        # site from importing anything first.
        # The package __init__ imports nothing, so heckeg7.cli's own imports
        # must load the modules perfbench/worker.py reads from sys.modules.
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import io, sys; from heckeg7.cli import build_parser, main; build_parser(); "
                "sys.stdout = io.StringIO(); "
                "code = main(['identities', '--only', 'w-factorization']); "
                "sys.stdout = sys.__stdout__; assert code == 0, code; "
                "print(sorted({'dataclasses', 'inspect', 'typing', 'argparse', 'gettext', "
                "'locale'} & set(sys.modules))); "
                "print(' '.join(m for m in sys.modules if m.startswith('heckeg7.')))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        heavy, loaded = proc.stdout.splitlines()
        assert heavy == "[]"
        worker_modules = {
            "cli", "sweep", "irreducibility", "representation", "matrix2",
            "identities", "exact",
        }
        assert {f"heckeg7.{name}" for name in worker_modules} <= set(loaded.split())

    def test_import_builds_no_parser(self):
        # a fresh interpreter (setup_s, one-shot runs) pays for the import
        # alone; the first main() call builds the parser through the
        # cli.build_parser global (which perfbench/tracing.py wraps) and
        # later calls reuse it.  A profile hook counts every build_parser
        # call, the import included; the wrapper counts those through the
        # global.
        script = """
import json, sys
calls = []
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "build_parser":
        calls.append(1)
sys.setprofile(profile)
import heckeg7.cli as cli
counts = [len(calls)]
build_parser = cli.build_parser
through_global = []
cli.build_parser = lambda: through_global.append(1) or build_parser()
for _ in range(2):
    cli.main(["identities", "--only", "bogus"])
    counts.append([len(calls), len(through_global)])
sys.setprofile(None)
print(json.dumps(counts))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        imported, first, second = json.loads(proc.stdout)
        assert imported == 0
        assert first == second == [1, 1]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heckeg7", "identities", "--output", "text"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "failed reports: 0" in proc.stdout
