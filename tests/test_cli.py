"""Command-line interface: formats, exit codes, determinism, entry points."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
        assert "agreement: yes" in out
        assert "criteria decision: reducible" in out

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

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == INPUT_ERROR
        assert "invalid JSON" in err

    def test_nonexistent_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.json"))
        assert code == INPUT_ERROR
        assert "cannot read" in err

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

    def test_nonpositive_tolerance_rejected(self, tmp_path, capsys):
        path = write_params(tmp_path, ALL_ONES)
        code, _, err = run_cli(capsys, "check", path, "--tolerance", "-1")
        assert code == INPUT_ERROR
        assert "tolerance" in err

    def test_bad_flag_value_reported_as_input_error(self, tmp_path, capsys):
        path = write_params(tmp_path, ALL_ONES)
        code, _, err = run_cli(capsys, "check", path, "--r-sign", "0")
        assert code == INPUT_ERROR
        assert "--r-sign" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == INPUT_ERROR


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

    def test_cold_import_leaves_out_dataclasses_and_inspect(self):
        # dataclasses (and the inspect it imports) were most of the import
        # time of heckeg7.cli; -S keeps site from importing anything first
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import sys; from heckeg7.cli import build_parser; build_parser(); "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heckeg7", "identities", "--output", "text"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "failed reports: 0" in proc.stdout
