"""The JSON renderer: its bytes are the stdlib's sorted, indent-2 bytes."""

import enum
import json
import math
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeg7 import cli, render
from heckeg7.cli import INPUT_ERROR, MATH_FAILURE, OK, main
from heckeg7.representation import InvalidParams


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# the encoder against the stdlib

SPECIAL_CHARACTERS = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", " ", "\ud800", "\U0001f600"]
)
TEXT = st.text(st.characters() | SPECIAL_CHARACTERS, max_size=12)
# finite floats: dumps refuses the others (test_a_non_finite_float_raises_invalid_params)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]
)
INTS = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
TREES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(TEXT, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=400, derandomize=True)
@given(TREES)
def test_matches_the_stdlib_on_json_shaped_trees(doc):
    assert render.dumps(doc) == stdlib(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        (),
        [[]],
        [{}],
        {"a": {}},
        {"a": []},
        [[[], {}], {"b": [[]]}],
        "",
        0,
        -(10**60),
        True,
        None,
        -0.0,
        {"é": 1, "e": 2, "E": 3, "": 4},
    ],
    ids=repr,
)
def test_matches_the_stdlib_on_edge_documents(doc):
    assert render.dumps(doc) == stdlib(doc)


class Point(NamedTuple):
    x: float
    y: float


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


class Weight(float):
    pass


def test_matches_the_stdlib_on_subclasses_of_json_types():
    doc = {Name("k"): [Point(1.5, -2.0), Colour.RED, Name("v"), Weight(0.25)]}
    assert render.dumps(doc) == stdlib(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, Weight(math.inf)], ids=repr)
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: {"a": [1.0, {"b": v}]}, lambda v: (v,)])
def test_a_non_finite_float_raises_invalid_params(value, wrap):
    # the stdlib would write NaN or Infinity, which is not JSON
    with pytest.raises(InvalidParams, match="which JSON cannot carry"):
        render.dumps(wrap(value))


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": 1, 2: "b"}, {None: 0}], ids=repr)
def test_a_key_that_is_not_a_str_raises_type_error(doc):
    with pytest.raises(TypeError):
        render.dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [1j, {"a": 1j}, [{1, 2}], {"a": [b"bytes"]}, object()],
    # fixed ids: repr(object()) holds a memory address
    ids=["complex", "dict-complex", "list-set", "nested-bytes", "object"],
)
def test_an_unsupported_value_raises_type_error(doc):
    with pytest.raises(TypeError, match="not JSON serializable"):
        render.dumps(doc)


# ---------------------------------------------------------------------------
# every JSON document the command line writes

BRANCH_FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "branch_disagreements.json").read_text()
)["fixtures"]
WIDE_BAND = ("--log10-modulus-min", "-3", "--log10-modulus-max", "3")


def stdout_of(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code in (OK, MATH_FAILURE), (argv, code)
    return out


def assert_stdlib_bytes(text: str) -> None:
    assert text == stdlib(json.loads(text)) + "\n"


@pytest.mark.parametrize("band", [(), WIDE_BAND], ids=["default-band", "wide-band"])
@pytest.mark.parametrize("domain", ["positive-real", "unit-modulus", "general-complex"])
def test_sweep_stdout_is_the_stdlib_encoding(capsys, domain, band):
    out = stdout_of(
        capsys, "sweep", "--samples", "300", "--seed", "5", "--domain", domain, *band
    )
    assert_stdlib_bytes(out)


@pytest.mark.parametrize("r_sign", ["1", "-1"])
@pytest.mark.parametrize("command", ["check", "relations"])
@pytest.mark.parametrize("entry", BRANCH_FIXTURES, ids=lambda e: e["name"])
def test_check_and_relations_stdout_is_the_stdlib_encoding(
    tmp_path, capsys, entry, command, r_sign
):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(entry["params"]))
    assert_stdlib_bytes(stdout_of(capsys, command, str(path), "--r-sign", r_sign))


def test_identities_stdout_is_the_stdlib_encoding(capsys):
    assert_stdlib_bytes(stdout_of(capsys, "identities"))


@pytest.mark.parametrize(
    "config",
    [
        # every disagreement of the +-3 band is resolved by a branch flip
        ("--domain", "general-complex", *WIDE_BAND),
        # x1 = x2 throughout: equal-x points report the same four conditions
        ("--domain", "unit-modulus", "--regime-filter", "equal"),
    ],
    ids=["general-complex-wide-band", "unit-modulus-equal-x"],
)
def test_sweep_disagreements_are_the_stdlib_encoding(capsys, config):
    code = main(["sweep", "--samples", "1000", "--seed", "5", *config])
    out = capsys.readouterr().out
    assert code == OK
    records = json.loads(out)["disagreements"]
    assert records  # the checks cover real records
    assert_stdlib_bytes(out)
    for record in records:
        verdict = record["verdict"]
        assert len(verdict["conditions"]) == 4
        assert "conditions" not in (verdict["branch-diagnosis"] or {})


def test_a_non_finite_sweep_document_leaves_no_stdout(capsys, monkeypatch):
    real_run_sweep = cli.run_sweep

    def run_sweep_with_a_nan(cfg):
        result = real_run_sweep(cfg)
        doc = result.as_dict()
        doc["disagreements"] = [{"index": 0, "margin": math.nan}]
        return SimpleNamespace(as_dict=lambda: doc, unresolved=result.unresolved)

    monkeypatch.setattr(cli, "run_sweep", run_sweep_with_a_nan)
    code = main(["sweep", "--samples", "20"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (INPUT_ERROR, "")
    assert captured.err.startswith("error: a result is nan") and captured.err.count("\n") == 1
