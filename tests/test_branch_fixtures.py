"""Archived points where only a root-branch flip reconciles the two deciders."""

import json
import pathlib

import pytest

from heckeg7.irreducibility import decide
from heckeg7.render import diagnosis_as_dict
from heckeg7.representation import Params

FIXTURE_PATH = (
    pathlib.Path(__file__).parent / "fixtures" / "branch_disagreements.json"
)


def load_fixtures():
    doc = json.loads(FIXTURE_PATH.read_text())
    assert doc["schema_version"] == 1
    assert doc["kind"] == "branch-disagreement-fixtures"
    return doc["fixtures"]


def to_params(entry: dict) -> Params:
    values = {
        name: complex(field["re"], field["im"])
        for name, field in entry["params"].items()
    }
    return Params(**values)


FIXTURES = load_fixtures()


def test_corpus_has_both_constructed_and_sweep_found_points():
    sources = {entry["source"] for entry in FIXTURES}
    assert sources == {"constructed", "sweep"}
    assert len(FIXTURES) >= 4


@pytest.mark.parametrize(
    "entry", FIXTURES, ids=[entry["name"] for entry in FIXTURES]
)
def test_disagrees_on_default_branch(entry):
    verdict = decide(to_params(entry))
    assert not verdict.agreement
    diagnosis = verdict.branch_diagnosis
    assert diagnosis.resolved
    rendered = diagnosis_as_dict(verdict)
    assert rendered["flipped-r-sign"] == -1


@pytest.mark.parametrize(
    "entry", FIXTURES, ids=[entry["name"] for entry in FIXTURES]
)
def test_agrees_on_flipped_branch(entry):
    verdict = decide(to_params(entry), r_sign=-1)
    assert verdict.agreement
