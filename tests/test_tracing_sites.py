"""The names perfbench/tracing.py wraps exist, are restored, and are the
names one decide actually goes through.

The tracer replaces module attributes by name, so a module that stops
importing a traced name makes install_all raise, and a function that stops
calling a wrapped name through its module global leaves that layer's
per-layer metric at 0.  Both are checked here, in a plain checkout, along
with what perfbench/workloads.py reads from the package to write the
check-corpus workload.
"""

import importlib.util
import math
from pathlib import Path

from heckeg7 import cli, exact, identities, irreducibility, matrix2, representation, sweep
from heckeg7.irreducibility import ALL_CASES, decide
from heckeg7.numerics import from_polar
from heckeg7.representation import Params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
MODULES = {
    "cli": cli,
    "sweep": sweep,
    "irreducibility": irreducibility,
    "representation": representation,
    "matrix2": matrix2,
    "identities": identities,
    "exact": exact,
}
# Every namespace install_all may replace an entry of.
NAMESPACES = [
    *MODULES.values(),
    sweep.SweepResult,
    representation.Params,
    exact.Poly,
    exact.ExtElem,
    exact.RatElem,
]

# The wrapped names a decide reaches, and how often at an agreeing point
# whose first generator is semisimple: one build of twelve checked entries,
# one eigen-classification of s1.  Params.validate runs when the point is
# made, not in decide.
DECIDE_SITES = {
    (irreducibility, "theorem_verdict"): 1,
    (irreducibility, "build_general"): 1,
    (irreducibility, "oracle_verdict"): 1,
    (irreducibility, "common_eigenvector"): 1,
    (matrix2, "eigen_directions"): 1,
    (representation, "is_finite"): 12,
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return {id(ns): dict(vars(ns)) for ns in NAMESPACES} | {
        "registry": dict(identities.REGISTRY)
    }


def test_install_all_wraps_every_name_and_restore_puts_them_back():
    tracing = load_tracing()
    before = snapshot()
    tracer = tracing.Tracer()
    try:
        tracing.install_all(tracer, MODULES)
        for (owner, attr) in [*DECIDE_SITES, (representation.Params, "validate")]:
            wrapped = vars(owner)[attr]
            assert wrapped.__wrapped__ is before[id(owner)][attr], (owner, attr)
    finally:
        tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys(), key
        for name, value in names.items():
            assert after[key][name] is value, (key, name)


def count_calls(monkeypatch, sites, counts):
    """Replace each (owner, attr) by a wrapper that counts its calls."""
    for owner, attr in sites:
        def counted(*args, _site=(owner, attr), _fn=vars(owner)[attr], **kwargs):
            counts[_site] = counts.get(_site, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)


def test_one_decide_reaches_each_wrapped_name(monkeypatch):
    counts = {}
    validate = (representation.Params, "validate")
    count_calls(monkeypatch, [*DECIDE_SITES, validate], counts)
    p = Params(2, 3, 5, 7, 11, 13)
    # making the point validates it once, with one finiteness test per value
    assert counts == {validate: 1, (representation, "is_finite"): 6}
    counts.clear()
    v = decide(p)
    assert v.agreement and v.branch_diagnosis is None
    assert counts == DECIDE_SITES


def test_a_disagreement_builds_and_asks_the_oracle_again(monkeypatch):
    # x1 = x2 with y1 = z1 = e^(0.9i*pi): the criteria say reducible, and
    # only the branch r_sign = -1 carries the invariant line
    y = from_polar(1, 0.9 * math.pi)
    p = Params(1, 1, y, 1, y, 1)
    sites = [(irreducibility, "build_general"), (irreducibility, "oracle_verdict")]
    for r_sign, times in ((1, 2), (-1, 1)):
        counts = {}
        with monkeypatch.context() as patch:
            count_calls(patch, sites, counts)
            v = decide(p, r_sign)
        assert v.agreement == (times == 1)
        assert counts == dict.fromkeys(sites, times)


def test_the_check_corpus_is_written_from_the_cases_in_their_order(tmp_path, monkeypatch):
    # write_corpus injects tuple(ALL_CASES) in turn through solve_case and
    # writes each point with Params.as_dict, so a removed or reordered case
    # changes the benchmark's corpus
    assert tuple(ALL_CASES) == (
        "equal-x-1", "equal-x-2",
        "distinct-x-1", "distinct-x-2", "distinct-x-3", "distinct-x-4",
    )
    # imported by name, not loaded by path: its @dataclass looks its module
    # up in sys.modules
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    requests, mix = workloads.write_corpus(str(tmp_path), 1)
    assert len(requests) == len(list(tmp_path.iterdir())) == 1024
    assert sum(request.expect["injected"] for request in requests) == 512
    assert mix["injected"] == mix["random"] == 0.5
