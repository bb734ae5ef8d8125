"""Tests of the benchmark's own code: tracing wrappers, counts, output checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import heckeg7.cli as cli  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MODULE_NAMES = ("cli", "sweep", "irreducibility", "representation", "matrix2",
                "identities", "exact")
WIDE = ["--domain", "general-complex", "--log10-modulus-min", "-3",
        "--log10-modulus-max", "3"]


def _modules():
    return {name: sys.modules[f"heckeg7.{name}"] for name in MODULE_NAMES}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _snapshot():
    snap = {}
    for name, module in _modules().items():
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for key, member in vars(value).items():
                    snap[(name, attr, key)] = member
    snap["REGISTRY"] = dict(_modules()["identities"].REGISTRY)
    return snap


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    requests, _ = wl.write_corpus(str(corpus), seed=5)
    return [
        ["sweep", "--samples", "200", "--seed", "3", "--domain", "positive-real"],
        ["sweep", "--samples", "200", "--seed", "3", *WIDE],
        ["identities", "--only", "w-factorization"],
        *(req.argv for req in requests[:12]),
    ]


def _traced(argvs):
    tracer = tracing.Tracer()
    tracing.install_all(tracer, _modules())
    try:
        outputs = [_run(argv) for argv in argvs]
    finally:
        tracer.restore()
    return tracer, outputs


def test_wrappers_leave_outputs_byte_identical_and_are_restored(argvs):
    before = _snapshot()
    plain = [_run(argv) for argv in argvs]
    tracer, traced = _traced(argvs)
    assert traced == plain
    assert _snapshot() == before
    assert tracer.calls["cli.run_sweep"] == 2
    assert tracer.calls["sweep.build_general"] > 0  # witness rebuilds
    assert tracer.calls["irreducibility.build_general"] > 0  # decision builds


def test_counts_repeat_exactly(argvs):
    first, _ = _traced(argvs)
    second, _ = _traced(argvs)
    assert first.calls == second.calls
    assert [s[:5] for s in first.spans] == [s[:5] for s in second.spans]


def test_spans_nest_under_their_parents(argvs):
    tracer, _ = _traced(argvs[:1])
    spans = {s[0]: s for s in tracer.spans}
    assert len(spans) == len(tracer.spans)
    for sid, parent, _req, _layer, _site, start, end in tracer.spans:
        if parent is not None:
            assert spans[parent][5] <= start <= end <= spans[parent][6]
    table = tracing.module_self_table(tracing.merge([tracer.aggregate()]), 1)
    assert abs(sum(share for _, _, share in table) - 1.0) < 1e-9


def test_unresolved_sample_counts_once():
    # sample 59 of this sweep is unresolved and fails its witness check
    argv = ["sweep", "--samples", "100", "--seed", "2", *WIDE]
    code, out = _run(argv)
    doc = json.loads(out)
    unresolved = [d["index"] for d in doc["disagreements"]
                  if d["classification"] == "disagree-unresolved"]
    assert code == 2
    assert unresolved == [59] and doc["injected"]["witness-failures"] == [59]
    checked = wl.check("sweep-complex-wide", wl.Request(argv, {"seed": 2, "samples": 100}),
                       code, out.encode())
    assert (checked.items, checked.failed_items) == (100, 1)
    assert not checked.problems and not checked.request_failed


def test_check_corpus_points_match_their_construction(tmp_path):
    requests, mix = wl.write_corpus(str(tmp_path), seed=9)
    assert mix["injected"] == 0.5 and 0.2 < mix["cubic"] < 0.3
    for req in requests[:60]:
        code, out = _run(req.argv)
        checked = wl.check("check-corpus", req, code, out.encode())
        assert not checked.problems, (req.argv, checked.problems)


def test_corpus_passes_never_repeat_an_argv(tmp_path):
    requests, _ = wl.write_corpus(str(tmp_path), seed=2)
    served = list(itertools.islice(wl.corpus_requests(requests), 3 * len(requests)))
    assert len({tuple(req.argv) for req in served}) == len(served)
    for first, later in zip(requests, served[2 * len(requests):]):
        assert later.expect == first.expect and later.argv[2:] == first.argv[2:]
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(req.argv[1]) for req in served[2 * len(requests):])
    code, out = _run(served[-1].argv)
    assert not wl.check("check-corpus", served[-1], code, out.encode()).problems


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wl.write_corpus(str(a), seed=4)
    wl.write_corpus(str(b), seed=4)
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    seeds = wl.request_seeds(4)
    first = [next(seeds) for _ in range(50)]
    again = wl.request_seeds(4)
    assert first == [next(again) for _ in range(50)]
    assert len(set(first)) == 50


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identities",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
