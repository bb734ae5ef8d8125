"""Randomized agreement sweep: determinism, injection accounting, domains."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
import types
import warnings

import pytest

from heckeg7 import render, sweep
from heckeg7.cli import main
from heckeg7.irreducibility import ALL_CASES, DISTINCT_X, EQUAL_X, decide, solve_case
from heckeg7.representation import InvalidParams, Params
from heckeg7.sweep import (
    AGREE_IRREDUCIBLE,
    AGREE_REDUCIBLE,
    DISAGREE_RESOLVED,
    DISAGREE_UNRESOLVED,
    DOMAINS,
    GENERAL_COMPLEX,
    POSITIVE_REAL,
    UNIT_MODULUS,
    SweepConfig,
    run_sweep,
)

ALL_CLASSIFICATIONS = (
    AGREE_IRREDUCIBLE,
    AGREE_REDUCIBLE,
    DISAGREE_RESOLVED,
    DISAGREE_UNRESOLVED,
)


def small_config(**overrides) -> SweepConfig:
    base = dict(samples=200, seed=7, domain=POSITIVE_REAL)
    base.update(overrides)
    return SweepConfig(**base)


class TestConfigValidation:
    def test_accepts_defaults(self):
        SweepConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"samples": 0},
            {"samples": -5},
            {"domain": "made-up"},
            {"inject_reducible_rate": -0.1},
            {"inject_reducible_rate": 1.5},
            {"log10_modulus_min": 2.0, "log10_modulus_max": 1.0},
            {"log10_modulus_min": math.nan},
            {"log10_modulus_max": math.nan},
            {"log10_modulus_max": math.inf},
            {"log10_modulus_min": -math.inf},
            {"log10_modulus_min": 350.0, "log10_modulus_max": 400.0},
            {"log10_modulus_max": 309.0},
            # 10 ** -400 and 10 ** -330 round to 0.0
            {"log10_modulus_min": -400.0, "log10_modulus_max": -390.0},
            {"log10_modulus_min": -330.0, "log10_modulus_max": -300.0},
            {"r_sign": 0},
            {"tolerance": 0.0},
            {"regime_filter": "nope"},
            {"tolerance": float("inf")},
            # samples, seed and r_sign are ints, not bools, floats or strings
            {"samples": 10.5},
            {"samples": "10"},
            {"samples": True},
            {"seed": None},
            {"seed": 1.0},
            {"seed": "42"},
            {"seed": False},
            {"r_sign": 1.0},
            {"r_sign": True},
            {"r_sign": -1.0},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides).validate()

    def test_bad_values_are_invalid_params(self):
        with pytest.raises(InvalidParams, match="^samples must be >= 1$"):
            SweepConfig(samples=0).validate()
        with pytest.raises(InvalidParams, match="^tolerance must be positive and finite$"):
            SweepConfig(tolerance=float("inf")).validate()
        with pytest.raises(InvalidParams, match="^samples must be an int$"):
            run_sweep(SweepConfig(samples=10.5))
        with pytest.raises(InvalidParams, match="^seed must be an int$"):
            run_sweep(SweepConfig(seed=None))
        with pytest.raises(InvalidParams, match="^r_sign must be an int$"):
            run_sweep(SweepConfig(r_sign=True))


class TestDeterminism:
    def test_identical_configs_produce_identical_documents(self):
        a = run_sweep(small_config()).as_dict()
        b = run_sweep(small_config()).as_dict()
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seeds_differ(self):
        a = run_sweep(small_config(seed=1)).as_dict()
        b = run_sweep(small_config(seed=2)).as_dict()
        assert a != b


class TestInjectionAccounting:
    def test_exact_injection_count_at_rate_one_tenth(self):
        result = run_sweep(small_config(samples=100, inject_reducible_rate=0.1))
        assert result.injected_total == 10
        assert sum(result.injected_per_case.values()) == 10

    def test_zero_rate_injects_nothing(self):
        result = run_sweep(small_config(inject_reducible_rate=0.0))
        assert result.injected_total == 0
        assert result.injected_per_case == {}

    def test_unfiltered_injections_alternate_between_regimes(self):
        result = run_sweep(small_config(samples=400, inject_reducible_rate=0.1))
        per_case = result.injected_per_case
        equal_total = sum(v for k, v in per_case.items() if k.startswith("equal"))
        distinct_total = sum(
            v for k, v in per_case.items() if k.startswith("distinct")
        )
        assert equal_total == 20 and distinct_total == 20

    def test_injected_points_classify_as_reducible_agreement(self):
        result = run_sweep(small_config(samples=300))
        assert result.counts[AGREE_REDUCIBLE] == result.injected_total
        assert result.witness_failures == ()
        assert result.predicted_mismatches == ()


class TestWitnessChecks:
    """The two ways an injected sample can fail its re-checks, forced on a
    100-sample sweep whose injected samples are 9, 19, ..., 99; the first,
    fifth and ninth of them (9, 49, 89) are equal-x-1."""

    def test_a_missing_witness_is_a_witness_failure_only(self, monkeypatch):
        clean = run_sweep(small_config(samples=100))
        decided = []

        def dropping_decide(p, *args, **kwargs):
            v = decide(p, *args, **kwargs)
            decided.append(v)
            if len(decided) == 10:  # sample 9, agreeing at reducible
                return v._replace(invariant_vector=None)
            return v

        monkeypatch.setattr(sweep, "decide", dropping_decide)
        result = run_sweep(small_config(samples=100))
        assert decided[9].agreement and decided[9].invariant_vector is not None
        assert result.witness_failures == (9,)
        # an equal-x-1 sample, but without a witness no prediction is checked
        assert result.predicted_mismatches == ()
        assert result.counts == clean.counts

    def test_a_non_invariant_predicted_line_is_a_mismatch_only(self, monkeypatch, capsys):
        # (1, 1) is no eigenvector of s1 = [[x1, b], [0, x2]] unless x1 + b = x2
        monkeypatch.setattr(sweep, "s2_eigenlines", lambda x1, y1, y2: ((1.0, 1.0),) * 2)
        code = main(["sweep", "--samples", "100", "--seed", "7"])
        injected = json.loads(capsys.readouterr().out)["injected"]
        assert injected["predicted-direction-mismatches"] == [9, 49, 89]
        assert injected["witness-failures"] == []
        assert code == 0


# Reference draws: the stdlib's uniform and the written-out polar formula,
# one value at a time (not from_polar, which the draw itself calls).
def reference_value(rng: random.Random, cfg: SweepConfig) -> complex:
    if cfg.domain == UNIT_MODULUS:
        modulus = 1.0
    else:
        modulus = 10.0 ** rng.uniform(cfg.log10_modulus_min, cfg.log10_modulus_max)
    if cfg.domain == POSITIVE_REAL:
        argument = 0.0
    else:
        argument = math.pi - rng.random() * 2.0 * math.pi
    return complex(modulus * math.cos(argument), modulus * math.sin(argument))


def reference_base(rng: random.Random, cfg: SweepConfig) -> Params:
    return Params(*[reference_value(rng, cfg) for _ in range(6)])


def reference_random_sample(rng: random.Random, cfg: SweepConfig) -> Params:
    while True:
        base = reference_base(rng, cfg)
        if cfg.regime_filter == EQUAL_X:
            return Params(base.x2, base.x2, base.y1, base.y2, base.z1, base.z2)
        if cfg.regime_filter == DISTINCT_X and not sweep._separated(base.x1, base.x2):
            continue
        return base


def bits(p: Params) -> list:
    """Every part of every value, signed zeros told apart."""
    return [(v.real.hex(), v.imag.hex()) for v in p[:6]] + [p.y3, p.z3]


BANDS = ((-1.0, 1.0), (-3.0, 3.0))


class TestDrawsMatchTheStdlibFormulas:
    # without a regime filter a random sample is the bare _draw_values draw
    @pytest.mark.parametrize("regime_filter", [None, EQUAL_X, DISTINCT_X])
    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_2000_successive_samples(self, domain, band, regime_filter):
        cfg = small_config(
            domain=domain,
            log10_modulus_min=band[0],
            log10_modulus_max=band[1],
            regime_filter=regime_filter,
        )
        rng, ref_rng = random.Random(6), random.Random(6)
        for _ in range(2000):
            drawn = sweep._draw_random_sample(rng, cfg)
            assert bits(drawn) == bits(reference_random_sample(ref_rng, cfg))
        assert rng.getstate() == ref_rng.getstate()


class TestInjectedDraws:
    def test_unrepresentable_solved_value_is_redrawn(self, monkeypatch):
        # Over a +-110 band the solved parameter often overflows or
        # underflows; such a draw is redrawn like any other insane one.
        rejected = []

        def counting_solve_case(case_id, p):
            try:
                return solve_case(case_id, p)
            except InvalidParams:
                rejected.append(case_id)
                raise

        monkeypatch.setattr(sweep, "solve_case", counting_solve_case)
        cfg = small_config(log10_modulus_min=-110, log10_modulus_max=110)
        rng = random.Random(3)
        for case_id in sorted(ALL_CASES) * 20:
            q = sweep._draw_injected_sample(rng, cfg, case_id)
            solved = q.z1 if case_id.startswith("equal") else q.x1
            assert 1e-6 <= abs(solved) <= 1e6
        assert rejected

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_each_attempt_validates_only_the_solved_point(self, monkeypatch, domain):
        # the drawn base is never built as a Params: one validation per
        # solve_case call, and none for a draw redrawn before it
        validated, solved = [], []
        real_validate = Params.validate

        def counting_validate(p):
            validated.append(p)
            real_validate(p)

        def counting_solve_case(case_id, values):
            solved.append(case_id)
            return solve_case(case_id, values)

        monkeypatch.setattr(Params, "validate", counting_validate)
        monkeypatch.setattr(sweep, "solve_case", counting_solve_case)
        cfg = small_config(domain=domain, log10_modulus_min=-3, log10_modulus_max=3)
        rng = random.Random(4)
        for case_id in sorted(ALL_CASES) * 10:
            q = sweep._draw_injected_sample(rng, cfg, case_id)
            assert validated[-1] is q
        assert len(validated) == len(solved) >= len(ALL_CASES) * 10

    def test_band_without_a_sane_draw_is_invalid_params(self):
        # every solved z1 of equal-x-1 leaves [1e-6, 1e6] in this band
        cfg = small_config(log10_modulus_min=-10, log10_modulus_max=-5)
        with pytest.raises(
            InvalidParams, match="^could not construct a sane tuple for case equal-x-1$"
        ):
            run_sweep(cfg)


class TestDomains:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_counts_partition_the_samples(self, domain):
        cfg = small_config(domain=domain, samples=300)
        result = run_sweep(cfg)
        assert set(result.counts) == set(ALL_CLASSIFICATIONS)
        assert sum(result.counts.values()) == cfg.samples

    def test_positive_real_domain_has_total_agreement(self):
        result = run_sweep(small_config(samples=500, seed=3))
        assert result.counts[DISAGREE_RESOLVED] == 0
        assert result.counts[DISAGREE_UNRESOLVED] == 0

    def test_general_complex_disagreements_all_resolve_by_branch_flip(self):
        result = run_sweep(
            small_config(domain=GENERAL_COMPLEX, samples=2000, seed=5)
        )
        assert result.counts[DISAGREE_UNRESOLVED] == 0
        assert result.unresolved() == 0
        # The wrong-branch phenomenon actually occurs on this domain.
        assert result.counts[DISAGREE_RESOLVED] > 0
        assert len(result.disagreements) == result.counts[DISAGREE_RESOLVED]

    def test_unit_modulus_domain_runs_clean(self):
        result = run_sweep(
            small_config(domain=UNIT_MODULUS, samples=300, seed=9)
        )
        assert result.counts[DISAGREE_UNRESOLVED] == 0
        assert result.witness_failures == ()


class TestRegimeFilter:
    def test_equal_filter_restricts_injection_cases(self):
        result = run_sweep(small_config(regime_filter=EQUAL_X, samples=300))
        assert result.injected_total > 0
        assert all(k.startswith("equal") for k in result.injected_per_case)

    def test_distinct_filter_restricts_injection_cases(self):
        result = run_sweep(small_config(regime_filter="distinct_x", samples=300))
        assert result.injected_total > 0
        assert all(k.startswith("distinct") for k in result.injected_per_case)


class TestResultDocument:
    def test_schema_fields(self):
        doc = run_sweep(small_config(samples=100)).as_dict()
        assert doc["schema_version"] == 2
        assert doc["kind"] == "sweep-summary"
        assert set(doc["config"]) == {
            "samples",
            "seed",
            "domain",
            "tolerance",
            "r-sign",
            "inject-reducible-rate",
            "log10-modulus-min",
            "log10-modulus-max",
            "regime-filter",
        }
        assert set(doc["injected"]) == {
            "total",
            "per-case",
            "witness-failures",
            "predicted-direction-mismatches",
        }
        assert isinstance(doc["disagreements"], list)

    def test_disagreement_records_are_reproducible_fixtures(self):
        result = run_sweep(
            small_config(domain=GENERAL_COMPLEX, samples=1500, seed=11)
        )
        assert result.disagreements, "expected at least one branch disagreement"
        record = result.disagreements[0]
        assert set(record) == {
            "index",
            "params",
            "injected-case",
            "classification",
            "verdict",
        }
        assert record["classification"] == DISAGREE_RESOLVED
        diagnosis = record["verdict"]["branch-diagnosis"]
        assert diagnosis["resolved"] is True
        assert diagnosis["flipped-r-sign"] == -1


# sha256 of stdout and the exit code of
#   heckeg7 sweep --domain D --log10-modulus-min -B --log10-modulus-max B
# at the defaults (10,000 samples, seed 42), recorded on Linux/glibc, which
# CI runs: the draw and the criteria call libm, whose last bits may differ
# on another platform.  A change that keeps every float operation and its
# order keeps these.  At +-6 the tolerance's max(1, ...) floor and the
# overflow edges decide many points, so those digests see a change there.
GOLDEN_SWEEPS = {
    (POSITIVE_REAL, 1): ("7771de83b4039253a2e4ef8a5a22da013c0b61639667b57e67923f3ae8acdfaa", 0),
    (UNIT_MODULUS, 1): ("a4e048bf5a97fb19d6943f480dab13d1ab0e761696355c1d521a9215ec5b7955", 0),
    (GENERAL_COMPLEX, 1): ("274bb0864d500482177cc08d25807ee9e8bc5fd9dee9386d7a26e877c7464974", 0),
    (POSITIVE_REAL, 3): ("ad8534d4fe0133cbcf0559fc02fd2da4be80ff99c9f004cf91e935545e92392c", 2),
    (UNIT_MODULUS, 3): ("86604c9110e88146cf4a3d81e8b4152260f669896bd00b18f59acfa1f62422a1", 0),
    (GENERAL_COMPLEX, 3): ("8d9f5005363f9c4b2e14500845a40c6b4537db2ae27160628c148bfa8a8743f6", 2),
    (POSITIVE_REAL, 6): ("b631a18bffc0f11c07254e9b1aff91d2513d6874444b229749e8eeba01a6c10b", 2),
    (UNIT_MODULUS, 6): ("4ccc1fd1c425ded822c8294d284ceb18f947a481aa1da09a1998b7473ab92f90", 0),
    (GENERAL_COMPLEX, 6): ("97857e9ef9c0b08caccd10bd7f6fd423dbc391eaece6b6e6a2a5a4114018dcb0", 2),
}


@pytest.fixture(scope="module")
def golden_sweep_runs():
    runs = {}
    for domain, band in GOLDEN_SWEEPS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([
                "sweep", "--domain", domain,
                "--log10-modulus-min", str(-band), "--log10-modulus-max", str(band),
            ])
        runs[domain, band] = out.getvalue(), code
    return runs


class TestGoldenSweeps:
    @pytest.mark.parametrize("key", list(GOLDEN_SWEEPS), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_stdout_bytes_and_exit_code(self, golden_sweep_runs, key):
        out, code = golden_sweep_runs[key]
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN_SWEEPS[key]

    @pytest.mark.parametrize(
        "domain, unresolved, witness_failures",
        [(POSITIVE_REAL, [9556], []), (GENERAL_COMPLEX, [8859], [8859])],
    )
    def test_wide_band_facts_that_readme_states(
        self, golden_sweep_runs, domain, unresolved, witness_failures
    ):
        out, code = golden_sweep_runs[domain, 3]
        doc = json.loads(out)
        assert code == 2
        assert [
            record["index"] for record in doc["disagreements"]
            if record["classification"] == DISAGREE_UNRESOLVED
        ] == unresolved
        assert doc["counts"][DISAGREE_UNRESOLVED] == 1
        assert doc["injected"]["witness-failures"] == witness_failures


# ---------------------------------------------------------------------------
# The helper process.  A sweep split between this process and one forked
# helper renders the same bytes, and raises the same error, as the walk in
# one process.  Most tests force the split on or off through
# sweep._helper_can_run, so that they test it on a machine with one CPU
# too; the tests of the real predicate say so.

HELPER_SAMPLES = 1500


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(cfg, helper, patch=None):
    """The rendered document of run_sweep(cfg), or the InvalidParams it
    raises, with the helper forced on or off (None: the real predicate) and
    patch(monkeypatch) applied; no child may outlive the run."""
    with pytest.MonkeyPatch.context() as mp:
        if helper is not None:
            mp.setattr(sweep, "_helper_can_run", lambda samples: helper)
        if patch is not None:
            patch(mp)
        try:
            return render.dumps(run_sweep(cfg).as_dict())
        except InvalidParams as exc:
            return f"InvalidParams: {exc}"
        finally:
            no_child_left()


def split_outcome(cfg, patch=None):
    """(outcome with the helper forced on, the records of each helper as
    run_sweep received them; None for a helper that failed)."""
    tails = []
    real_reap = sweep._reap

    def recording_reap(helper, payload):
        tails.append(real_reap(helper, payload))
        return tails[-1]

    def patches(mp):
        mp.setattr(sweep, "_reap", recording_reap)
        if patch is not None:
            patch(mp)

    return outcome(cfg, True, patches), tails


def assert_split_matches(cfg):
    split, tails = split_outcome(cfg)
    # one helper ran, and its records were used for the tail of the walk
    assert len(tails) == 1 and tails[0] is not None
    assert 0 < len(tails[0]) < cfg.samples
    assert split == outcome(cfg, False)


def counting_forks(forks):
    def patch(mp):
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            forks.append(pid)
            return pid

        mp.setattr(os, "fork", counting_fork)

    return patch


def helper_config(**overrides):
    return small_config(**{"samples": HELPER_SAMPLES, **overrides})


class TestHelperSplit:
    @pytest.mark.parametrize("r_sign", [1, -1])
    @pytest.mark.parametrize("regime_filter", [None, EQUAL_X, DISTINCT_X])
    @pytest.mark.parametrize("band", [1, 3])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_same_bytes_as_one_process(self, domain, band, regime_filter, r_sign):
        assert_split_matches(helper_config(
            domain=domain, log10_modulus_min=-band, log10_modulus_max=band,
            regime_filter=regime_filter, r_sign=r_sign,
        ))

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_same_bytes_at_inject_rates_zero_and_one(self, rate):
        assert_split_matches(
            helper_config(domain=GENERAL_COMPLEX, inject_reducible_rate=rate)
        )

    @pytest.mark.parametrize(
        "samples",
        [sweep._HELPER_MIN_SAMPLES - 1, sweep._HELPER_MIN_SAMPLES, 1001],
    )
    def test_sample_counts_at_the_threshold(self, samples):
        # the real predicate: the helper forks from the threshold on, on a
        # machine with a second CPU
        cfg = small_config(samples=samples, domain=GENERAL_COMPLEX)
        forks = []
        document = outcome(cfg, None, counting_forks(forks))
        can_fork = sweep._helper_can_run(sweep._HELPER_MIN_SAMPLES)
        assert len(forks) == (can_fork and samples >= sweep._HELPER_MIN_SAMPLES)
        assert document == outcome(cfg, False)
        if samples >= sweep._HELPER_MIN_SAMPLES:
            assert_split_matches(cfg)

    @pytest.mark.parametrize(
        "samples, band, domain",
        [
            (300, 100, GENERAL_COMPLEX),
            (10000, 150, GENERAL_COMPLEX),
            (10000, (-10, -5), POSITIVE_REAL),
        ],
        ids=["pm100-general-complex", "pm150-general-complex", "minus10-minus5"],
    )
    def test_readme_error_bands_raise_the_same_error(self, samples, band, domain):
        lo, hi = band if isinstance(band, tuple) else (-band, band)
        cfg = small_config(
            samples=samples, domain=domain, log10_modulus_min=lo, log10_modulus_max=hi,
        )
        split, _ = split_outcome(cfg)
        assert split.startswith("InvalidParams: ")
        assert split == outcome(cfg, False) == outcome(cfg, None)

    @pytest.mark.parametrize(
        "draw_failures, classify_failures, first",
        [
            ({100}, set(), "draw 100"),
            ({100}, {50}, "classify 50"),
            ({100}, {100}, "draw 100"),
            ({1000}, set(), "draw 1000"),
            (set(), {1000}, "classify 1000"),
            ({1200}, {1000}, "classify 1000"),
            ({1000}, {10}, "classify 10"),
            (set(), {10, 1000}, "classify 10"),
            ({874, 875}, set(), "draw 874"),
            ({875}, set(), "draw 875"),
        ],
    )
    def test_the_first_error_by_index_is_raised(
        self, draw_failures, classify_failures, first
    ):
        # samples [0, 875) are this process's, [875, 1500) the helper's
        real_draws, real_classify = sweep._draws, sweep._classify

        def failing_draws(rng, cfg):
            for i, sample in enumerate(real_draws(rng, cfg)):
                if i in draw_failures:
                    raise InvalidParams(f"draw {i}")
                yield sample

        def failing_classify(cfg, i, case_id, p):
            if i in classify_failures:
                raise InvalidParams(f"classify {i}")
            return real_classify(cfg, i, case_id, p)

        def patch(mp):
            mp.setattr(sweep, "_draws", failing_draws)
            mp.setattr(sweep, "_classify", failing_classify)

        cfg = helper_config()
        assert HELPER_SAMPLES * 7 // 12 == 875
        split, _ = split_outcome(cfg, patch)
        assert split == outcome(cfg, False, patch) == f"InvalidParams: {first}"

    @pytest.mark.parametrize("failure", [
        "dumps-raises", "killed", "garbled-payload", "truncated-payload",
        "fork-fails", "pipe-fails",
    ])
    def test_a_failing_helper_yields_the_one_process_document(self, failure):
        def raising(*args):
            raise OSError("no resources")

        dumps = sweep.marshal.dumps
        helper_dumps = {
            "dumps-raises": raising,
            "killed": lambda records: os.kill(os.getpid(), 9),
            "garbled-payload": lambda records: b"\x00garbled",
            "truncated-payload": lambda records: dumps(records)[:-5],
        }

        def patch(mp):
            if failure in helper_dumps:
                mp.setattr(sweep, "marshal", types.SimpleNamespace(
                    dumps=helper_dumps[failure], loads=sweep.marshal.loads,
                ))
            else:
                mp.setattr(os, "fork" if failure == "fork-fails" else "pipe", raising)

        cfg = helper_config(domain=GENERAL_COMPLEX)
        fds = len(os.listdir("/proc/self/fd"))
        split, tails = split_outcome(cfg, patch)
        assert len(os.listdir("/proc/self/fd")) == fds
        # a helper that started came back as a failure; none started otherwise
        assert tails == ([] if failure.endswith("-fails") else [None])
        assert split == outcome(cfg, False)

    def test_no_fork_beside_a_second_thread(self):
        # the real predicate; on 3.12+ a fork beside a thread warns
        cfg = helper_config(domain=GENERAL_COMPLEX)
        forks = []
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                document = outcome(cfg, None, counting_forks(forks))
                assert not sweep._helper_can_run(HELPER_SAMPLES)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert document == outcome(cfg, False)

    def test_a_helper_is_killed_when_this_process_fails(self):
        # an interrupt in this process's samples reaches the caller at once,
        # with the helper killed and reaped
        real_classify, real_waitpid = sweep._classify, os.waitpid
        pids, statuses = [], []

        def interrupted_classify(cfg, i, case_id, p):
            if i == 10 and os.getpid() == parent:
                raise KeyboardInterrupt
            return real_classify(cfg, i, case_id, p)

        def recording_waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        def patch(mp):
            mp.setattr(sweep, "_classify", interrupted_classify)
            mp.setattr(os, "waitpid", recording_waitpid)
            counting_forks(pids)(mp)

        parent = os.getpid()
        with pytest.raises(KeyboardInterrupt):
            outcome(helper_config(samples=20000), True, patch)
        assert len(pids) == len(statuses) == 1
        assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == 9

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_a_helper_leaves_when_this_process_is_killed(self, tmp_path):
        # the helper's records fill more than a pipe buffer; with its reader
        # killed, its write fails instead of blocking, and it leaves.  The
        # helper's pid goes to a file: a helper left behind would hold a
        # captured stdout open.
        pid_file = tmp_path / "helper.pid"
        script = textwrap.dedent(f"""
            import os
            from heckeg7 import sweep
            real_fork, real_classify = os.fork, sweep._classify
            parent = os.getpid()

            def fork():
                pid = real_fork()
                if pid:
                    with open({str(pid_file)!r}, "w") as fh:
                        fh.write(str(pid))
                return pid

            def classify(cfg, i, case_id, p):
                if i == 10 and os.getpid() == parent:
                    os.kill(parent, 9)
                return real_classify(cfg, i, case_id, p)

            os.fork, sweep._classify = fork, classify
            sweep._helper_can_run = lambda samples: True
            sweep.run_sweep(sweep.SweepConfig(samples=20000, domain=sweep.GENERAL_COMPLEX))
        """)
        src = os.path.dirname(os.path.dirname(sweep.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == -9
        helper = int(pid_file.read_text())

        def running():
            try:
                with open(f"/proc/{helper}/stat", encoding="ascii") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 60
        try:
            while running() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not running()
        finally:
            if running():
                os.kill(helper, 9)
