"""Randomized agreement sweep: determinism, injection accounting, domains."""

import json
import math
import random

import pytest

from heckeg7 import sweep
from heckeg7.irreducibility import ALL_CASES, DISTINCT_X, EQUAL_X, solve_case
from heckeg7.numerics import from_polar
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
            {"r_sign": 0},
            {"tolerance": 0.0},
            {"regime_filter": "nope"},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides).validate()


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


# Reference draws: the stdlib's uniform and from_polar, one value at a time.
def reference_value(rng: random.Random, cfg: SweepConfig) -> complex:
    if cfg.domain == UNIT_MODULUS:
        modulus = 1.0
    else:
        modulus = 10.0 ** rng.uniform(cfg.log10_modulus_min, cfg.log10_modulus_max)
    if cfg.domain == POSITIVE_REAL:
        argument = 0.0
    else:
        argument = math.pi - rng.random() * 2.0 * math.pi
    return from_polar(modulus, argument)


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
    # without a regime filter a random sample is the bare _draw_base draw
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
