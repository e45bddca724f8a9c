"""Per-scenario derived values live on the scenario: derived once, never cached elsewhere."""
import gc
import weakref
from dataclasses import replace

import pytest

from bcconf import (
    BlockchainConfig,
    QosWeights,
    ValidationError,
    VerifierProfile,
    dump_scenario,
    normalization,
    parse_scenario,
    scan_unimodality,
    solve_exhaustive,
)
from bcconf.metrics import evaluate
from helpers import make_scenario, normalization_scenarios

EQUAL_WEIGHTS = QosWeights(1 / 3, 1 / 3, 1 / 3)


def test_no_scenario_outlives_its_last_user():
    scenario = make_scenario(capacities=(10.0, 5.0, 2.0), max_txn_per_block=6)
    evaluate(scenario, EQUAL_WEIGHTS, BlockchainConfig(2, 3))
    solve_exhaustive(scenario, EQUAL_WEIGHTS)
    scan_unimodality(scenario, EQUAL_WEIGHTS)
    ref = weakref.ref(scenario)
    del scenario
    gc.collect()
    assert ref() is None


def test_derived_ranking_is_invisible_and_follows_the_verifiers():
    scenario = make_scenario(capacities=(10.0, 5.0, 2.0), prices=(1.0, 2.0, 3.0))
    assert "ranked_verifiers" not in repr(scenario)
    assert "payment_prefix" not in repr(scenario)
    assert "ranked_verify_s" not in repr(scenario)
    assert parse_scenario(dump_scenario(scenario)) == scenario
    assert [p.id for p in scenario.ranked_verifiers[:3]] == [0, 1, 2]
    assert scenario.ranked_verify_s == (2.0, 4.0, 10.0)  # K = 20 over x = 10, 5, 2
    assert scenario.payment_prefix == (0, 10.0, 20.0, 26.0)

    reordered = replace(
        scenario,
        verifiers=tuple(
            VerifierProfile(id=p.id, compute_capacity=c, unit_price=p.unit_price)
            for p, c in zip(scenario.verifiers, (2.0, 5.0, 10.0))
        ),
    )
    assert [p.id for p in reordered.ranked_verifiers[:3]] == [2, 1, 0]
    assert reordered.ranked_verify_s == (2.0, 4.0, 10.0)
    assert reordered.payment_prefix == (0, 30.0, 40.0, 42.0)


def test_derived_normalization_is_invisible():
    scenario = make_scenario(capacities=(10.0, 5.0, 2.0), prices=(1.0, 2.0, 3.0))
    twin = make_scenario(capacities=(10.0, 5.0, 2.0), prices=(1.0, 2.0, 3.0))
    evaluate(scenario, EQUAL_WEIGHTS, BlockchainConfig(2, 3))
    assert scenario.normalization is scenario.normalization
    assert "normalization" not in repr(scenario)
    assert repr(scenario) == repr(twin)
    assert scenario == twin and hash(scenario) == hash(twin)
    assert dump_scenario(scenario) == dump_scenario(twin)


def test_derived_normalization_equals_the_corner_formulas():
    for scenario in normalization_scenarios():
        assert scenario.normalization == normalization(scenario)


def test_replace_derives_the_new_corner():
    scenario = make_scenario(capacities=(10.0, 5.0, 2.0), prices=(1.0, 2.0, 3.0))
    assert (scenario.normalization.max_security, scenario.normalization.max_cost) == (9.0, 26.0)
    narrowed = replace(scenario, max_verifiers=2)
    assert (narrowed.normalization.max_security, narrowed.normalization.max_cost) == (4.0, 20.0)
    assert narrowed.normalization == normalization(narrowed)


def test_all_free_verifiers_raise_on_every_utility_call():
    scenario = make_scenario(capacities=(10.0, 5.0), prices=(0.0, 0.0))
    for _ in range(2):
        with pytest.raises(ValidationError, match="max_cost"):
            evaluate(scenario, EQUAL_WEIGHTS, BlockchainConfig(1, 1))
