"""The verifier ranking lives on the scenario: derived once, never cached elsewhere."""
import gc
import weakref
from dataclasses import replace

from bcconf import (
    BlockchainConfig,
    QosWeights,
    VerifierProfile,
    dump_scenario,
    parse_scenario,
    scan_unimodality,
    select_verifiers,
    solve_exhaustive,
    utility,
)
from helpers import make_scenario

EQUAL_WEIGHTS = QosWeights(1 / 3, 1 / 3, 1 / 3)


def test_no_scenario_outlives_its_last_user():
    scenario = make_scenario(capacities=(10.0, 5.0, 2.0), max_txn_per_block=6)
    utility(scenario, EQUAL_WEIGHTS, BlockchainConfig(2, 3))
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
    assert parse_scenario(dump_scenario(scenario)) == scenario
    assert [p.id for p in select_verifiers(scenario, 3)] == [0, 1, 2]
    assert scenario.payment_prefix == (0, 10.0, 20.0, 26.0)

    reordered = replace(
        scenario,
        verifiers=tuple(
            VerifierProfile(id=p.id, compute_capacity=c, unit_price=p.unit_price)
            for p, c in zip(scenario.verifiers, (2.0, 5.0, 10.0))
        ),
    )
    assert [p.id for p in select_verifiers(reordered, 3)] == [2, 1, 0]
    assert reordered.payment_prefix == (0, 30.0, 40.0, 42.0)
