"""Data-class to verifier-box and weight resolution, and the bound-pinning pipeline."""
import random

import pytest

from bcconf import DataClass, QosWeights, ValidationError, resolve_qos, solve_greedy
from bcconf.model import ModeTableRule
from bcconf.qos import BALANCED, RESTRICTED
from dataclasses import replace

from helpers import make_scenario, random_scenario


@pytest.fixture
def scenario():
    return make_scenario(
        capacities=(16.0, 8.0, 4.0, 2.0), prices=(0.2, 0.4, 0.8, 1.6),
        min_verifiers=2, max_verifiers=4, min_txn_per_block=1, max_txn_per_block=6,
    )


def box(scenario):
    return (scenario.min_verifiers, scenario.max_verifiers)


def test_all_four_quadrants_map(scenario):
    table = {
        ("high", "low"): (QosWeights(0.6, 0.1, 0.3), (2, 2)),
        ("low", "high"): (QosWeights(0.1, 0.6, 0.3), (4, 4)),
        ("high", "high"): (QosWeights(1 / 3, 1 / 3, 1 / 3), None),
        ("low", "low"): (QosWeights(0.1, 0.2, 0.7), None),
    }
    for (priority, need), (weights, override) in table.items():
        narrowed, resolved = resolve_qos(scenario, DataClass(priority, need))
        assert resolved == weights
        if override is None:
            assert narrowed is scenario
        else:
            assert box(narrowed) == override


def test_directive_weights_always_sum_to_one(scenario):
    for priority in ("high", "low"):
        for need in ("high", "low"):
            _, weights = resolve_qos(scenario, DataClass(priority, need))
            total = sum(weights.as_tuple())
            assert total == pytest.approx(1.0, abs=1e-9)


def test_emergency_notification_pins_to_minimum(scenario):
    narrowed, weights = resolve_qos(scenario, DataClass("high", "low", label="emergency notification"))
    assert weights == QosWeights(0.6, 0.1, 0.3)
    assert box(narrowed) == (scenario.min_verifiers, scenario.min_verifiers)


def test_video_monitoring_uses_fully_restricted(scenario):
    narrowed, weights = resolve_qos(scenario, DataClass("low", "high", label="video monitoring"))
    assert weights == QosWeights(0.1, 0.6, 0.3)
    assert box(narrowed) == (scenario.max_verifiers, scenario.max_verifiers)


def test_file_level_weights_override_defaults(scenario):
    with_weights = replace(scenario, weights=QosWeights(0.5, 0.4, 0.1))
    _, weights = resolve_qos(with_weights, DataClass("high", "high"))
    assert weights == QosWeights(0.5, 0.4, 0.1)


def test_mode_table_wins_over_file_level_weights(scenario):
    customized = replace(
        scenario,
        weights=QosWeights(0.5, 0.4, 0.1),
        mode_table=(ModeTableRule(mode=BALANCED, weights=QosWeights(0.2, 0.2, 0.6)),),
    )
    _, weights = resolve_qos(customized, DataClass("high", "high"))
    assert weights == QosWeights(0.2, 0.2, 0.6)
    # Other modes still see the file-level weights.
    assert resolve_qos(customized, DataClass("low", "low"))[1] == QosWeights(0.5, 0.4, 0.1)


def test_mode_table_bounds_are_clamped_into_scenario_box(scenario):
    customized = replace(
        scenario,
        mode_table=(ModeTableRule(mode=RESTRICTED, verifier_bounds=(1, 9)),),
    )
    narrowed, _ = resolve_qos(customized, DataClass("high", "low"))
    assert box(narrowed) == (2, 4)


def test_empty_override_after_clamping_is_rejected(scenario):
    customized = replace(
        scenario,
        mode_table=(ModeTableRule(mode=RESTRICTED, verifier_bounds=(4, 2)),),
    )
    with pytest.raises(ValidationError, match="clamping"):
        resolve_qos(customized, DataClass("high", "low"))


def test_resolve_narrows_bounds(scenario):
    narrowed, _ = resolve_qos(scenario, DataClass("low", "high"))
    assert narrowed.min_verifiers == narrowed.max_verifiers == scenario.max_verifiers
    unchanged, _ = resolve_qos(scenario, DataClass("low", "low"))
    assert unchanged is scenario


def test_restricted_pipeline_always_returns_minimum_verifiers():
    rng = random.Random(77)
    for _ in range(100):
        scenario = random_scenario(rng)
        narrowed, weights = resolve_qos(scenario, DataClass("high", "low"))
        result = solve_greedy(narrowed, weights)
        assert result.best_config.num_verifiers == scenario.min_verifiers


def test_fully_restricted_pipeline_always_returns_maximum_verifiers():
    rng = random.Random(78)
    for _ in range(50):
        scenario = random_scenario(rng)
        narrowed, weights = resolve_qos(scenario, DataClass("low", "high"))
        result = solve_greedy(narrowed, weights)
        assert result.best_config.num_verifiers == scenario.max_verifiers


def test_without_a_data_class_file_weights_beat_equal_weights_and_mode_table_is_unread(scenario):
    unchanged, weights = resolve_qos(scenario)
    assert unchanged is scenario
    assert weights == QosWeights(1 / 3, 1 / 3, 1 / 3)
    customized = replace(
        scenario,
        weights=QosWeights(0.5, 0.4, 0.1),
        mode_table=(ModeTableRule(mode=RESTRICTED, weights=QosWeights(1, 0, 0), verifier_bounds=(4, 2)),),
    )
    unchanged, weights = resolve_qos(customized)
    assert unchanged is customized
    assert weights == QosWeights(0.5, 0.4, 0.1)


def test_data_class_argument_beats_the_file_qos_class(scenario):
    filed = replace(scenario, qos_class=DataClass("high", "low"))
    narrowed, weights = resolve_qos(filed)
    assert (box(narrowed), weights) == ((2, 2), QosWeights(0.6, 0.1, 0.3))
    narrowed, weights = resolve_qos(filed, DataClass("low", "high"))
    assert (box(narrowed), weights) == ((4, 4), QosWeights(0.1, 0.6, 0.3))


def test_weights_argument_beats_every_section_and_keeps_the_box(scenario):
    customized = replace(
        scenario,
        weights=QosWeights(0.5, 0.4, 0.1),
        mode_table=(ModeTableRule(mode=RESTRICTED, weights=QosWeights(0.2, 0.2, 0.6), verifier_bounds=(3, 9)),),
    )
    flag = QosWeights(0.1, 0.1, 0.8)
    narrowed, weights = resolve_qos(customized, DataClass("high", "low"), flag)
    assert (box(narrowed), weights) == ((3, 4), flag)
    narrowed, weights = resolve_qos(customized, weights=flag)
    assert (narrowed, weights) == (customized, flag)
