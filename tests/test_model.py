"""Scenario schema, type invariants, and configuration validation."""
import io
import re

import pytest

from bcconf import (
    BlockchainConfig,
    ParseError,
    QosWeights,
    ValidationError,
    VerifierProfile,
    dump_scenario,
    load_scenario,
    parse_scenario,
    validate_config,
)
from helpers import TABLE2_PATH, make_scenario

MINIMAL_DOC = """
transaction_size_bits: 1000
verification_workload: 20
feedback_size_bits: 1000
downlink_rate_bps: 1000
uplink_rate_bps: 1000
broadcast_coeff: 0.0
security_coeff: 1.0
network_scale_exponent: 2.0
min_verifiers: 1
max_verifiers: 2
min_txn_per_block: 1
max_txn_per_block: 4
verifiers:
  - {id: 0, compute_capacity: 10.0, unit_price: 1.0}
  - {id: 1, compute_capacity: 5.0, unit_price: 0.5}
"""


def test_table2_fixture_loads_with_reference_values():
    scenario = load_scenario(TABLE2_PATH)
    assert scenario.max_verifiers == 10
    assert scenario.max_txn_per_block == 20
    assert scenario.min_verifiers == 2
    assert scenario.min_txn_per_block == 2
    assert scenario.downlink_rate_bps == pytest.approx(1.2e6)
    assert scenario.uplink_rate_bps == pytest.approx(1.3e6)
    assert scenario.feedback_size_bits == pytest.approx(0.5e6)
    assert scenario.transaction_size_bits == pytest.approx(1000.0)
    assert len(scenario.verifiers) >= scenario.max_verifiers


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1 kb", 1000.0),
        ("1kb", 1000.0),
        ("0.5 Mb", 5e5),
        ("2 Gb", 2e9),
        ("250 b", 250.0),
        (1500, 1500.0),
        (2.5, 2.5),
    ],
)
def test_size_unit_normalization(text, expected):
    doc = MINIMAL_DOC.replace("transaction_size_bits: 1000", f"transaction_size_bits: {text!r}")
    assert parse_scenario(doc).transaction_size_bits == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1.2 Mb/s", 1.2e6),
        ("1.3Mb/s", 1.3e6),
        ("500 kb/s", 5e5),
        ("2 Mbps", 2e6),
        (9600, 9600.0),
        ("1.2 Mb", 1.2e6),  # a size unit on a rate field means per second
    ],
)
def test_rate_unit_normalization(text, expected):
    doc = MINIMAL_DOC.replace("downlink_rate_bps: 1000", f"downlink_rate_bps: {text!r}")
    assert parse_scenario(doc).downlink_rate_bps == expected


def test_rate_unit_rejected_for_size_field():
    doc = MINIMAL_DOC.replace("transaction_size_bits: 1000", "transaction_size_bits: '1 Mb/s'")
    with pytest.raises(ParseError, match="transaction_size_bits"):
        parse_scenario(doc)


def test_unknown_unit_names_the_field():
    doc = MINIMAL_DOC.replace("feedback_size_bits: 1000", "feedback_size_bits: '7 parsec'")
    with pytest.raises(ParseError, match="feedback_size_bits"):
        parse_scenario(doc)


def test_missing_field_is_a_parse_error():
    for doc, path in (
        (MINIMAL_DOC.replace("uplink_rate_bps: 1000\n", ""), "uplink_rate_bps"),
        (MINIMAL_DOC + "weights: {latency: 0.5, security: 0.5}\n", "weights.cost"),
        (MINIMAL_DOC + "qos_class: {priority: high}\n", "qos_class.security_need"),
        (
            MINIMAL_DOC + "mode_table:\n  restricted: {weights: {latency: 1, cost: 0}}\n",
            "mode_table.restricted.weights.security",
        ),
        (MINIMAL_DOC.replace(", unit_price: 1.0}", "}"), "verifiers[0].unit_price"),
    ):
        with pytest.raises(ParseError, match=re.escape(f"missing required field '{path}'")):
            parse_scenario(doc)


def test_unknown_field_is_a_parse_error():
    mixed_verifier = MINIMAL_DOC.replace(
        "{id: 1, compute_capacity: 5.0, unit_price: 0.5}",
        "{id: 1, compute_capacity: 5.0, unit_price: 0.5, 7: x, y: z}",
    )
    for doc, path in (
        (MINIMAL_DOC + "\nconsensus: dpos\n", "consensus"),
        # Unknown keys of mixed types must not break the sort that names them.
        (MINIMAL_DOC + "\n1: a\nzzz: 2\n", "1"),
        (mixed_verifier, "verifiers[1].7"),
        (MINIMAL_DOC + "weights: {latency: 0.2, security: 0.3, cost: 0.5, speed: 1}\n", "weights.speed"),
        (MINIMAL_DOC + "qos_class: {priority: high, security_need: low, colour: red}\n", "qos_class.colour"),
        (MINIMAL_DOC + "mode_table:\n  restricted: {speed: 2}\n", "mode_table.restricted.speed"),
    ):
        with pytest.raises(ParseError, match=re.escape(f"unknown field '{path}'")):
            parse_scenario(doc)


def test_min_verifiers_above_max_is_a_validation_error():
    doc = MINIMAL_DOC.replace("min_verifiers: 1", "min_verifiers: 5").replace(
        "max_verifiers: 2", "max_verifiers: 3"
    )
    with pytest.raises(ValidationError, match="min_verifiers exceeds max_verifiers"):
        parse_scenario(doc)


def test_zero_capacity_verifier_is_a_validation_error():
    doc = MINIMAL_DOC.replace("compute_capacity: 5.0", "compute_capacity: 0")
    with pytest.raises(ValidationError, match="compute_capacity"):
        parse_scenario(doc)


def test_max_verifiers_cannot_exceed_population():
    doc = MINIMAL_DOC.replace("max_verifiers: 2", "max_verifiers: 3")
    with pytest.raises(ValidationError, match="max_verifiers"):
        parse_scenario(doc)


def test_txn_bounds_must_be_ordered():
    doc = MINIMAL_DOC.replace("min_txn_per_block: 1", "min_txn_per_block: 9")
    with pytest.raises(ValidationError, match="min_txn_per_block exceeds max_txn_per_block"):
        parse_scenario(doc)


def test_network_scale_exponent_must_be_at_least_two():
    doc = MINIMAL_DOC.replace("network_scale_exponent: 2.0", "network_scale_exponent: 1.5")
    with pytest.raises(ValidationError, match="network_scale_exponent"):
        parse_scenario(doc)


def test_duplicate_verifier_ids_rejected():
    doc = MINIMAL_DOC.replace("{id: 1,", "{id: 0,")
    with pytest.raises(ValidationError, match="duplicate verifier id"):
        parse_scenario(doc)


def test_optional_sections_parse():
    doc = (
        MINIMAL_DOC
        + "weights: {latency: 0.5, security: 0.25, cost: 0.25}\n"
        + "qos_class: {priority: high, security_need: low, label: alerts}\n"
        + "mode_table:\n"
        + "  restricted: {weights: [0.8, 0.1, 0.1], verifier_bounds: [1, 1]}\n"
    )
    scenario = parse_scenario(doc)
    assert scenario.weights == QosWeights(0.5, 0.25, 0.25)
    assert scenario.qos_class.priority == "high"
    assert scenario.qos_class.label == "alerts"
    assert scenario.mode_table[0].mode == "restricted"
    assert scenario.mode_table[0].verifier_bounds == (1, 1)


def test_bad_weight_value_names_its_path():
    for weights, path in (
        ("weights: {latency: x, security: 0.5, cost: 0.5}\n", "weights.latency"),
        ("weights: [0.5, x, 0.5]\n", "weights[1]"),
        ("mode_table:\n  restricted: {weights: {latency: 1, security: 0, cost: x}}\n",
         "mode_table.restricted.weights.cost"),
    ):
        with pytest.raises(ParseError, match=re.escape(f"field '{path}': expected a number")):
            parse_scenario(MINIMAL_DOC + weights)


def test_unknown_mode_name_rejected():
    doc = MINIMAL_DOC + "mode_table:\n  turbo: {weights: [0.8, 0.1, 0.1]}\n"
    with pytest.raises(ParseError, match="mode_table.turbo"):
        parse_scenario(doc)


def test_bad_qos_class_values_rejected():
    doc = MINIMAL_DOC + "qos_class: {priority: urgent, security_need: low}\n"
    with pytest.raises(ValidationError, match="priority"):
        parse_scenario(doc)


def test_load_scenario_accepts_text_path_and_file():
    from_text = load_scenario(MINIMAL_DOC)
    from_file = load_scenario(io.StringIO(MINIMAL_DOC))
    from_path = load_scenario(TABLE2_PATH)
    assert from_text == from_file
    assert from_path.max_verifiers == 10


def test_round_trip_preserves_every_field():
    original = load_scenario(TABLE2_PATH)
    assert load_scenario(dump_scenario(original)) == original


def test_round_trip_preserves_optional_sections():
    doc = (
        MINIMAL_DOC
        + "weights: {latency: 0.2, security: 0.5, cost: 0.3}\n"
        + "qos_class: {priority: low, security_need: high, label: archive}\n"
        + "mode_table:\n"
        + "  economy: {weights: [0.05, 0.05, 0.9]}\n"
    )
    original = parse_scenario(doc)
    assert parse_scenario(dump_scenario(original)) == original


def test_qos_weights_invariants():
    QosWeights(1 / 3, 1 / 3, 1 / 3)
    with pytest.raises(ValidationError):
        QosWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValidationError):
        QosWeights(-0.1, 0.6, 0.5)
    with pytest.raises(ValidationError):
        QosWeights(1.2, -0.1, -0.1)


def test_verifier_profile_invariants():
    with pytest.raises(ValidationError):
        VerifierProfile(id=-1, compute_capacity=1.0, unit_price=0.0)
    with pytest.raises(ValidationError):
        VerifierProfile(id=0, compute_capacity=1.0, unit_price=-0.5)
    with pytest.raises(ValidationError):
        VerifierProfile(id=0, compute_capacity=float("nan"), unit_price=0.0)


def test_validate_config_box_corners():
    scenario = load_scenario(TABLE2_PATH)
    assert validate_config(scenario, BlockchainConfig(2, 2)) is True
    assert validate_config(scenario, BlockchainConfig(11, 5)) is False
    assert validate_config(scenario, BlockchainConfig(10, 20)) is True


def test_validate_config_matches_box_conjunction_exhaustively():
    scenario = make_scenario(
        capacities=(4.0, 3.0, 2.0), min_verifiers=2, max_verifiers=3,
        min_txn_per_block=2, max_txn_per_block=5,
    )
    for m in range(0, 6):
        for theta in range(0, 8):
            expected = (2 <= m <= 3) and (2 <= theta <= 5)
            assert validate_config(scenario, BlockchainConfig(m, theta)) == expected
