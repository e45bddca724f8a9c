"""Scenario schema, type invariants, and configuration validation."""
import dataclasses
import io
import pickle
import re

import pytest
import yaml

from bcconf import (
    BlockchainConfig,
    ConstraintError,
    ParseError,
    QosWeights,
    ScenarioParams,
    ValidationError,
    VerifierProfile,
    dump_scenario,
    load_scenario,
    parse_scenario,
)
from bcconf import cli, model
from bcconf.model import _OPTIONAL_FIELDS, _SCALAR_FIELDS, require_feasible
from helpers import TABLE2_PATH, import_benchmark_module, make_scenario, pyyaml_only, same_tree

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


@pytest.mark.parametrize(
    "doc, key, line, first",
    [
        (MINIMAL_DOC + "max_verifiers: 1\n", "max_verifiers", 17, 11),
        (
            MINIMAL_DOC.replace("unit_price: 0.5}", "unit_price: 0.5, unit_price: 0.7}"),
            "unit_price", 16, 16,
        ),
        (
            MINIMAL_DOC + "mode_table:\n  restricted: {verifier_bounds: [1, 1]}\n  restricted: {}\n",
            "restricted", 19, 18,
        ),
        (MINIMAL_DOC + "mode_table:\n  economy: {weights: [1, 0, 0], weights: [0, 0, 1]}\n", "weights", 18, 18),
    ],
    ids=["top-level", "verifier", "mode-table", "mode-rule"],
)
def test_repeated_key_is_a_parse_error_naming_key_and_lines(doc, key, line, first):
    with pytest.raises(ParseError, match=re.escape(f"duplicate key '{key}' on line {line} (first on line {first})")):
        parse_scenario(doc)


def test_merged_keys_may_be_overridden():
    doc = MINIMAL_DOC.replace(
        "  - {id: 0, compute_capacity: 10.0, unit_price: 1.0}\n  - {id: 1, compute_capacity: 5.0, unit_price: 0.5}\n",
        "  - &first {id: 0, compute_capacity: 10.0, unit_price: 1.0}\n  - {<<: *first, id: 1, compute_capacity: 5.0}\n",
    )
    assert parse_scenario(doc).verifiers[1] == VerifierProfile(id=1, compute_capacity=5.0, unit_price=1.0)
    with pytest.raises(ParseError, match="duplicate key 'id'"):
        parse_scenario(doc.replace("{<<: *first, id: 1,", "{<<: *first, id: 1, id: 2,"))


SECOND_VERIFIER = "  - {id: 1, compute_capacity: 5.0, unit_price: 0.5}\n"


@pytest.mark.parametrize(
    "verifier",
    [
        "  - {<<: {id: 1, id: 2}, compute_capacity: 5.0, unit_price: 0.5}\n",
        "  - {<<: [{unit_price: 0.5}, {id: 1, id: 2}], compute_capacity: 5.0}\n",
    ],
    ids=["inline-source", "list-of-sources"],
)
def test_repeated_key_inside_a_merge_source_is_a_parse_error(verifier, tmp_path, capsys):
    doc = MINIMAL_DOC.replace(SECOND_VERIFIER, verifier)
    message = "duplicate key 'id' on line 16 (first on line 16)"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_scenario(doc)
    scenario = tmp_path / "merge.scenario"
    scenario.write_text(doc)
    assert cli.main(["optimize", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_merge_sources_may_be_overridden_and_reused():
    doc = MINIMAL_DOC.replace(SECOND_VERIFIER, "  - {<<: {id: 0, unit_price: 0.5}, id: 1, compute_capacity: 5.0}\n")
    assert parse_scenario(doc).verifiers[1] == VerifierProfile(id=1, compute_capacity=5.0, unit_price=0.5)
    # Each mapping's own keys are checked, never the ones merged into it, wherever it is used again.
    for text, loaded in (
        ("c: {<<: {k: 1}, k: 2}", {"c": {"k": 2}}),
        ("b: &b {<<: {k: 1}, k: 2}\nc: {<<: *b}", {"b": {"k": 2}, "c": {"k": 2}}),
        ("c: {<<: &s {<<: {k: 1}, k: 2}}\nd: *s", {"c": {"k": 2}, "d": {"k": 2}}),
        ("c: {<<: [&s {k: 1}, {k: 2}], j: 0}\nd: {<<: *s, k: 3}", {"c": {"k": 1, "j": 0}, "d": {"k": 3}}),
    ):
        assert yaml.load(text, Loader=model._scenario_loader()) == loaded


def test_shipped_line_shape_is_read_without_pyyaml(monkeypatch):
    docs = [
        TABLE2_PATH.read_text(encoding="utf-8"),
        MINIMAL_DOC,
        import_benchmark_module("workloads").generate_wide_scenario(5),
    ]
    with pyyaml_only():
        expected = [parse_scenario(doc) for doc in docs]

    def refuse(*args, **kwargs):
        raise AssertionError("yaml.load was called on a document in the line shape")

    monkeypatch.setattr(yaml, "load", refuse)
    assert [parse_scenario(doc) for doc in docs] == expected


def test_shipped_verifier_lines_are_typed_by_one_match():
    """The line reader reads table2 and the benchmark's wide scenarios, whose every verifier line it types by one
    match, to the tree PyYAML reads; a change of the generator's spelling that left them to PyYAML fails here."""
    generate = import_benchmark_module("workloads").generate_wide_scenario
    # The C loader types scalars as the scenario loader does (that adds only a duplicate-key check), ten times faster.
    loader = getattr(yaml, "CSafeLoader", model._scenario_loader())
    for doc in [TABLE2_PATH.read_text(encoding="utf-8"), *map(generate, range(200))]:
        raw = model._read_lines(doc)
        assert raw is not None and same_tree(raw, yaml.load(doc, Loader=loader)), doc.split("\n", 1)[0]


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            MINIMAL_DOC.replace("max_verifiers: 2\n", "max_verifiers: 2\nmin_verifiers: 1  # again\n"),
            "duplicate key 'min_verifiers' on line 12 (first on line 10)",
        ),
        (MINIMAL_DOC.replace("{id: 1,", "{id: 1, id: 2,"), "duplicate key 'id' on line 16 (first on line 16)"),
        (MINIMAL_DOC.replace("unit_price: 0.5}", "unit_price: 0.5, speed: 3}"), "unknown field 'verifiers[1].speed'"),
        (MINIMAL_DOC + "# a NUL \x00 in a comment\n", "unacceptable character #x0000"),
        (MINIMAL_DOC + "# a bell \x07 in a comment\n", "unacceptable character #x0007"),
        (MINIMAL_DOC + "# a DEL \x7f in a comment\n", "unacceptable character #x007f"),
    ],
    ids=["top-level-repeat", "verifier-repeat", "unknown-verifier-key", "nul", "bell", "del"],
)
def test_line_shaped_errors_are_reported_as_pyyaml_reports_them(doc, message):
    assert model._read_lines(doc) is None
    with pytest.raises(ParseError, match=re.escape(message)) as raised:
        parse_scenario(doc)
    with pyyaml_only(), pytest.raises(ParseError) as expected:
        parse_scenario(doc)
    assert str(raised.value) == str(expected.value)


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
    from_text = parse_scenario(MINIMAL_DOC)
    from_file = load_scenario(io.StringIO(MINIMAL_DOC))
    from_path = load_scenario(TABLE2_PATH)
    assert from_text == from_file
    assert from_path.max_verifiers == 10
    assert load_scenario(str(TABLE2_PATH)) == from_path  # a str is a path, as open() reads it


def test_round_trip_preserves_every_field():
    original = load_scenario(TABLE2_PATH)
    assert parse_scenario(dump_scenario(original)) == original


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


def test_schema_table_names_every_scenario_field_in_order():
    # A field added to ScenarioParams but not to the schema table fails here.
    init_fields = [f.name for f in dataclasses.fields(ScenarioParams) if f.init]
    assert [*_SCALAR_FIELDS, "verifiers", *_OPTIONAL_FIELDS] == init_fields
    doc = (
        MINIMAL_DOC
        + "mode_table:\n  economy: {weights: [0.05, 0.05, 0.9]}\n"
        + "qos_class: {priority: low, security_need: high}\n"
        + "weights: {cost: 0.3, security: 0.5, latency: 0.2}\n"
    )
    dumped = yaml.safe_load(dump_scenario(parse_scenario(doc)))
    assert list(dumped) == init_fields
    for weights in (dumped["weights"], dumped["mode_table"]["economy"]["weights"]):
        assert list(weights) == ["latency", "security", "cost"]


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


def test_require_feasible_box_corners():
    scenario = load_scenario(TABLE2_PATH)
    require_feasible(scenario, 2, 2)
    require_feasible(scenario, 10, 20)
    message = "configuration (m=11, theta=5) outside feasible box m in [2, 10], theta in [2, 20]"
    with pytest.raises(ConstraintError, match=re.escape(message)):
        require_feasible(scenario, 11, 5)


def test_require_feasible_matches_box_conjunction_exhaustively():
    scenario = make_scenario(
        capacities=(4.0, 3.0, 2.0), min_verifiers=2, max_verifiers=3,
        min_txn_per_block=2, max_txn_per_block=5,
    )
    for m in range(0, 6):
        for theta in range(0, 8):
            if (2 <= m <= 3) and (2 <= theta <= 5):
                require_feasible(scenario, m, theta)
            else:
                with pytest.raises(ConstraintError, match=rf"\(m={m}, theta={theta}\) outside feasible box"):
                    require_feasible(scenario, m, theta)


def test_blockchain_config_is_slotted_and_behaves_as_a_value():
    config = BlockchainConfig(9, 12)
    assert not hasattr(config, "__dict__")
    assert config == BlockchainConfig(9, 12) != BlockchainConfig(12, 9)
    assert hash(config) == hash(BlockchainConfig(9, 12)) == hash((9, 12))
    assert repr(config) == "BlockchainConfig(num_verifiers=9, txns_per_block=12)"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(config, protocol))
        assert copy == config and hash(copy) == hash(config) and repr(copy) == repr(config)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.num_verifiers = 3
    with pytest.raises((AttributeError, TypeError)):
        config.label = "x"
