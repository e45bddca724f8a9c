"""Property tests for the scenario parser: it round-trips, and bad input raises only ScenarioError."""
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcconf import (
    DataClass,
    ModeTableRule,
    QosWeights,
    ScenarioError,
    ScenarioParams,
    VerifierProfile,
    dump_scenario,
    parse_scenario,
)
from bcconf.model import MODE_NAMES, PRIORITY_LEVELS, SECURITY_LEVELS

# Fixed examples keep tier-1 reproducible and within a few seconds.
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
COUNT = st.integers(min_value=1, max_value=10**9)


@st.composite
def qos_weights(draw):
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
    total = sum(raw)
    if total == 0:
        raw, total = [1.0, 1.0, 1.0], 3.0
    return QosWeights(*(x / total for x in raw))


@st.composite
def scenarios(draw):
    population = draw(st.integers(min_value=1, max_value=6))
    first_id = draw(st.integers(min_value=0))
    ids = [first_id + k for k in draw(st.permutations(range(population)))]
    verifiers = tuple(
        VerifierProfile(id=i, compute_capacity=draw(POSITIVE), unit_price=draw(NON_NEGATIVE))
        for i in ids
    )
    max_m = draw(st.integers(min_value=1, max_value=population))
    max_theta = draw(COUNT)
    modes = draw(st.none() | st.lists(st.sampled_from(MODE_NAMES), unique=True))
    mode_table = None if modes is None else tuple(
        ModeTableRule(
            mode=mode,
            weights=draw(st.none() | qos_weights()),
            verifier_bounds=draw(st.none() | st.tuples(st.integers(), st.integers())),
        )
        for mode in modes
    )
    return ScenarioParams(
        transaction_size_bits=draw(POSITIVE),
        verification_workload=draw(POSITIVE),
        feedback_size_bits=draw(POSITIVE),
        downlink_rate_bps=draw(POSITIVE),
        uplink_rate_bps=draw(POSITIVE),
        broadcast_coeff=draw(NON_NEGATIVE),
        security_coeff=draw(POSITIVE),
        network_scale_exponent=draw(st.floats(min_value=2.0, allow_infinity=False)),
        min_verifiers=draw(st.integers(min_value=1, max_value=max_m)),
        max_verifiers=max_m,
        min_txn_per_block=draw(st.integers(min_value=1, max_value=max_theta)),
        max_txn_per_block=max_theta,
        verifiers=verifiers,
        weights=draw(st.none() | qos_weights()),
        qos_class=draw(
            st.none()
            | st.builds(
                DataClass,
                priority=st.sampled_from(PRIORITY_LEVELS),
                security_need=st.sampled_from(SECURITY_LEVELS),
                label=st.text(max_size=12),
            )
        ),
        mode_table=mode_table,
    )


# Keys of mixed types, as YAML can produce them, and any value it can hold.
KEYS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def _mappings(node):
    """Every mapping inside a loaded document, the document first."""
    if isinstance(node, dict):
        yield node
        children = list(node.values())
    elif isinstance(node, list):
        children = node
    else:
        return
    for child in children:
        yield from _mappings(child)


@st.composite
def mutated_documents(draw):
    """A valid document with keys added, replaced or deleted at any depth."""
    doc = yaml.safe_load(dump_scenario(draw(scenarios())))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        target = draw(st.sampled_from(list(_mappings(doc))))
        action = draw(st.sampled_from(("add", "replace", "delete")))
        if action == "add":
            target[draw(KEYS)] = draw(VALUES)
        elif target:
            key = draw(st.sampled_from(list(target)))
            if action == "replace":
                target[key] = draw(VALUES)
            else:
                del target[key]
    return yaml.safe_dump(doc, sort_keys=False)


@PROPERTY_SETTINGS
@given(scenarios())
def test_dump_then_parse_round_trips(scenario):
    assert parse_scenario(dump_scenario(scenario)) == scenario


@PROPERTY_SETTINGS
@given(st.text(max_size=40) | mutated_documents())
@example("1: a\nzzz: 2\n")
@example("a: 2001-13-45\n")
@example("a: !!int abc\n")
@example("verifiers: " + "[" * 5000 + "\n")
@example("a: 1\nb: 2\na: 3\n")
def test_bad_documents_raise_only_scenario_errors(text):
    try:
        parse_scenario(text)
    except ScenarioError:
        pass
