"""Property tests for the scenario parser: it round-trips, bad input raises only ScenarioError, and
its line reader reads what PyYAML reads."""

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcconf import (
    DataClass,
    ModeTableRule,
    ParseError,
    QosWeights,
    ScenarioError,
    ScenarioParams,
    ValidationError,
    VerifierProfile,
    dump_scenario,
    parse_scenario,
)
from bcconf import model
from bcconf.model import _SCALAR_FIELDS, MODE_NAMES, PRIORITY_LEVELS, SECURITY_LEVELS
from helpers import TABLE2_PATH, pyyaml_only, same_tree

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


# Plain scalars that YAML 1.1 types in surprising ways, as an int, a float or a string. The line
# reader types the first group itself: signed decimal ints, floats with digits before the point and a
# signed exponent, and quantities, which only a top-level field may hold. It leaves the second group
# to PyYAML, though each is an int, a float or a string there too: octal, hex, binary, underscored
# and sexagesimal numbers, an unsigned exponent, no digit before the point, infinities and NaNs, and
# bare words.
LINE_NUMBERS = ("+12", "-3", "2.0e-05", "1.5e+3", "5.")
LINE_SCALARS = LINE_NUMBERS + ("1.2 Mb/s", "0.5 Mb", "1 kb")
PYYAML_SCALARS = (
    "010", "0x1F", "0b101", "0o17", "1_000", "1:20", "190:20:30", "1.0e5", "1e3", ".5", "1_0.5", ".inf",
    "-.inf", ".NaN", ".nan", "a - b", "a  b", "a:b", "http://x", "-x", "._",
)
TRICKY_SCALARS = LINE_SCALARS + PYYAML_SCALARS
# Scalars the line reader leaves to PyYAML: other types, quotes, anchors, tags, flow and block
# indicators, and ints that PyYAML resolves but cannot construct.
OFF_SHAPE_SCALARS = (
    "yes", "No", "on", "~", "null", "2001-12-14", "=", "<<", "'1'", '"2"', "&a 1", "*a", "!!str 3", "a#b",
    "[1]", "{}", "- x", "-", ":x", "?x", "a: b", "a:", "|", ">", "0x_", "0b_", "9" * 4301,
)
# A value each field accepts, so that some documents build a scenario.
SANE = {
    "transaction_size_bits": "1 kb", "verification_workload": "400.0", "feedback_size_bits": "0.5 Mb",
    "downlink_rate_bps": "1.2 Mb/s", "uplink_rate_bps": "1.3 Mb/s", "broadcast_coeff": "2.0e-05",
    "security_coeff": "1.0", "network_scale_exponent": "2", "min_verifiers": "1", "max_verifiers": "2",
    "min_txn_per_block": "1", "max_txn_per_block": "4", "compute_capacity": "10.0", "unit_price": "0.5",
}


@st.composite
def line_shaped_documents(draw):
    """Documents in the line reader's shape, or one rare step out of it.

    In the shape: tricky scalars, trailing comments, varied spacing between a
    top-level key and its value, missing keys, verifier items written as the
    shipped files write them. Out of it, each about once in a few documents: a
    repeated or unknown key, an off-shape scalar or spacing, an item with its
    keys out of order, a key too many or other spacing, mixed item indents, no
    items.
    """

    def odd(rate):  # true about once in ``rate`` draws: hypothesis favours a range's ends, not its middle
        return draw(st.integers(min_value=0, max_value=rate - 1)) == rate // 2

    def value(key):
        if odd(80):
            return draw(st.sampled_from(OFF_SHAPE_SCALARS))
        if key in SANE and not odd(16):
            return SANE[key]
        return draw(st.sampled_from(TRICKY_SCALARS) | st.integers().map(str) | st.floats().map(repr))

    def pair(key, spaces):
        return f"{key}:{'' if odd(150) else ' ' * spaces}{value(key)}"

    def trailer():
        if odd(150):
            return "#glued"
        return draw(st.sampled_from(("", "", "  ", " # note", "  #: {x}, 'q'")))

    def shipped(spelling, *others):  # the shipped files' spelling, or rarely another
        return draw(st.sampled_from(others)) if odd(80) else spelling

    keys = list(_SCALAR_FIELDS)
    if odd(8):
        keys.append(draw(st.sampled_from((*_SCALAR_FIELDS, "weights", "id", "zzz"))))
    if odd(6):
        keys.remove(draw(st.sampled_from(keys)))
    lines = [pair(key, draw(st.integers(1, 2))) + trailer() for key in keys]
    indent = draw(st.sampled_from(("", "  ", "    ")))
    items = []
    for i in range(0 if odd(20) else draw(st.integers(min_value=1, max_value=3))):
        entry_keys = ["id", "compute_capacity", "unit_price"]
        if odd(80):
            entry_keys.append(draw(st.sampled_from(("id", "unit_price", "speed"))))
        if odd(80):
            entry_keys.reverse()
        entries = [f"id: {i}" if key == "id" and not odd(12) else pair(key, shipped(1, 2)) for key in entry_keys]
        sep = shipped(", ", ",", " , ", ",  ")
        pad = shipped("", " ")
        item_indent = " " + indent if i and odd(12) else indent
        dash = shipped("- ", "-  ")
        items.append(f"{item_indent}{dash}{{{pad}{sep.join(entries)}{pad}}}" + trailer())
    at = draw(st.integers(min_value=0, max_value=len(lines)))
    lines[at:at] = ["verifiers:" + trailer(), *items]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        where = draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(where, draw(st.sampled_from(("", "# c", "   # c", "  "))))
    return "\n".join(lines) + draw(st.sampled_from(("\n", "")))


def _outcome(text):
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        return type(exc), str(exc)


def test_line_reader_reads_what_pyyaml_reads():
    read = []

    @settings(PROPERTY_SETTINGS, max_examples=300)
    @given(line_shaped_documents())
    @example(TABLE2_PATH.read_text(encoding="utf-8"))
    @example(
        "min_verifiers: 010\nmax_verifiers: 0x1F\nbroadcast_coeff: 1.0e5 # str\nverifiers:\n- {id: 1:20, unit_price: .nan}\n"
    )
    def check(text):
        raw = model._read_lines(text)
        if raw is not None:
            assert same_tree(raw, yaml.load(text, Loader=model._scenario_loader()))
        with pyyaml_only():
            expected = _outcome(text)
        assert _outcome(text) == expected
        read.append(raw is not None)

    check()
    # Nearly half the documents stay in the line shape (144 of 302 with hypothesis 6.155); far fewer would leave
    # the line reader's typing mostly untested.
    assert 4 * sum(read) >= len(read), f"{sum(read)} of {len(read)} documents read by the line reader"


def _whole_document(token):
    """A document in the line shape, with SANE values except that ``token`` is security_coeff and one unit_price."""
    lines = [f"{key}: {token if key == 'security_coeff' else SANE[key]}" for key in _SCALAR_FIELDS]
    verifiers = [
        f"  - {{id: 0, compute_capacity: 10.0, unit_price: {token}}}",
        "  - {id: 1, compute_capacity: 5.0, unit_price: 0.5}",
    ]
    return "\n".join([*lines, "verifiers:", *verifiers, ""])


def test_line_reader_reads_tricky_scalars_and_leaves_off_shape_ones_to_pyyaml():
    """A tricky scalar the reader types itself is read as PyYAML reads it: any of them in a top-level field, a
    number in a verifier item. Any other token leaves the line shape, and its whole document parses to what
    PyYAML alone gives: the same scenario or the same error."""
    for token in TRICKY_SCALARS + OFF_SHAPE_SCALARS:
        top = f"security_coeff: {token}\nverifiers:\n  - {{id: 0, compute_capacity: 1.0, unit_price: 0.5}}\n"
        item = f"security_coeff: 1.0\nverifiers:\n  - {{id: 0, compute_capacity: {token}, unit_price: {token}}}\n"
        for text, read in ((top, LINE_SCALARS), (item, LINE_NUMBERS)):
            raw = model._read_lines(text)
            if token in read:
                assert raw is not None and same_tree(raw, yaml.load(text, Loader=model._scenario_loader())), token
            else:
                assert raw is None, token
        doc = _whole_document(token)
        assert (model._read_lines(doc) is not None) == (token in LINE_NUMBERS), token
        with pyyaml_only():
            expected = _outcome(doc)
        assert _outcome(doc) == expected, token
    # Some of the tokens left to PyYAML still make a valid scenario there.
    assert isinstance(_outcome(_whole_document("1_000")), ScenarioParams)


ONE_MATCH, OFF_SHAPE = "one match", "off shape"


@pytest.mark.parametrize(
    "item, route, expected",
    [
        ("{id: 1, compute_capacity: 200, unit_price: 0.5}", ONE_MATCH, VerifierProfile(1, 200.0, 0.5)),
        ("{id: +3, compute_capacity: 5.0, unit_price: 0.5}", ONE_MATCH, VerifierProfile(3, 5.0, 0.5)),
        ("{id: 2.0, compute_capacity: 5.0, unit_price: 0.5}", ONE_MATCH, VerifierProfile(2, 5.0, 0.5)),
        ("{id: 1, compute_capacity: 5.0, unit_price: -0.0}", ONE_MATCH, VerifierProfile(1, 5.0, -0.0)),
        ("{id: 1, compute_capacity: 1., unit_price: 2.0e-05}", ONE_MATCH, VerifierProfile(1, 1.0, 2e-05)),
        (
            "{id: 1, compute_capacity: 5 kb, unit_price: 0.5}",
            OFF_SHAPE,
            (ParseError, "field 'verifiers[1].compute_capacity': expected a number"),
        ),
        (
            "{id: 1, compute_capacity: 5.0, unit_price: 1" + "0" * 400 + "}",
            ONE_MATCH,
            (ParseError, "field 'verifiers[1].unit_price': number too large for a float"),
        ),
        (
            "{id: " + "9" * 4301 + ", compute_capacity: 5.0, unit_price: 0.5}",
            OFF_SHAPE,
            (ParseError, "not a valid scenario document: Exceeds the limit (4300 digits)"),
        ),
        (
            "{id: 1, compute_capacity: -5.0, unit_price: 0.5}",
            ONE_MATCH,
            (ValidationError, "verifier 1: compute_capacity must be positive and finite"),
        ),
        ("{compute_capacity: 5.0, id: 1, unit_price: 0.5}", OFF_SHAPE, VerifierProfile(1, 5.0, 0.5)),
        ("{id:  1, compute_capacity: 5.0,  unit_price: 0.5}", OFF_SHAPE, VerifierProfile(1, 5.0, 0.5)),
    ],
    ids=[
        "int-capacity", "signed-id", "float-id", "negative-zero-price", "exponent-and-bare-point", "quantity",
        "int-beyond-float", "id-beyond-int-digits", "negative-capacity", "keys-out-of-order", "extra-spaces",
    ],
)
def test_verifier_line_edge_cases_read_as_pyyaml_reads_them(item, route, expected):
    """A verifier item takes the route the table names, and its document reads as under PyYAML alone:
    the same mapping in value, type and key order, and the same scenario, signed zeros included, or error."""
    lines = [f"{key}: {SANE[key]}" for key in _SCALAR_FIELDS]
    doc = "\n".join([*lines, "verifiers:", "  - {id: 0, compute_capacity: 10.0, unit_price: 0.5}", f"  - {item}", ""])
    raw = model._read_lines(doc)
    assert (OFF_SHAPE if raw is None else ONE_MATCH) == route
    if raw is not None:
        assert same_tree(raw, yaml.load(doc, Loader=model._scenario_loader()))
    with pyyaml_only():
        alone = _outcome(doc)
    outcome = _outcome(doc)
    assert repr(outcome) == repr(alone)
    if isinstance(expected, VerifierProfile):
        assert repr(outcome.verifiers[1]) == repr(expected)
    else:
        error, message = expected
        assert outcome[0] is error and message in outcome[1]
