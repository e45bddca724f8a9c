"""Domain types and scenario-file handling.

The types here describe scenarios, weights and configurations; solver
results live with the solvers in :mod:`bcconf.optimizer`. All types are immutable
after construction (frozen dataclasses) and safe to share across threads.
A scenario document's schema is stated once: ``_SCALAR_FIELDS`` names each
scalar field with its reader, in :class:`ScenarioParams`' order, and both
:func:`parse_scenario` and :func:`dump_scenario` walk it.
Beyond invariant checks, this module computes only what a scenario derives
from itself: the verifier ranking and the running sums of its payments,
once when it is built, and its normalization maxima, on first use, kept
with the scenario for its lifetime. See :mod:`bcconf.metrics` for the
closed forms.
A document in the shipped line shape (comment lines, top-level ``key: scalar``
lines and one ``verifiers:`` list of one-line ``- {id: ..., compute_capacity:
..., unit_price: ...}`` items) is read line by line without PyYAML. Its
scalars come in three spellings, each with one YAML 1.1 type: a decimal int
(``12``, ``-3``), a float with digits before its point and an optional signed
exponent (``400.0``, ``2.0e-05``), and a quantity string (``1 kb``,
``1.2 Mb/s``). A verifier item must be written as the shipped files write it
(its keys in that order, one space after each colon and comma, each value an
int or a float), and is typed by one match. A document with any other item or
scalar, such as ``{compute_capacity: 5.0, id: 1, ...}``, ``010`` or ``1.0e5``,
goes through ``yaml.load`` as a whole like every other document, and both
routes give the same mapping and the same error messages. PyYAML is imported
only by that fallback and by :func:`dump_scenario`.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TextIO, Union

WEIGHT_SUM_TOL = 1e-9
DEFAULT_GRID_CAP = 1_000_000

MODE_NAMES = ("restricted", "fully_restricted", "balanced", "economy")
PRIORITY_LEVELS = ("high", "low")
SECURITY_LEVELS = ("high", "low")


class ScenarioError(ValueError):
    """Base class for scenario document problems."""


class ParseError(ScenarioError):
    """The document does not conform to the scenario schema."""


class ValidationError(ScenarioError):
    """A well-formed document violates a type invariant."""


class ConstraintError(ValueError):
    """An operation was handed a configuration outside its feasible box."""


class GridCapError(ConstraintError):
    """The feasible grid is larger than an enumerating operation allows."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifierProfile:
    """One verifier: its compute capacity and the unit price it charges."""

    id: int
    compute_capacity: float  # compute-units per second
    unit_price: float        # currency per compute-unit

    def __post_init__(self):
        if self.id < 0:
            raise ValidationError(f"verifier id must be non-negative, got {self.id}")
        if not (math.isfinite(self.compute_capacity) and self.compute_capacity > 0):
            raise ValidationError(
                f"verifier {self.id}: compute_capacity must be positive and finite"
            )
        if not (math.isfinite(self.unit_price) and self.unit_price >= 0):
            raise ValidationError(
                f"verifier {self.id}: unit_price must be non-negative and finite"
            )


@dataclass(frozen=True)
class QosWeights:
    """Relative importance of latency, security, and cost; sums to one."""

    latency_weight: float
    security_weight: float
    cost_weight: float

    def __post_init__(self):
        for name, w in (
            ("latency_weight", self.latency_weight),
            ("security_weight", self.security_weight),
            ("cost_weight", self.cost_weight),
        ):
            if not (math.isfinite(w) and 0.0 <= w <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {w}")
        total = self.latency_weight + self.security_weight + self.cost_weight
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.latency_weight, self.security_weight, self.cost_weight)


@dataclass(frozen=True)
class DataClass:
    """A data class: its delivery priority and how much scrutiny it needs."""

    priority: str
    security_need: str
    label: str = ""

    def __post_init__(self):
        if self.priority not in PRIORITY_LEVELS:
            raise ValidationError(f"priority must be one of {PRIORITY_LEVELS}, got {self.priority!r}")
        if self.security_need not in SECURITY_LEVELS:
            raise ValidationError(
                f"security_need must be one of {SECURITY_LEVELS}, got {self.security_need!r}"
            )


@dataclass(frozen=True)
class ModeTableRule:
    """Per-mode override parsed from a scenario file's ``mode_table`` section."""

    mode: str
    weights: Optional[QosWeights] = None
    verifier_bounds: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.mode not in MODE_NAMES:
            raise ValidationError(f"unknown mode name {self.mode!r}; expected one of {MODE_NAMES}")


@dataclass(frozen=True)
class ScenarioParams:
    """All model constants for one deployment, plus the verifier population.

    Sizes are bits, rates bits/second, times seconds, compute in abstract
    compute-units; unit suffixes in scenario files are normalized at load
    time. The verifier list may exceed ``max_verifiers``: the bound caps
    selection, not the population.

    Three fields are derived at construction and take no part in equality,
    hashing or ``repr``: ``ranked_verifiers`` orders the population by
    ascending verification time K/x, ties by ascending id,
    ``ranked_verify_s[i]`` is that time K/x of ``ranked_verifiers[i]``, and
    ``payment_prefix[m]`` is the summed capacity payment (price * x) of the
    first m of that ranking, added left to right from 0.
    """

    transaction_size_bits: float
    verification_workload: float
    feedback_size_bits: float
    downlink_rate_bps: float
    uplink_rate_bps: float
    broadcast_coeff: float          # seconds per (bit * verifier)
    security_coeff: float
    network_scale_exponent: float
    min_verifiers: int
    max_verifiers: int
    min_txn_per_block: int
    max_txn_per_block: int
    verifiers: tuple[VerifierProfile, ...]
    # Optional sections carried from the scenario file; consumers decide precedence.
    weights: Optional[QosWeights] = None
    qos_class: Optional[DataClass] = None
    mode_table: Optional[tuple[ModeTableRule, ...]] = None
    ranked_verifiers: tuple[VerifierProfile, ...] = field(init=False, repr=False, compare=False)
    ranked_verify_s: tuple[float, ...] = field(init=False, repr=False, compare=False)
    payment_prefix: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "verifiers", tuple(self.verifiers))
        if self.mode_table is not None:
            object.__setattr__(self, "mode_table", tuple(self.mode_table))
        for name, value in (
            ("transaction_size_bits", self.transaction_size_bits),
            ("verification_workload", self.verification_workload),
            ("feedback_size_bits", self.feedback_size_bits),
            ("downlink_rate_bps", self.downlink_rate_bps),
            ("uplink_rate_bps", self.uplink_rate_bps),
            ("security_coeff", self.security_coeff),
        ):
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.broadcast_coeff) and self.broadcast_coeff >= 0):
            raise ValidationError(f"broadcast_coeff must be non-negative, got {self.broadcast_coeff}")
        if not (math.isfinite(self.network_scale_exponent) and self.network_scale_exponent >= 2):
            raise ValidationError(
                f"network_scale_exponent must be >= 2, got {self.network_scale_exponent}"
            )
        if self.min_verifiers < 1:
            raise ValidationError("min_verifiers must be at least 1")
        if self.min_verifiers > self.max_verifiers:
            raise ValidationError("min_verifiers exceeds max_verifiers")
        if self.max_verifiers > len(self.verifiers):
            raise ValidationError(
                f"max_verifiers ({self.max_verifiers}) exceeds verifier count ({len(self.verifiers)})"
            )
        if self.min_txn_per_block < 1:
            raise ValidationError("min_txn_per_block must be at least 1")
        if self.min_txn_per_block > self.max_txn_per_block:
            raise ValidationError("min_txn_per_block exceeds max_txn_per_block")
        ids = [p.id for p in self.verifiers]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValidationError(f"duplicate verifier id {dup}")
        workload = self.verification_workload
        ranked = tuple(
            sorted(self.verifiers, key=lambda p: (workload / p.compute_capacity, p.id))
        )
        object.__setattr__(self, "ranked_verifiers", ranked)
        object.__setattr__(self, "ranked_verify_s", tuple(workload / p.compute_capacity for p in ranked))
        object.__setattr__(
            self,
            "payment_prefix",
            tuple(itertools.accumulate((p.unit_price * p.compute_capacity for p in ranked), initial=0)),
        )

    @property
    def normalization(self) -> NormalizationConstants:
        """The per-metric maxima over the feasible box, derived on first use.

        Kept on the instance but not as a field, so it takes no part in
        equality, hashing, ``repr`` or ``dump_scenario``, and
        ``dataclasses.replace`` derives it afresh. A failure (every
        selectable verifier free) is not stored and raises again on the next
        access.
        """
        try:
            return self._normalization
        except AttributeError:
            pass
        # metrics imports this module, so it can only be imported at call time.
        from . import metrics

        value = metrics.normalization(self)
        # Not functools.cached_property: its write through ``__dict__`` makes
        # CPython 3.11 materialize the instance dict, after which every
        # attribute read on the scenario takes about twice as long.
        object.__setattr__(self, "_normalization", value)
        return value

    @property
    def grid_size(self) -> int:
        """Number of feasible (m, theta) configurations."""
        return (self.max_verifiers - self.min_verifiers + 1) * (
            self.max_txn_per_block - self.min_txn_per_block + 1
        )


@dataclass(frozen=True, slots=True)
class BlockchainConfig:
    """Decision variables: verifier count m and transactions per block theta.

    Feasibility is scenario-relative; use :func:`require_feasible`. The type
    itself accepts any integer pair so that validation stays total.
    """

    num_verifiers: int
    txns_per_block: int


@dataclass(frozen=True)
class NormalizationConstants:
    """Per-scenario maxima used to make the three metrics comparable.

    Built only by :func:`bcconf.metrics.normalization`, which checks that each is positive and finite.
    """

    max_latency: float
    max_security: float
    max_cost: float


# ---------------------------------------------------------------------------
# Scenario document parsing
# ---------------------------------------------------------------------------

_QUANTITY_RE = re.compile(
    r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]+(?:/s)?)?\s*$"
)
_SIZE_SCALE = {"b": 1.0, "kb": 1e3, "mb": 1e6, "gb": 1e9}

def _parse_quantity(name: str, value: Any, kind: str) -> float:
    """Normalize a size (bits) or rate (bits/second) field.

    Accepts a bare number (already in base units) or a string with a unit
    suffix: b/kb/Mb/Gb for sizes, the same plus '/s' or 'ps' for rates.
    A rate unit on a size field is rejected; a size unit on a rate field
    means per second, so '1.2 Mb' there reads as 1.2e6 bits/second.
    """
    if isinstance(value, bool):
        raise ParseError(f"field '{name}': expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return _parse_number(name, value)
    if not isinstance(value, str):
        raise ParseError(f"field '{name}': expected a number or quantity string")
    match = _QUANTITY_RE.match(value)
    if not match:
        raise ParseError(f"field '{name}': cannot parse quantity {value!r}")
    magnitude = float(match.group(1))
    unit = match.group(2)
    if unit is None:
        return magnitude
    unit_lc = unit.lower()
    is_rate = unit_lc.endswith("/s") or (unit_lc.endswith("ps") and unit_lc not in _SIZE_SCALE)
    base = unit_lc[:-2] if is_rate else unit_lc
    if base not in _SIZE_SCALE:
        raise ParseError(f"field '{name}': unknown unit {unit!r}")
    if kind == "bits" and is_rate:
        raise ParseError(f"field '{name}': got a rate unit {unit!r} for a size field")
    return magnitude * _SIZE_SCALE[base]


def _parse_number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field '{name}': expected a number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"field '{name}': number too large for a float") from None


def _parse_int(name: str, value: Any) -> int:
    if isinstance(value, bool):
        raise ParseError(f"field '{name}': expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"field '{name}': expected an integer, got {value!r}")


# The scalar fields of a scenario document, in ScenarioParams' order, each with its reader.
_SCALAR_FIELDS: dict[str, Callable[[str, Any], float]] = {
    "transaction_size_bits": functools.partial(_parse_quantity, kind="bits"),
    "verification_workload": _parse_number,
    "feedback_size_bits": functools.partial(_parse_quantity, kind="bits"),
    "downlink_rate_bps": functools.partial(_parse_quantity, kind="bps"),
    "uplink_rate_bps": functools.partial(_parse_quantity, kind="bps"),
    "broadcast_coeff": _parse_number,
    "security_coeff": _parse_number,
    "network_scale_exponent": _parse_number,
    "min_verifiers": _parse_int,
    "max_verifiers": _parse_int,
    "min_txn_per_block": _parse_int,
    "max_txn_per_block": _parse_int,
}
_REQUIRED_FIELDS = (*_SCALAR_FIELDS, "verifiers")
_OPTIONAL_FIELDS = ("weights", "qos_class", "mode_table")
_WEIGHT_KEYS = ("latency", "security", "cost")  # a weights mapping's keys, in QosWeights' order
_VERIFIER_KEYS = ("id", "compute_capacity", "unit_price")  # a verifier's keys, in VerifierProfile's order


def _check_keys(
    raw: Any, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> Mapping:
    """Return ``raw`` if it is a mapping with every required key and no unknown one.

    ``where`` is the mapping's own path, empty for the document itself; each
    message names the full path of the offending key.
    """
    if not isinstance(raw, Mapping):
        if not where:
            raise ParseError("scenario document must be a key/value mapping")
        raise ParseError(f"field '{where}': expected a mapping")
    prefix = f"{where}." if where else ""
    unknown = sorted(set(raw) - set(required) - set(optional), key=str)
    if unknown:
        raise ParseError(f"unknown field '{prefix}{unknown[0]}'")
    for key in required:
        if key not in raw:
            raise ParseError(f"missing required field '{prefix}{key}'")
    return raw


def _parse_weights(raw: Any, where: str) -> QosWeights:
    if isinstance(raw, (list, tuple)):
        if len(raw) != 3:
            raise ParseError(f"field '{where}': expected 3 weights (latency, security, cost), got {len(raw)}")
        named = [(f"{where}[{i}]", w) for i, w in enumerate(raw)]
    else:
        raw = _check_keys(raw, where, _WEIGHT_KEYS)
        named = [(f"{where}.{key}", raw[key]) for key in _WEIGHT_KEYS]
    return QosWeights(*(_parse_number(name, w) for name, w in named))


def _parse_verifier(raw: Any, index: int) -> VerifierProfile:
    """Item ``index`` of the verifier list; its field names are spelled out only for a message.

    An item with exactly the three keys, an int id and an int or float for
    each other value is built directly; any other item, or a value too large
    for a float, goes through the readers, which name the field that fails.
    """
    if type(raw) is dict and len(raw) == 3:
        id_, capacity, price = raw.get("id"), raw.get("compute_capacity"), raw.get("unit_price")
        if type(id_) is int and type(capacity) in (int, float) and type(price) in (int, float):
            try:
                return VerifierProfile(id_, float(capacity), float(price))
            except OverflowError:
                pass
    where = f"verifiers[{index}]"
    raw = _check_keys(raw, where, _VERIFIER_KEYS)
    return VerifierProfile(
        id=_parse_int(f"{where}.id", raw["id"]),
        compute_capacity=_parse_number(f"{where}.compute_capacity", raw["compute_capacity"]),
        unit_price=_parse_number(f"{where}.unit_price", raw["unit_price"]),
    )


def _parse_qos_class(raw: Any) -> DataClass:
    raw = _check_keys(raw, "qos_class", ("priority", "security_need"), ("label",))
    label = raw.get("label", "")
    if not isinstance(label, str):
        raise ParseError("field 'qos_class.label': expected a string")
    return DataClass(priority=str(raw["priority"]), security_need=str(raw["security_need"]), label=label)


def _parse_mode_table(raw: Any) -> tuple[ModeTableRule, ...]:
    rules = []
    for mode, entry in _check_keys(raw, "mode_table", (), MODE_NAMES).items():
        where = f"mode_table.{mode}"
        entry = _check_keys(entry, where, (), ("weights", "verifier_bounds"))
        weights = _parse_weights(entry["weights"], f"{where}.weights") if "weights" in entry else None
        bounds = None
        if "verifier_bounds" in entry:
            raw_bounds = entry["verifier_bounds"]
            if not isinstance(raw_bounds, (list, tuple)) or len(raw_bounds) != 2:
                raise ParseError(f"field '{where}.verifier_bounds': expected a [min, max] pair")
            bounds = (
                _parse_int(f"{where}.verifier_bounds[0]", raw_bounds[0]),
                _parse_int(f"{where}.verifier_bounds[1]", raw_bounds[1]),
            )
        rules.append(ModeTableRule(mode=mode, weights=weights, verifier_bounds=bounds))
    return tuple(rules)


@functools.cache
def _scenario_loader() -> type:
    """The loader class of the ``yaml.load`` fallback, built, with PyYAML imported, on the first call."""
    import yaml

    class _ScenarioLoader(yaml.SafeLoader):
        """PyYAML's safe loader, except that a key given twice in one mapping is a :class:`ParseError`.

        A ``<<`` merge may still override merged keys; each merge source is
        constructed, and so checked, before PyYAML splices its entries in. Without
        a merge or a repeat, the check is one length comparison per mapping.
        """

        def __init__(self, stream):
            super().__init__(stream)
            self._own: dict = {}  # each mapping node's own entries, kept before merged ones join them

        def flatten_mapping(self, node):
            for key_node, value_node in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    self.construct_object(value_node, deep=True)  # a mapping, or a list of them
            self._own.setdefault(node, node.value)  # merging deletes this list's '<<' entries, adds to a copy
            super().flatten_mapping(node)

        def construct_mapping(self, node, deep=False):
            mapping = super().construct_mapping(node, deep=deep)
            if len(mapping) < len(node.value):  # a key given twice, or a merged key overridden
                first_lines: dict[Any, int] = {}
                for key_node, _ in self._own[node]:
                    key, line = self.construct_object(key_node, deep=deep), key_node.start_mark.line + 1
                    if key in first_lines:
                        raise ParseError(f"duplicate key {key!r} on line {line} (first on line {first_lines[key]})")
                    first_lines[key] = line
            return mapping

    return _ScenarioLoader


def _load_yaml(text: str) -> Any:
    """``text`` as ``yaml.load`` reads it with ``_scenario_loader()``; each failure is a :class:`ParseError`."""
    import yaml

    try:
        return yaml.load(text, Loader=_scenario_loader())
    except ParseError:
        raise
    except RecursionError:
        raise ParseError("not a valid scenario document: nested too deeply") from None
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML raises a bare ValueError for out-of-range timestamps and bad explicit tags.
        raise ParseError(f"not a valid scenario document: {exc}") from exc


# The line shape that _read_lines accepts; see its docstring.
_LINE_TEXT = re.compile(r"[\n -~]*")  # printable ASCII and newlines: no tab, '\r' or control character
_LINE_PAIR = re.compile(r"([a-z_]+): +(.+)")
_LINE_INT = r"[-+]?(?:0|[1-9][0-9]*)"
_LINE_FLOAT = r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?"
# Each scalar spelling the line shape allows, with the reader that gives it the value PyYAML gives it.
_LINE_SCALARS = (
    (re.compile(_LINE_INT), int),
    (re.compile(_LINE_FLOAT), float),
    (re.compile(rf"(?:{_LINE_INT}|{_LINE_FLOAT}) [A-Za-z]+(?:/s)?"), str),  # a quantity: number, space, unit
)
# A verifier item as the shipped files write it: its indent, then each value, an int or a float spelling.
_LINE_VERIFIER = re.compile(
    rf"( *)- \{{id: ({_LINE_INT}|{_LINE_FLOAT}), compute_capacity: ({_LINE_INT}|{_LINE_FLOAT}),"
    rf" unit_price: ({_LINE_INT}|{_LINE_FLOAT})\}}"
)


def _read_pair(text: str, mapping: dict) -> bool:
    """Add ``text``, a ``key: scalar`` pair, to ``mapping``; False, adding nothing, if it leaves the line shape.

    The key must be one of ``_SCALAR_FIELDS`` and new to ``mapping``, and the
    scalar must have one of the spellings in ``_LINE_SCALARS``.
    """
    pair = _LINE_PAIR.fullmatch(text)
    if pair is None or pair[1] not in _SCALAR_FIELDS or pair[1] in mapping:
        return False
    for spelling, read in _LINE_SCALARS:
        if spelling.fullmatch(pair[2]):
            try:
                mapping[pair[1]] = read(pair[2])
            except ValueError:  # an int too long for int(); PyYAML reports it in its own order
                return False
            return True
    return False


def _read_lines(text: str) -> Optional[dict[str, Any]]:
    """The document as ``yaml.load(text, Loader=_scenario_loader())`` reads it, or None if it leaves the line shape.

    The line shape is the shipped one: blank and comment lines, top-level
    ``key: scalar`` lines for the scalar fields, and one ``verifiers:`` line
    followed by at least one item, all at one indent, each written as
    ``_LINE_VERIFIER`` matches it whole and typed by that one match; any line
    may end in `` # comment``. Anything else, such as a repeated or unknown
    key, a scalar in another spelling (``010``, ``1.0e5``, ``.inf``, a null or
    a bare word), an item with its keys in another order or other spacing, a
    quote, anchor or tag or a nested section, returns None and leaves the whole
    document to PyYAML.
    """
    if not _LINE_TEXT.fullmatch(text):
        return None
    doc: dict[str, Any] = {}
    items: Optional[list] = None  # the verifier list while its items are being read
    indent = None
    for line in text.split("\n"):
        body = line.split(" #", 1)[0].rstrip(" ")
        if not body or body[0] == "#":  # blank, or a comment line: " #" was split off above
            continue
        item = _LINE_VERIFIER.fullmatch(body)
        if item is not None:
            if items is None or (items and item[1] != indent):
                return None
            indent = item[1]
            entry: dict[str, Any] = {}
            try:  # a float spelling has a point, an int spelling none
                for key, value in zip(_VERIFIER_KEYS, item.group(2, 3, 4)):
                    entry[key] = float(value) if "." in value else int(value)
            except ValueError:  # an int too long for int(), as in _read_pair
                return None
            items.append(entry)
        elif body == "verifiers:" and "verifiers" not in doc:
            doc["verifiers"] = items = []
        elif _read_pair(body, doc):
            items = None
        else:
            return None
    if not doc or doc.get("verifiers") == []:  # an empty document, or a null verifier list
        return None
    return doc


def parse_scenario(text: str) -> ScenarioParams:
    """Parse and validate a scenario document given as YAML text.

    A document in the line shape is read by :func:`_read_lines`, any other by
    :func:`_load_yaml`; both give the same mapping, and the checks after it are shared.
    """
    raw = _read_lines(text)
    if raw is None:
        raw = _load_yaml(text)
    raw = _check_keys(raw, "", _REQUIRED_FIELDS, _OPTIONAL_FIELDS)
    if not isinstance(raw["verifiers"], (list, tuple)):
        raise ParseError("field 'verifiers': expected a list")
    verifiers = tuple(_parse_verifier(v, i) for i, v in enumerate(raw["verifiers"]))
    return ScenarioParams(
        **{name: read(name, raw[name]) for name, read in _SCALAR_FIELDS.items()},
        verifiers=verifiers,
        weights=_parse_weights(raw["weights"], "weights") if "weights" in raw else None,
        qos_class=_parse_qos_class(raw["qos_class"]) if "qos_class" in raw else None,
        mode_table=_parse_mode_table(raw["mode_table"]) if "mode_table" in raw else None,
    )


def load_scenario(source: Union[str, os.PathLike, TextIO]) -> ScenarioParams:
    """Load a scenario from an open file or a filesystem path, given as a ``str`` or a ``Path``.

    Document text goes to :func:`parse_scenario`.
    """
    if hasattr(source, "read"):
        return parse_scenario(source.read())
    with open(os.fspath(source), "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def dump_scenario(scenario: ScenarioParams) -> str:
    """Serialize a scenario back to YAML with all quantities in base units."""
    import yaml

    doc: dict[str, Any] = {name: getattr(scenario, name) for name in _SCALAR_FIELDS}
    doc["verifiers"] = [
        {"id": p.id, "compute_capacity": p.compute_capacity, "unit_price": p.unit_price}
        for p in scenario.verifiers
    ]
    if scenario.weights is not None:
        doc["weights"] = dict(zip(_WEIGHT_KEYS, scenario.weights.as_tuple()))
    if scenario.qos_class is not None:
        doc["qos_class"] = {
            "priority": scenario.qos_class.priority,
            "security_need": scenario.qos_class.security_need,
            "label": scenario.qos_class.label,
        }
    if scenario.mode_table is not None:
        table: dict[str, Any] = {}
        for rule in scenario.mode_table:
            entry: dict[str, Any] = {}
            if rule.weights is not None:
                entry["weights"] = dict(zip(_WEIGHT_KEYS, rule.weights.as_tuple()))
            if rule.verifier_bounds is not None:
                entry["verifier_bounds"] = list(rule.verifier_bounds)
            table[rule.mode] = entry
        doc["mode_table"] = table
    return yaml.safe_dump(doc, sort_keys=False)


def feasible_rows(scenario: ScenarioParams, grid_cap: int = DEFAULT_GRID_CAP) -> tuple[tuple[int, range], ...]:
    """The feasible region as rows: ``(m, thetas)`` pairs, m ascending, ``thetas`` the row's theta run.

    The one enumeration of the region, shaped as ``SolverResult.rows``: no
    row is empty, and every grid walk reads these region rows, not the
    bounds. Raises :class:`GridCapError` above ``grid_cap`` points.
    """
    if scenario.grid_size > grid_cap:
        raise GridCapError(
            f"feasible grid has {scenario.grid_size} points, above the cap of {grid_cap}"
        )
    thetas = range(scenario.min_txn_per_block, scenario.max_txn_per_block + 1)
    return tuple((m, thetas) for m in range(scenario.min_verifiers, scenario.max_verifiers + 1))


def require_feasible(scenario: ScenarioParams, m: int, theta: int) -> None:
    """Raise :class:`ConstraintError` unless configuration (m, theta) is feasible.

    The one feasibility check: (m, theta) lies inside the scenario's box.
    """
    if not (
        scenario.min_verifiers <= m <= scenario.max_verifiers
        and scenario.min_txn_per_block <= theta <= scenario.max_txn_per_block
    ):
        raise ConstraintError(
            f"configuration (m={m}, theta={theta}) "
            f"outside feasible box m in [{scenario.min_verifiers}, {scenario.max_verifiers}], "
            f"theta in [{scenario.min_txn_per_block}, {scenario.max_txn_per_block}]"
        )
