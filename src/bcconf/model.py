"""Domain types and scenario-file handling.

The types here describe scenarios, weights and configurations; solver
traces live with the solvers in :mod:`bcconf.optimizer`. All types are immutable
after construction (frozen dataclasses) and safe to share across threads.
Beyond invariant checks, this module computes only what a scenario derives
from itself: the verifier ranking and the running sums of its payments,
once when it is built, and its normalization maxima, on first use, kept
with the scenario for its lifetime. See :mod:`bcconf.metrics` for the
closed forms.
"""
from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional, TextIO, Union

import yaml

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


@dataclass(frozen=True)
class BlockchainConfig:
    """Decision variables: verifier count m and transactions per block theta.

    Feasibility is scenario-relative; use :func:`validate_config`. The type
    itself accepts any integer pair so that validation stays total.
    """

    num_verifiers: int
    txns_per_block: int


@dataclass(frozen=True)
class NormalizationConstants:
    """Per-scenario maxima used to make the three metrics comparable."""

    max_latency: float
    max_security: float
    max_cost: float

    def __post_init__(self):
        for name, value in (
            ("max_latency", self.max_latency),
            ("max_security", self.max_security),
            ("max_cost", self.max_cost),
        ):
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive and finite, got {value}")


# ---------------------------------------------------------------------------
# Scenario document parsing
# ---------------------------------------------------------------------------

_QUANTITY_RE = re.compile(
    r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]+(?:/s)?)?\s*$"
)
_SIZE_SCALE = {"b": 1.0, "kb": 1e3, "mb": 1e6, "gb": 1e9}

_REQUIRED_FIELDS = (
    "transaction_size_bits",
    "verification_workload",
    "feedback_size_bits",
    "downlink_rate_bps",
    "uplink_rate_bps",
    "broadcast_coeff",
    "security_coeff",
    "network_scale_exponent",
    "min_verifiers",
    "max_verifiers",
    "min_txn_per_block",
    "max_txn_per_block",
    "verifiers",
)
_OPTIONAL_FIELDS = ("weights", "qos_class", "mode_table")


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
        keys = ("latency", "security", "cost")
        raw = _check_keys(raw, where, keys)
        named = [(f"{where}.{key}", raw[key]) for key in keys]
    return QosWeights(*(_parse_number(name, w) for name, w in named))


def _parse_verifier(raw: Any, index: int) -> VerifierProfile:
    where = f"verifiers[{index}]"
    raw = _check_keys(raw, where, ("id", "compute_capacity", "unit_price"))
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


def parse_scenario(text: str) -> ScenarioParams:
    """Parse and validate a scenario document given as YAML text."""
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML raises a bare ValueError for out-of-range timestamps and bad explicit tags.
        raise ParseError(f"not a valid scenario document: {exc}") from exc
    raw = _check_keys(raw, "", _REQUIRED_FIELDS, _OPTIONAL_FIELDS)
    if not isinstance(raw["verifiers"], (list, tuple)):
        raise ParseError("field 'verifiers': expected a list")
    verifiers = tuple(_parse_verifier(v, i) for i, v in enumerate(raw["verifiers"]))
    return ScenarioParams(
        transaction_size_bits=_parse_quantity("transaction_size_bits", raw["transaction_size_bits"], "bits"),
        verification_workload=_parse_number("verification_workload", raw["verification_workload"]),
        feedback_size_bits=_parse_quantity("feedback_size_bits", raw["feedback_size_bits"], "bits"),
        downlink_rate_bps=_parse_quantity("downlink_rate_bps", raw["downlink_rate_bps"], "bps"),
        uplink_rate_bps=_parse_quantity("uplink_rate_bps", raw["uplink_rate_bps"], "bps"),
        broadcast_coeff=_parse_number("broadcast_coeff", raw["broadcast_coeff"]),
        security_coeff=_parse_number("security_coeff", raw["security_coeff"]),
        network_scale_exponent=_parse_number("network_scale_exponent", raw["network_scale_exponent"]),
        min_verifiers=_parse_int("min_verifiers", raw["min_verifiers"]),
        max_verifiers=_parse_int("max_verifiers", raw["max_verifiers"]),
        min_txn_per_block=_parse_int("min_txn_per_block", raw["min_txn_per_block"]),
        max_txn_per_block=_parse_int("max_txn_per_block", raw["max_txn_per_block"]),
        verifiers=verifiers,
        weights=_parse_weights(raw["weights"], "weights") if "weights" in raw else None,
        qos_class=_parse_qos_class(raw["qos_class"]) if "qos_class" in raw else None,
        mode_table=_parse_mode_table(raw["mode_table"]) if "mode_table" in raw else None,
    )


def load_scenario(source: Union[str, os.PathLike, TextIO]) -> ScenarioParams:
    """Load a scenario from YAML text, an open file, or a filesystem path.

    A plain string is treated as document text; pass a ``Path`` to read a file.
    """
    if isinstance(source, str):
        return parse_scenario(source)
    if hasattr(source, "read"):
        return parse_scenario(source.read())
    with open(os.fspath(source), "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def dump_scenario(scenario: ScenarioParams) -> str:
    """Serialize a scenario back to YAML with all quantities in base units."""
    doc: dict[str, Any] = {
        "transaction_size_bits": scenario.transaction_size_bits,
        "verification_workload": scenario.verification_workload,
        "feedback_size_bits": scenario.feedback_size_bits,
        "downlink_rate_bps": scenario.downlink_rate_bps,
        "uplink_rate_bps": scenario.uplink_rate_bps,
        "broadcast_coeff": scenario.broadcast_coeff,
        "security_coeff": scenario.security_coeff,
        "network_scale_exponent": scenario.network_scale_exponent,
        "min_verifiers": scenario.min_verifiers,
        "max_verifiers": scenario.max_verifiers,
        "min_txn_per_block": scenario.min_txn_per_block,
        "max_txn_per_block": scenario.max_txn_per_block,
        "verifiers": [
            {"id": p.id, "compute_capacity": p.compute_capacity, "unit_price": p.unit_price}
            for p in scenario.verifiers
        ],
    }
    if scenario.weights is not None:
        doc["weights"] = {
            "latency": scenario.weights.latency_weight,
            "security": scenario.weights.security_weight,
            "cost": scenario.weights.cost_weight,
        }
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
                entry["weights"] = {
                    "latency": rule.weights.latency_weight,
                    "security": rule.weights.security_weight,
                    "cost": rule.weights.cost_weight,
                }
            if rule.verifier_bounds is not None:
                entry["verifier_bounds"] = list(rule.verifier_bounds)
            table[rule.mode] = entry
        doc["mode_table"] = table
    return yaml.safe_dump(doc, sort_keys=False)


def validate_config(scenario: ScenarioParams, config: BlockchainConfig) -> bool:
    """True iff the configuration lies inside the scenario's feasible box."""
    return (
        scenario.min_verifiers <= config.num_verifiers <= scenario.max_verifiers
        and scenario.min_txn_per_block <= config.txns_per_block <= scenario.max_txn_per_block
    )


def feasible_grid(
    scenario: ScenarioParams, grid_cap: int = DEFAULT_GRID_CAP
) -> Iterator[BlockchainConfig]:
    """Every feasible configuration in row-major order (m outer, theta inner).

    The one enumeration of the feasible box. Raises :class:`GridCapError`
    at call time if the grid has more than ``grid_cap`` points; otherwise
    returns a lazy iterator.
    """
    if scenario.grid_size > grid_cap:
        raise GridCapError(
            f"feasible grid has {scenario.grid_size} points, above the cap of {grid_cap}"
        )
    thetas = range(scenario.min_txn_per_block, scenario.max_txn_per_block + 1)
    return (
        BlockchainConfig(m, theta)
        for m in range(scenario.min_verifiers, scenario.max_verifiers + 1)
        for theta in thetas
    )


def require_feasible(scenario: ScenarioParams, config: BlockchainConfig) -> None:
    """Raise :class:`ConstraintError` unless the configuration is feasible."""
    if not validate_config(scenario, config):
        raise ConstraintError(
            f"configuration (m={config.num_verifiers}, theta={config.txns_per_block}) "
            f"outside feasible box m in [{scenario.min_verifiers}, {scenario.max_verifiers}], "
            f"theta in [{scenario.min_txn_per_block}, {scenario.max_txn_per_block}]"
        )
