"""Closed-form evaluation of latency, security, cost, and the weighted utility.

Everything here is a pure function of immutable inputs: results are
bitwise-identical regardless of evaluation order. Each evaluation is O(1)
and does only per-configuration work: it reads the verifier ranking and
payment prefix sums that the scenario derived once when it was built, and
the normalization maxima that the scenario derives from the corners of
the feasible box on first use (``ScenarioParams.normalization``, computed
by :func:`normalization`) and keeps for its lifetime. :func:`evaluate` is
the one per-configuration kernel: a plain tuple of floats in :data:`COLUMNS`
order, which :func:`utility` wraps in a :class:`MetricBreakdown`. Each check
lives in one place: feasibility and finite latency in the stage computation
it shares with :func:`latency_terms` and :func:`latency`, positive security
and non-negative latency, cost and utility in :func:`evaluate`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    BlockchainConfig,
    ConstraintError,
    NormalizationConstants,
    QosWeights,
    ScenarioParams,
    ValidationError,
    VerifierProfile,
    require_feasible,
)


@dataclass(frozen=True)
class LatencyTerms:
    """The four sequential stages of one block-verification round."""

    downlink_s: float   # block transmission to the verifiers
    verify_s: float     # slowest selected verifier's processing time
    broadcast_s: float  # result broadcast and cross-comparison
    feedback_s: float   # feedback transmission back to the manager

    @property
    def total_s(self) -> float:
        return self.downlink_s + self.verify_s + self.broadcast_s + self.feedback_s


@dataclass(frozen=True)
class NormalizedTerms:
    latency_ratio: float   # L / max_latency, in (0, 1]
    security_ratio: float  # max_security / S, at least 1
    cost_ratio: float      # C / max_cost, in (0, 1]


@dataclass(frozen=True)
class MetricBreakdown:
    """One configuration's metrics, their normalized forms, and the utility."""

    latency_terms: LatencyTerms
    security: float
    cost: float
    utility: float
    normalized: NormalizedTerms

    @property
    def latency_s(self) -> float:
        return self.latency_terms.total_s


def select_verifiers(scenario: ScenarioParams, m: int) -> tuple[VerifierProfile, ...]:
    """The m verifiers that finish the verification workload fastest.

    Output is sorted ascending by K/x (largest capacity first), ties by id.
    """
    if not scenario.min_verifiers <= m <= scenario.max_verifiers:
        raise ConstraintError(
            f"m={m} outside [{scenario.min_verifiers}, {scenario.max_verifiers}]"
        )
    return scenario.ranked_verifiers[:m]


# How each latency stage is computed from the scenario's fields.
_STAGE_FORMULAS = {
    "downlink_s": "theta * transaction_size_bits / downlink_rate_bps",
    "verify_s": "verification_workload / compute_capacity of the m-th fastest verifier",
    "broadcast_s": "broadcast_coeff * theta * transaction_size_bits * m",
    "feedback_s": "feedback_size_bits / uplink_rate_bps",
}


def _stages(scenario: ScenarioParams, config: BlockchainConfig) -> tuple[float, float, float, float, float]:
    """The round latency, then its four stages, of a feasible configuration.

    Holds the feasibility check and the finite-latency check, which names
    the stage when the latency overflows.
    """
    require_feasible(scenario, config)
    m, theta = config.num_verifiers, config.txns_per_block
    block_bits = theta * scenario.transaction_size_bits
    downlink_s = block_bits / scenario.downlink_rate_bps
    # The ranking ascends in K/x, so the slowest of the first m is the m-th.
    verify_s = scenario.ranked_verify_s[m - 1]
    broadcast_s = scenario.broadcast_coeff * block_bits * m
    feedback_s = scenario.feedback_size_bits / scenario.uplink_rate_bps
    total_s = downlink_s + verify_s + broadcast_s + feedback_s
    if not math.isfinite(total_s):
        values = dict(zip(_STAGE_FORMULAS, (downlink_s, verify_s, broadcast_s, feedback_s)))
        # Finite stages can still sum to infinity; then every stage is named.
        stages = [name for name, value in values.items() if not math.isfinite(value)] or values
        details = "; ".join(f"{name} = {_STAGE_FORMULAS[name]} = {values[name]!r}" for name in stages)
        raise ValidationError(f"configuration (m={m}, theta={theta}): round latency is not finite: {details}")
    return total_s, downlink_s, verify_s, broadcast_s, feedback_s


def latency_terms(scenario: ScenarioParams, config: BlockchainConfig) -> LatencyTerms:
    """Per-stage latency of one verification round for a feasible configuration.

    Raises :class:`ValidationError` naming the stage when the latency overflows.
    """
    return LatencyTerms(*_stages(scenario, config)[1:])


def latency(scenario: ScenarioParams, config: BlockchainConfig) -> float:
    """End-to-end round latency in seconds: dispatch + verify + broadcast + feedback."""
    return _stages(scenario, config)[0]


def security(scenario: ScenarioParams, m: int) -> float:
    """Security level kappa * m**q; strictly increasing in the verifier count."""
    if m < 1:
        raise ConstraintError(f"m must be at least 1, got {m}")
    return scenario.security_coeff * float(m) ** scenario.network_scale_exponent


def cost(scenario: ScenarioParams, config: BlockchainConfig) -> float:
    """Per-transaction verification cost: selected capacity payments over theta."""
    require_feasible(scenario, config)
    return _cost(scenario, config)


def _cost(scenario: ScenarioParams, config: BlockchainConfig) -> float:
    # Unchecked: for m > M it would silently sum payments past the selectable verifiers.
    return scenario.payment_prefix[config.num_verifiers] / config.txns_per_block


def normalization(scenario: ScenarioParams) -> NormalizationConstants:
    """Exact per-metric maxima over the feasible box, read from its corners.

    Latency and security peak at (M, N) by monotonicity; cost peaks at
    (M, t) since it scales with the selected payment sum and inversely
    with theta. Raises :class:`ValidationError` when a maximum is
    undefined: every selectable verifier is free, or the security level at
    M does not fit in a float.
    """
    corner_high = BlockchainConfig(scenario.max_verifiers, scenario.max_txn_per_block)
    corner_cost = BlockchainConfig(scenario.max_verifiers, scenario.min_txn_per_block)
    max_cost = cost(scenario, corner_cost)
    if max_cost <= 0:
        raise ValidationError(
            "max_cost is zero (every selectable verifier is free); "
            "the normalized utility is undefined for this scenario"
        )
    try:
        max_security = security(scenario, scenario.max_verifiers)
    except OverflowError:
        max_security = math.inf
    if math.isinf(max_security):
        raise ValidationError(
            "security_coeff * max_verifiers ** network_scale_exponent overflows a float "
            f"(network_scale_exponent={scenario.network_scale_exponent!r})"
        )
    return NormalizationConstants(
        max_latency=latency(scenario, corner_high),
        max_security=max_security,
        max_cost=max_cost,
    )


# The metrics of one configuration as :func:`evaluate` returns them, in ``surface.csv`` column order.
COLUMNS = (
    "latency_s", "downlink_s", "verify_s", "broadcast_s", "feedback_s",
    "security", "cost", "latency_ratio", "security_ratio", "cost_ratio", "utility",
)


def evaluate(scenario: ScenarioParams, weights: QosWeights, config: BlockchainConfig) -> tuple[float, ...]:
    """Every metric of one configuration, in :data:`COLUMNS` order; the utility is last.

    The utility is the weighted sum of normalized latency, inverted security
    and cost; smaller is better. Latency and cost enter as fractions of their
    maxima; security enters inverted (max_security / S) so that more
    verifiers help. Raises :class:`ValidationError` unless security is
    positive and latency, cost and utility are non-negative.
    """
    stages = _stages(scenario, config)
    total_latency = stages[0]
    # Read before security: m <= M, so once the maxima exist no term overflows.
    constants = scenario.normalization
    sec = security(scenario, config.num_verifiers)
    if not sec > 0:
        raise ValidationError("security must be positive")
    per_txn_cost = _cost(scenario, config)
    latency_ratio = total_latency / constants.max_latency
    security_ratio = constants.max_security / sec
    cost_ratio = per_txn_cost / constants.max_cost
    value = (
        weights.latency_weight * latency_ratio
        + weights.security_weight * security_ratio
        + weights.cost_weight * cost_ratio
    )
    if total_latency < 0 or per_txn_cost < 0 or value < 0:
        name = "latency_s" if total_latency < 0 else "cost" if per_txn_cost < 0 else "utility"
        raise ValidationError(f"{name} must be non-negative")
    return (*stages, sec, per_txn_cost, latency_ratio, security_ratio, cost_ratio, value)


def utility(
    scenario: ScenarioParams, weights: QosWeights, config: BlockchainConfig
) -> MetricBreakdown:
    """:func:`evaluate`'s metrics of one configuration as a :class:`MetricBreakdown`."""
    _, *stages, sec, per_txn_cost, latency_ratio, security_ratio, cost_ratio, value = evaluate(
        scenario, weights, config
    )
    return MetricBreakdown(
        latency_terms=LatencyTerms(*stages),
        security=sec,
        cost=per_txn_cost,
        utility=value,
        normalized=NormalizedTerms(latency_ratio, security_ratio, cost_ratio),
    )
