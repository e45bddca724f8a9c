"""Closed-form evaluation of latency, security, cost, and the weighted utility.

Everything here is a pure function of immutable inputs: results are
bitwise-identical regardless of evaluation order. Each evaluation is O(1)
and does only per-configuration work: it reads the verifier ranking and
payment prefix sums that the scenario derived once when it was built, and
the normalization maxima that the scenario derives from the corners of
the feasible box on first use (``ScenarioParams.normalization``, computed
by :func:`normalization`) and keeps for its lifetime.

One row loop, the private generator ``_points``, holds every per-point
formula and check: the stage, ratio and utility formulas, finite latency
and non-negative latency, cost and utility. It reads the scenario's grid
constants once per row and yields each configuration's cells, plain tuples
of floats: the round latency and its four stages, or, given the values
fixed for the row, all of :data:`COLUMNS`. The public entry points are its
one-point and whole-row cases:

- :func:`evaluate` gives one configuration's cells, :func:`latency` its latency;
- :func:`evaluate_row` gives the cells of a run of block sizes at one
  verifier count, and :func:`latency_row` only their latencies, which need
  no weights and no normalization.

The row's fixed work is ``_row``'s, done once per row: the normalization
read and positive security, with the payment sum whose quotient is the
cost :func:`cost` returns. The cells of :data:`M_ONLY_COLUMNS` are read or
made once per row too, so a row yields the same object for each of them at
every theta; ``sweep`` relies on it to format them once per row.
Feasibility is checked in :func:`bcconf.model.require_feasible`.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .model import (
    BlockchainConfig,
    ConstraintError,
    NormalizationConstants,
    QosWeights,
    ScenarioParams,
    ValidationError,
    require_feasible,
)


# How each latency stage is computed from the scenario's fields.
_STAGE_FORMULAS = {
    "downlink_s": "theta * transaction_size_bits / downlink_rate_bps",
    "verify_s": "verification_workload / compute_capacity of the m-th fastest verifier",
    "broadcast_s": "broadcast_coeff * theta * transaction_size_bits * m",
    "feedback_s": "feedback_size_bits / uplink_rate_bps",
}


def _points(
    scenario: ScenarioParams, m: int, thetas: Iterable[int], row: Optional[tuple] = None
) -> Iterator[tuple[float, ...]]:
    """Lazily, the cells of each feasible configuration (m, theta), theta in ``thetas``, unchecked for feasibility.

    The row loop: reads the scenario's grid constants once, then yields, without
    ``row``, each point's round latency and its four stages, and with the fixed
    values of row m from :func:`_row`, all of :data:`COLUMNS`. Holds every
    per-point formula and check: finite latency, which names the stage when the
    latency overflows, and non-negative latency, cost and utility.
    """
    transaction_size_bits = scenario.transaction_size_bits
    downlink_rate_bps = scenario.downlink_rate_bps
    broadcast_coeff = scenario.broadcast_coeff
    # The ranking ascends in K/x, so the slowest of the first m is the m-th.
    verify_s = scenario.ranked_verify_s[m - 1]
    feedback_s = scenario.feedback_size_bits / scenario.uplink_rate_bps
    if row is not None:
        sec, payment, max_latency, security_ratio, max_cost, latency_weight, security_term, cost_weight = row
    for theta in thetas:
        block_bits = theta * transaction_size_bits
        downlink_s = block_bits / downlink_rate_bps
        broadcast_s = broadcast_coeff * block_bits * m
        total_s = downlink_s + verify_s + broadcast_s + feedback_s
        if not math.isfinite(total_s):
            values = dict(zip(_STAGE_FORMULAS, (downlink_s, verify_s, broadcast_s, feedback_s)))
            # Finite stages can still sum to infinity; then every stage is named.
            stages = [name for name, value in values.items() if not math.isfinite(value)] or values
            details = "; ".join(f"{name} = {_STAGE_FORMULAS[name]} = {values[name]!r}" for name in stages)
            raise ValidationError(f"configuration (m={m}, theta={theta}): round latency is not finite: {details}")
        if row is None:
            yield total_s, downlink_s, verify_s, broadcast_s, feedback_s
            continue
        per_txn_cost = payment / theta  # as in :func:`cost`, with the row's payment sum
        latency_ratio = total_s / max_latency
        cost_ratio = per_txn_cost / max_cost
        value = latency_weight * latency_ratio + security_term + cost_weight * cost_ratio
        if total_s < 0 or per_txn_cost < 0 or value < 0:
            name = "latency_s" if total_s < 0 else "cost" if per_txn_cost < 0 else "utility"
            raise ValidationError(f"{name} must be non-negative")
        yield (
            total_s, downlink_s, verify_s, broadcast_s, feedback_s,
            sec, per_txn_cost, latency_ratio, security_ratio, cost_ratio, value,
        )


def _cells(scenario: ScenarioParams, m: int, theta: int, row: Optional[tuple] = None) -> tuple[float, ...]:
    """The cells of the one feasible configuration (m, theta): :func:`_points` over a one-point row."""
    return next(_points(scenario, m, (theta,), row))


def _require_row(scenario: ScenarioParams, m: int, thetas: range) -> None:
    """Feasibility of row m over the nonempty ``thetas``: a range, so every point lies between its ends."""
    require_feasible(scenario, m, thetas[0])
    require_feasible(scenario, m, thetas[-1])


def _row(scenario: ScenarioParams, weights: QosWeights, m: int, theta: int) -> tuple:
    """The values :func:`_cells` needs that are fixed for row m, whose first point is theta.

    Holds the per-row checks: the normalization read and positive security.
    When one fails, the first point's own finite-latency check runs before
    the failure is raised, so a row raises what its first point raises.
    """
    try:
        # Read before security: m <= M, so once the maxima exist no term overflows.
        constants = scenario.normalization
        sec = security(scenario, m)
        if not sec > 0:
            raise ValidationError("security must be positive")
    except ValidationError:
        _cells(scenario, m, theta)
        raise
    security_ratio = constants.max_security / sec
    return (
        sec, scenario.payment_prefix[m], constants.max_latency, security_ratio, constants.max_cost,
        # The utility's middle term is fixed for the row: the sum adds it in the same order.
        weights.latency_weight, weights.security_weight * security_ratio, weights.cost_weight,
    )


def latency(scenario: ScenarioParams, config: BlockchainConfig) -> float:
    """End-to-end round latency in seconds: dispatch + verify + broadcast + feedback."""
    m, theta = config.num_verifiers, config.txns_per_block
    require_feasible(scenario, m, theta)
    return _cells(scenario, m, theta)[0]


def latency_row(scenario: ScenarioParams, m: int, thetas: range) -> Iterator[float]:
    """Lazily, :func:`latency` of each configuration (m, theta) for theta in ``thetas``.

    Each value is bit-identical to :func:`latency`'s, and comes from the same
    row loop; it needs no weights and no normalization. A row reaching
    outside the feasible box raises :class:`ConstraintError` before any value
    is made; a latency that overflows raises as :func:`latency` does, when
    its point is reached.
    """
    if not thetas:
        return iter(())
    _require_row(scenario, m, thetas)
    return map(itemgetter(0), _points(scenario, m, thetas))


def security(scenario: ScenarioParams, m: int) -> float:
    """Security level kappa * m**q; strictly increasing in the verifier count."""
    if m < 1:
        raise ConstraintError(f"m must be at least 1, got {m}")
    return scenario.security_coeff * float(m) ** scenario.network_scale_exponent


def cost(scenario: ScenarioParams, config: BlockchainConfig) -> float:
    """Per-transaction verification cost: selected capacity payments over theta."""
    m, theta = config.num_verifiers, config.txns_per_block
    require_feasible(scenario, m, theta)
    return scenario.payment_prefix[m] / theta


def normalization(scenario: ScenarioParams) -> NormalizationConstants:
    """Exact per-metric maxima over the feasible box, read from its corners.

    Latency and security peak at (M, N) by monotonicity; cost peaks at
    (M, t) since it scales with the selected payment sum and inversely
    with theta. Raises :class:`ValidationError` when a maximum is
    undefined: every selectable verifier is free, their payment sum or the
    security level at M does not fit in a float, or the round latency at
    (M, N) underflows to 0.
    """
    corner_high = BlockchainConfig(scenario.max_verifiers, scenario.max_txn_per_block)
    corner_cost = BlockchainConfig(scenario.max_verifiers, scenario.min_txn_per_block)
    max_cost = cost(scenario, corner_cost)
    if max_cost <= 0:
        raise ValidationError(
            "max_cost is zero (every selectable verifier is free); "
            "the normalized utility is undefined for this scenario"
        )
    if math.isinf(max_cost):
        raise ValidationError(
            f"unit_price * compute_capacity summed over the max_verifiers={scenario.max_verifiers} fastest "
            "verifiers overflows a float; the normalized utility is undefined for this scenario"
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
    max_latency = latency(scenario, corner_high)
    if max_latency <= 0:  # the largest round latency, so every configuration's is 0
        raise ValidationError(
            f"the round latency at (m={scenario.max_verifiers}, theta={scenario.max_txn_per_block}) underflows "
            f"to {max_latency!r}: transaction_size_bits, verification_workload and feedback_size_bits are too "
            "small for downlink_rate_bps, uplink_rate_bps and compute_capacity; the normalized utility is undefined"
        )
    return NormalizationConstants(max_latency=max_latency, max_security=max_security, max_cost=max_cost)


# The metrics of one configuration as :func:`evaluate` returns them, in ``surface.csv`` column order.
COLUMNS = (
    "latency_s", "downlink_s", "verify_s", "broadcast_s", "feedback_s",
    "security", "cost", "latency_ratio", "security_ratio", "cost_ratio", "utility",
)

# The columns that depend on m only: ``_points`` reads them once per row, so
# :func:`evaluate_row` yields the same object for each at every theta of a row.
M_ONLY_COLUMNS = ("verify_s", "feedback_s", "security", "security_ratio")


def evaluate(scenario: ScenarioParams, weights: QosWeights, config: BlockchainConfig) -> tuple[float, ...]:
    """Every metric of one configuration, in :data:`COLUMNS` order; the utility is last.

    The utility is the weighted sum of normalized latency, inverted security
    and cost; smaller is better. Latency and cost enter as fractions of their
    maxima; security enters inverted (max_security / S) so that more
    verifiers help. Raises :class:`ValidationError` unless security is
    positive and latency, cost and utility are non-negative.
    """
    m, theta = config.num_verifiers, config.txns_per_block
    require_feasible(scenario, m, theta)
    return _cells(scenario, m, theta, _row(scenario, weights, m, theta))


def evaluate_row(
    scenario: ScenarioParams, weights: QosWeights, m: int, thetas: range
) -> Iterator[tuple[float, ...]]:
    """Lazily, :func:`evaluate`'s cells of each configuration (m, theta) for theta in ``thetas``.

    The row's fixed work is done once, when this is called: the feasibility
    of the ends of ``thetas`` (a range, so every point lies between them),
    the normalization maxima, security and its ratio, the payment sum and
    the weights. What it returns is the row loop itself, so each point costs
    only its own terms, and each yielded tuple is bit-identical to
    :func:`evaluate`'s. Raises what a point-by-point walk raises first,
    except that a row reaching outside the feasible box raises
    :class:`ConstraintError` before any cell is made.
    """
    if not thetas:
        return iter(())
    _require_row(scenario, m, thetas)
    return _points(scenario, m, thetas, _row(scenario, weights, m, thetas[0]))
