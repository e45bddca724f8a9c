"""Mapping of data classes to a run's verifier box and weights.

Each (priority, security need) quadrant selects an operating mode: a weight
vector for the utility and, for the two restricted modes, a pin on the
verifier count. The built-in weight table is a convention; :func:`resolve`
states how a scenario file and the command line override it.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .model import (
    MODE_NAMES,
    DataClass,
    ModeTableRule,
    QosWeights,
    ScenarioParams,
    ValidationError,
)

RESTRICTED, FULLY_RESTRICTED, BALANCED, ECONOMY = MODE_NAMES

_PIN_MIN = "min"
_PIN_MAX = "max"

_EQUAL = QosWeights(1 / 3, 1 / 3, 1 / 3)

# (priority, security_need) -> (mode, default weights, verifier-count pin)
_QUADRANTS: dict[tuple[str, str], tuple[str, QosWeights, Optional[str]]] = {
    ("high", "low"): (RESTRICTED, QosWeights(0.6, 0.1, 0.3), _PIN_MIN),
    ("low", "high"): (FULLY_RESTRICTED, QosWeights(0.1, 0.6, 0.3), _PIN_MAX),
    ("high", "high"): (BALANCED, _EQUAL, None),
    ("low", "low"): (ECONOMY, QosWeights(0.1, 0.2, 0.7), None),
}


def resolve(
    scenario: ScenarioParams,
    data_class: Optional[DataClass] = None,
    weights: Optional[QosWeights] = None,
) -> tuple[ScenarioParams, QosWeights]:
    """The scenario narrowed to a run's verifier box, and the run's weights.

    ``weights`` (the ``--weights`` flag) comes first. With a data class
    (``data_class``, else the file's ``qos_class``) the mode's
    ``mode_table`` weights come next, then the file's ``weights``, then
    the mode's built-in weights; the mode's ``mode_table`` bounds, else its
    pin, are clamped into the scenario's verifier box and narrow it. With
    no data class the file's ``weights`` beat equal weights, and
    ``mode_table`` is not read. With no bounds to apply, the scenario
    itself is returned.
    """
    data_class = data_class or scenario.qos_class
    if data_class is None:
        return scenario, weights or scenario.weights or _EQUAL
    mode, default, pin = _QUADRANTS[(data_class.priority, data_class.security_need)]
    rule = next((r for r in scenario.mode_table or () if r.mode == mode), ModeTableRule(mode))
    weights = weights or rule.weights or scenario.weights or default
    v, big_m = scenario.min_verifiers, scenario.max_verifiers
    bounds = rule.verifier_bounds or {_PIN_MIN: (v, v), _PIN_MAX: (big_m, big_m)}.get(pin)
    if bounds is None:
        return scenario, weights
    lo, hi = (min(max(bound, v), big_m) for bound in bounds)
    if lo > hi:
        raise ValidationError(
            f"field 'mode_table.{mode}.verifier_bounds': {bounds} is empty after clamping to [{v}, {big_m}]"
        )
    return replace(scenario, min_verifiers=lo, max_verifiers=hi), weights
