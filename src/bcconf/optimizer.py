"""Configuration search: greedy early-exit sweep and the exhaustive oracle.

The greedy solver walks the integer grid coordinate-wise: for each verifier
count m it sweeps transactions-per-block upward and stops at the first
utility increase, then stops the outer loop at the first m whose best
utility exceeds the previous one. The exhaustive solver enumerates the whole
feasible box and is the ground-truth oracle the greedy result is compared
against. Both solvers, the unimodality scan and ``sweep`` evaluate a row
at a time through :func:`bcconf.metrics.evaluate_row`, which holds every
evaluation check and does each row's fixed work once; the solvers and the
scan read only each configuration's last cell, the utility.

A solver run (:class:`SolverResult`) is its optimum, the rows it walked and
their utilities in walk order. A row is an ``(m, thetas)`` pair; the
exhaustive walk's rows are the feasible box itself, so no configuration is
kept per point, and ``configs`` rebuilds them when read. Only this module
builds a run. Comparing the solvers is two calls, the oracle first: the
gap is greedy's best utility minus the oracle's, never negative.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import metrics
from .model import (
    DEFAULT_GRID_CAP,
    BlockchainConfig,
    QosWeights,
    ScenarioParams,
    ValidationError,
    feasible_rows,
)


@dataclass(frozen=True)
class SolverResult:
    """A solver's optimum and every utility evaluation it made, in order.

    ``rows`` is the walk: ``(m, thetas)`` pairs, ``thetas`` the range of theta
    evaluated at that m. ``utilities`` holds one value per point of the walk,
    so ``configs[k]`` scored ``utilities[k]``.
    """

    best_config: BlockchainConfig
    best_utility: float
    rows: tuple[tuple[int, range], ...]
    utilities: tuple[float, ...]

    def __post_init__(self):
        points = sum(len(thetas) for _, thetas in self.rows)
        if points != len(self.utilities):
            raise ValidationError(f"trace has {points} configurations but {len(self.utilities)} utilities")
        m, theta = self.best_config.num_verifiers, self.best_config.txns_per_block
        if not any(row_m == m and theta in thetas for row_m, thetas in self.rows):
            raise ValidationError("trace result must appear among its configurations")

    @property
    def configs(self) -> tuple[BlockchainConfig, ...]:
        """Each evaluated configuration, in order, built from ``rows`` on each read."""
        return tuple(BlockchainConfig(m, theta) for m, thetas in self.rows for theta in thetas)

    @property
    def evaluations(self) -> int:
        """Number of utility evaluations the solver made."""
        return len(self.utilities)

    def best_so_far(self) -> tuple[float, ...]:
        """Running minimum of the utilities, one value per evaluation."""
        return tuple(itertools.accumulate(self.utilities, min))


@dataclass(frozen=True)
class UnimodalityReport:
    """Valley-shape diagnostics of the utility over the feasible grid.

    ``greedy_exact`` is the condition under which the early-exit sweeps are
    guaranteed to return the global minimum value: every fixed-m row is
    unimodal in theta, and the sequence of per-row minima is unimodal in m.
    """

    rows_unimodal: bool
    row_minima_unimodal: bool

    @property
    def greedy_exact(self) -> bool:
        return self.rows_unimodal and self.row_minima_unimodal


def evaluate_grid(
    scenario: ScenarioParams, weights: QosWeights, *, grid_cap: int
) -> Iterator[tuple[int, range, Iterator[tuple[float, ...]]]]:
    """Lazily, each feasible row: its m, its theta run, and its cells from :func:`bcconf.metrics.evaluate_row`.

    Row-major order, as :func:`bcconf.model.feasible_rows`, whose cap check
    runs at call time. Lazy, so that consumers keep only what they need of
    each configuration's cells and the whole grid of them is never held at once.
    """
    ms, thetas = feasible_rows(scenario, grid_cap)
    return ((m, thetas, metrics.evaluate_row(scenario, weights, m, thetas)) for m in ms)


def solve_greedy(scenario: ScenarioParams, weights: QosWeights) -> SolverResult:
    """Coordinate-wise sweep with early exit on the first utility increase.

    For each m from the minimum up: evaluate theta upward from its minimum
    and freeze theta*(m) one step before the first increase (or at the upper
    bound if utility never increases). Once a verifier count's best utility
    exceeds the previous one's, return the previous count with its theta*.
    Only a strict increase stops the sweep: on exactly tied row minima greedy
    moves on to the larger m, where the oracle keeps the smaller one.
    Each row is evaluated lazily, so no point past the first increase is.
    """
    thetas = range(scenario.min_txn_per_block, scenario.max_txn_per_block + 1)
    rows: list[tuple[int, range]] = []
    utilities: list[float] = []
    prev: Optional[tuple[int, float]] = None  # (theta*, utility*) of m - 1
    result_m = scenario.max_verifiers
    for m in range(scenario.min_verifiers, scenario.max_verifiers + 1):
        u_prev = math.inf
        for theta, cells in zip(thetas, metrics.evaluate_row(scenario, weights, m, thetas)):
            u = cells[-1]
            utilities.append(u)
            if u > u_prev:
                theta_star, u_star = theta - 1, u_prev
                break
            u_prev = u
        else:
            # No increase observed: the sweep ends at the upper bound.
            theta_star, u_star = thetas[-1], u_prev
        rows.append((m, range(thetas.start, theta + 1)))  # theta is the row's last evaluated point
        if prev is not None and u_star > prev[1]:
            result_m = m - 1
            break
        prev = (theta_star, u_star)
    assert prev is not None
    best_theta, best_value = prev
    return SolverResult(BlockchainConfig(result_m, best_theta), best_value, tuple(rows), tuple(utilities))


def solve_exhaustive(
    scenario: ScenarioParams, weights: QosWeights, *, grid_cap: int = DEFAULT_GRID_CAP
) -> SolverResult:
    """Enumerate every feasible configuration in row-major order.

    Returns the global minimizer; ties go to the smaller m, then smaller theta.
    The result's rows are the feasible box, one per m.
    """
    ms, thetas = feasible_rows(scenario, grid_cap)
    utilities = tuple(cells[-1] for m in ms for cells in metrics.evaluate_row(scenario, weights, m, thetas))
    best = utilities.index(min(utilities))  # the first minimum wins ties
    row, column = divmod(best, len(thetas))
    return SolverResult(
        BlockchainConfig(ms[row], thetas[column]), utilities[best], tuple((m, thetas) for m in ms), utilities
    )


def _is_unimodal(values: Sequence[float]) -> bool:
    # Non-increasing, then non-decreasing; plateaus allowed on both flanks.
    rising = False
    for a, b in zip(values, values[1:]):
        if b > a:
            rising = True
        elif b < a and rising:
            return False
    return True


def unimodality(values: Sequence[float], width: int) -> UnimodalityReport:
    """Valley-shape diagnostics of a grid's utilities, given in row-major order in rows of ``width``.

    Checks the rows first, stopping at the first one that is not unimodal,
    then the sequence of row minima.
    """
    rows = [values[i:i + width] for i in range(0, len(values), width)]
    return UnimodalityReport(
        rows_unimodal=all(_is_unimodal(row) for row in rows),
        row_minima_unimodal=_is_unimodal([min(row) for row in rows]),
    )


def scan_unimodality(
    scenario: ScenarioParams, weights: QosWeights, *, grid_cap: int = DEFAULT_GRID_CAP
) -> UnimodalityReport:
    """Full-grid valley-shape check used as the greedy-exactness pre-scan."""
    width = scenario.max_txn_per_block - scenario.min_txn_per_block + 1
    values = [cells[-1] for _, _, row in evaluate_grid(scenario, weights, grid_cap=grid_cap) for cells in row]
    return unimodality(values, width)

