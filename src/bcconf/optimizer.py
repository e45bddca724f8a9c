"""Configuration search: greedy early-exit sweep and the exhaustive oracle.

The greedy solver walks the integer grid coordinate-wise: for each verifier
count m it sweeps transactions-per-block upward and stops at the first
utility increase, then stops the outer loop at the first m whose best
utility exceeds the previous one. The exhaustive solver enumerates the whole
feasible box and is the ground-truth oracle the greedy result is compared
against. Every evaluation is one call of :func:`bcconf.metrics.evaluate`,
which holds every per-evaluation check; solvers and the unimodality scan
read only its last cell, the utility.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Optional, Sequence

from . import metrics
from .model import (
    DEFAULT_GRID_CAP,
    BlockchainConfig,
    OptimizationTrace,
    QosWeights,
    ScenarioParams,
    TraceEntry,
    feasible_grid,
)

GREEDY = "greedy"
EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class SolverResult:
    best_config: BlockchainConfig
    best_utility: float
    trace: OptimizationTrace
    solver_name: str


@dataclass(frozen=True)
class ComparisonReport:
    """Both solvers' outcomes on one scenario, for convergence-style plots."""

    greedy: SolverResult
    exhaustive: SolverResult
    utility_gap: float          # greedy best minus exhaustive best; never negative
    greedy_suboptimal: bool
    greedy_best_so_far: tuple[float, ...]
    exhaustive_best_so_far: tuple[float, ...]


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


class _Tracer:
    """Evaluates utilities and records every evaluation in execution order."""

    def __init__(self, scenario: ScenarioParams, weights: QosWeights):
        self._scenario = scenario
        self._weights = weights
        self.entries: list[TraceEntry] = []

    def evaluate(self, m: int, theta: int) -> float:
        config = BlockchainConfig(m, theta)
        value = metrics.evaluate(self._scenario, self._weights, config)[-1]
        self.entries.append(TraceEntry(len(self.entries) + 1, config, value))
        return value

    def finish(self, result: BlockchainConfig) -> OptimizationTrace:
        return OptimizationTrace(entries=tuple(self.entries), result=result)


def evaluate_grid(
    scenario: ScenarioParams, weights: QosWeights, *, grid_cap: int
) -> Iterator[tuple[BlockchainConfig, tuple[float, ...]]]:
    """Lazily pair every feasible configuration with its cells, the tuple of :func:`bcconf.metrics.evaluate`.

    Row-major order, as :func:`bcconf.model.feasible_grid`, whose cap check
    runs at call time. Lazy, so that consumers keep only what they need of
    each configuration's cells and the whole grid of them is never held at once.
    """
    return (
        (config, metrics.evaluate(scenario, weights, config))
        for config in feasible_grid(scenario, grid_cap)
    )


def solve_greedy(scenario: ScenarioParams, weights: QosWeights) -> SolverResult:
    """Coordinate-wise sweep with early exit on the first utility increase.

    For each m from the minimum up: evaluate theta upward from its minimum
    and freeze theta*(m) one step before the first increase (or at the upper
    bound if utility never increases). Once a verifier count's best utility
    exceeds the previous one's, return the previous count with its theta*.
    The evaluation at (m, min theta) seeds each inner sweep.
    """
    v, big_m = scenario.min_verifiers, scenario.max_verifiers
    t, big_n = scenario.min_txn_per_block, scenario.max_txn_per_block
    tracer = _Tracer(scenario, weights)

    prev: Optional[tuple[int, float]] = None  # (theta*, utility*) of m - 1
    result_m = big_m
    for m in range(v, big_m + 1):
        u_prev = tracer.evaluate(m, t)
        for theta in range(t + 1, big_n + 1):
            u = tracer.evaluate(m, theta)
            if u > u_prev:
                theta_star, u_star = theta - 1, u_prev
                break
            u_prev = u
        else:
            # No increase observed: the sweep ends at the upper bound.
            theta_star, u_star = big_n, u_prev
        if prev is not None and u_star > prev[1]:
            result_m = m - 1
            break
        prev = (theta_star, u_star)
    assert prev is not None
    best_theta, best_value = prev

    best = BlockchainConfig(result_m, best_theta)
    return SolverResult(
        best_config=best,
        best_utility=best_value,
        trace=tracer.finish(best),
        solver_name=GREEDY,
    )


def solve_exhaustive(
    scenario: ScenarioParams, weights: QosWeights, *, grid_cap: int = DEFAULT_GRID_CAP
) -> SolverResult:
    """Enumerate every feasible configuration in row-major order.

    Returns the global minimizer; ties go to the smaller m, then smaller theta.
    """
    entries = tuple(
        TraceEntry(k, config, cells[-1])
        for k, (config, cells) in enumerate(
            evaluate_grid(scenario, weights, grid_cap=grid_cap), start=1
        )
    )
    best = min(entries, key=attrgetter("utility"))  # the first minimum wins ties
    return SolverResult(
        best_config=best.config,
        best_utility=best.utility,
        trace=OptimizationTrace(entries=entries, result=best.config),
        solver_name=EXHAUSTIVE,
    )


def compare(
    scenario: ScenarioParams, weights: QosWeights, *, grid_cap: int = DEFAULT_GRID_CAP
) -> ComparisonReport:
    """Run both solvers and report evaluation counts and the utility gap."""
    greedy = solve_greedy(scenario, weights)
    exhaustive = solve_exhaustive(scenario, weights, grid_cap=grid_cap)
    gap = greedy.best_utility - exhaustive.best_utility
    return ComparisonReport(
        greedy=greedy,
        exhaustive=exhaustive,
        utility_gap=gap,
        greedy_suboptimal=gap > 0,
        greedy_best_so_far=greedy.trace.best_so_far(),
        exhaustive_best_so_far=exhaustive.trace.best_so_far(),
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


def scan_unimodality(
    scenario: ScenarioParams, weights: QosWeights, *, grid_cap: int = DEFAULT_GRID_CAP
) -> UnimodalityReport:
    """Full-grid valley-shape check used as the greedy-exactness pre-scan."""
    width = scenario.max_txn_per_block - scenario.min_txn_per_block + 1
    values = [cells[-1] for _, cells in evaluate_grid(scenario, weights, grid_cap=grid_cap)]
    rows = [values[i:i + width] for i in range(0, len(values), width)]
    return UnimodalityReport(
        rows_unimodal=all(_is_unimodal(row) for row in rows),
        row_minima_unimodal=_is_unimodal([min(row) for row in rows]),
    )


def trace_to_csv(trace: OptimizationTrace) -> str:
    """Render a trace as CSV: iteration, m, theta, utility, best_so_far."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["iteration", "m", "theta", "utility", "best_so_far"])
    writer.writerows(
        (e.iteration, e.config.num_verifiers, e.config.txns_per_block, e.utility, best)
        for e, best in zip(trace.entries, trace.best_so_far())
    )
    return buffer.getvalue()
