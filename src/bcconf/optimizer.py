"""Configuration search: greedy early-exit sweep and the exhaustive oracle.

Every walk reads the region rows of :func:`bcconf.model.feasible_rows`,
``(m, thetas)`` pairs in m order. The greedy solver sweeps each row's theta
upward and stops at the first utility increase, then stops at the first row
whose best utility exceeds the previous row's. The exhaustive solver
enumerates every row and is the ground-truth oracle the greedy result is
compared against. Both solvers, the unimodality scan and ``sweep`` evaluate
a row at a time through :func:`bcconf.metrics.evaluate_row`, which holds
every evaluation check and does each row's fixed work once; the solvers and
the scan read only each configuration's last cell, the utility.

A solver run (:class:`SolverResult`) is its optimum, the rows it walked and
their utilities in walk order. The exhaustive walk's rows are the region
rows themselves, so no configuration is kept per point, and ``configs``
rebuilds them when read. Only this module builds a run.

The greedy walk has two sources of utilities: :func:`solve_greedy`
evaluates each row as it goes, and :func:`greedy_of` reads them off an
exhaustive run, evaluating nothing. Comparing the solvers is the oracle,
then :func:`greedy_of` on its result, so each configuration is evaluated
once: the gap is greedy's best utility minus the oracle's, never negative.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

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
    """A solver's optimum and every utility its walk read, in order.

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
        """Number of points the walk read: one utility each, evaluated unless read off the oracle's."""
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


def _greedy_walk(rows: Iterable[tuple[int, range, Iterator[float]]]) -> SolverResult:
    """The greedy walk over ``(m, thetas, utilities)`` rows, each row's utilities in theta order.

    For each row in m order: read utilities theta upward from the row's first
    and freeze theta*(m) one step before the first increase (or at the row's
    last theta if utility never increases). Once a row's best utility
    exceeds the previous row's, return the previous row's m with its theta*.
    Only a strict increase stops the sweep: on exactly tied row minima greedy
    moves on to the next row, where the oracle keeps the smaller m.
    No utility past a row's first increase is read, and no row past the stop.
    """
    walked: list[tuple[int, range]] = []
    utilities: list[float] = []
    prev: Optional[tuple[int, int, float]] = None  # (m, theta*, utility*) of the previous row
    for m, thetas, row in rows:
        u_prev = math.inf
        for theta, u in zip(thetas, row):
            utilities.append(u)
            if u > u_prev:
                theta_star, u_star = theta - 1, u_prev
                break
            u_prev = u
        else:
            # No increase observed: the sweep ends at the row's last theta.
            theta_star, u_star = thetas[-1], u_prev
        walked.append((m, range(thetas.start, theta + 1)))  # theta is the row's last read point
        if prev is not None and u_star > prev[2]:
            break
        prev = (m, theta_star, u_star)
    assert prev is not None
    best_m, best_theta, best_value = prev
    return SolverResult(BlockchainConfig(best_m, best_theta), best_value, tuple(walked), tuple(utilities))


def solve_greedy(scenario: ScenarioParams, weights: QosWeights) -> SolverResult:
    """Coordinate-wise sweep over the region rows with early exit on the first utility increase.

    Walks as :func:`_greedy_walk` states, evaluating each row lazily, so no
    point past a row's first increase is evaluated, and no row past the stop.
    """
    rows = feasible_rows(scenario, scenario.grid_size)  # the grid cap never refuses greedy
    return _greedy_walk(
        (m, thetas, map(itemgetter(-1), metrics.evaluate_row(scenario, weights, m, thetas))) for m, thetas in rows
    )


def greedy_of(oracle: SolverResult) -> SolverResult:
    """:func:`solve_greedy`'s result read off the exhaustive result ``oracle``, with no evaluation.

    Greedy's walk visits a subset of the region rows the oracle walked, and
    :func:`bcconf.metrics.evaluate_row` gives both solvers the same cells, so
    reading each row's utilities from ``oracle.utilities`` gives the same
    result field for field, every utility bit for bit.
    """
    utilities = oracle.utilities
    starts = itertools.accumulate((len(thetas) for _, thetas in oracle.rows), initial=0)
    return _greedy_walk(
        (m, thetas, map(utilities.__getitem__, range(start, start + len(thetas))))
        for (m, thetas), start in zip(oracle.rows, starts)
    )


def solve_exhaustive(
    scenario: ScenarioParams, weights: QosWeights, *, grid_cap: int = DEFAULT_GRID_CAP
) -> SolverResult:
    """Enumerate every feasible configuration in row-major order.

    Returns the global minimizer; ties go to the smaller m, then smaller theta.
    The result's rows are the region rows, as :func:`bcconf.model.feasible_rows` gives them.
    """
    rows = feasible_rows(scenario, grid_cap)
    row_cells = (metrics.evaluate_row(scenario, weights, m, thetas) for m, thetas in rows)
    utilities = tuple(cells[-1] for row in row_cells for cells in row)
    best = utilities.index(min(utilities))  # the first minimum wins ties
    ends = list(itertools.accumulate(len(thetas) for _, thetas in rows))
    row = bisect.bisect_right(ends, best)  # the first row ending past the optimum holds it
    m, thetas = rows[row]  # best - ends[row] counts back from the row's end
    return SolverResult(BlockchainConfig(m, thetas[best - ends[row]]), utilities[best], rows, utilities)


def _is_unimodal(values: Sequence[float]) -> bool:
    # Non-increasing, then non-decreasing; plateaus allowed on both flanks.
    rising = False
    for a, b in zip(values, values[1:]):
        if b > a:
            rising = True
        elif b < a and rising:
            return False
    return True


def unimodality(rows: Sequence[tuple[int, range]], values: Sequence[float]) -> UnimodalityReport:
    """Valley-shape diagnostics of utilities given in the row-major order of ``rows``, one per point.

    Splits ``values`` at the rows' cumulative ends, then checks the rows
    first, stopping at the first one that is not unimodal, then the sequence
    of row minima. Raises :class:`ValidationError` unless the values fill the
    rows exactly.
    """
    ends = list(itertools.accumulate(len(thetas) for _, thetas in rows))
    points = ends[-1] if ends else 0
    if points != len(values):
        raise ValidationError(f"{len(values)} values do not fill rows of {points} points")
    split = [values[start:end] for start, end in zip([0, *ends], ends)]
    return UnimodalityReport(
        rows_unimodal=all(_is_unimodal(row) for row in split),
        row_minima_unimodal=_is_unimodal([min(row) for row in split]),
    )


def scan_unimodality(
    scenario: ScenarioParams, weights: QosWeights, *, grid_cap: int = DEFAULT_GRID_CAP
) -> UnimodalityReport:
    """Full-grid valley-shape check used as the greedy-exactness pre-scan."""
    rows = feasible_rows(scenario, grid_cap)
    values = [cells[-1] for m, thetas in rows for cells in metrics.evaluate_row(scenario, weights, m, thetas)]
    return unimodality(rows, values)
