"""Deterministic discrete-event simulation of block-verification rounds.

One round runs the four sequential stages: the manager dispatches the
unverified block, every selected verifier processes it, results are
broadcast and compared, and feedback returns to the manager. With jitter
disabled the simulated round latency reproduces the closed-form latency
exactly (up to floating-point accumulation), which is the central
validation property of the analytic model.

A round starts only when the previous block commits, so the event heap
holds one round at a time and is empty after every commit. Each logged
:class:`SimEvent` is its own row of the CSV artifact.

Randomness comes from Python's Mersenne Twister (``random.Random``) seeded
from the run configuration; only ``random()`` draws are consumed, in a
fixed per-round order (dispatch, each verifier in selection order,
broadcast, feedback), so replays are reproducible across platforms.
"""
from __future__ import annotations

import csv
import heapq
import io
import json
import random
from dataclasses import dataclass
from typing import NamedTuple

from . import metrics
from .model import (
    DEFAULT_GRID_CAP,
    BlockchainConfig,
    ScenarioParams,
    ValidationError,
    feasible_grid,
)

# Maximum relative deviation tolerated between simulated and analytic latency
# when jitter is disabled.
SIM_REL_TOL = 1e-9

BM_ROTATED = "bm_rotated"
BLOCK_DISPATCHED = "block_dispatched"
VERIFICATION_DONE = "verification_done"
BROADCAST_DONE = "broadcast_done"
FEEDBACK_RECEIVED = "feedback_received"
BLOCK_COMMITTED = "block_committed"

EVENT_KINDS = (
    BM_ROTATED,
    BLOCK_DISPATCHED,
    VERIFICATION_DONE,
    BROADCAST_DONE,
    FEEDBACK_RECEIVED,
    BLOCK_COMMITTED,
)
_KIND_RANK = {kind: rank for rank, kind in enumerate(EVENT_KINDS)}

# Actor id recorded for the static block manager (the entity-side edge node);
# with rotation enabled the role carries the current verifier's id instead.
STATIC_BM_ID = -1


class ModelMismatchError(RuntimeError):
    """Simulated latency deviated from the closed form beyond tolerance."""


class SimEvent(NamedTuple):
    """One logged event; its fields are the event log's columns, in order."""

    time_s: float
    round: int
    kind: str
    actor_id: int


@dataclass(frozen=True)
class SimConfig:
    scenario: ScenarioParams
    config: BlockchainConfig
    rounds: int = 1
    jitter: float = 0.0  # spread j: each service time scales by uniform [1 - j, 1 + j]
    rng_seed: int = 0
    rotate_bm: bool = False

    def __post_init__(self):
        if self.rounds < 1:
            raise ValidationError("rounds must be at least 1")
        if not 0 <= self.rng_seed < 2**64:
            raise ValidationError("rng_seed must fit in 64 unsigned bits")
        if not 0.0 <= self.jitter < 1.0:  # also false for NaN
            raise ValidationError(f"jitter must lie in [0, 1), got {self.jitter!r}")


@dataclass(frozen=True)
class SimReport:
    per_round_latency_s: tuple[float, ...]
    mean_latency_s: float
    analytic_latency_s: float
    events: tuple[SimEvent, ...]
    committed_blocks: int


def run(sim: SimConfig) -> SimReport:
    """Simulate ``sim.rounds`` sequential verification rounds.

    Rounds are back to back: a round starts when the previous block commits,
    so the heap holds only the current round's events. The event log is
    totally ordered by (time, round, stage, actor), and each event is one
    row of :func:`events_to_csv`.
    """
    scenario, config = sim.scenario, sim.config
    analytic = metrics.latency(scenario, config)  # the one feasibility check
    m, theta = config.num_verifiers, config.txns_per_block
    selected = scenario.ranked_verifiers[:m]

    block_bits = theta * scenario.transaction_size_bits
    dispatch_s = block_bits / scenario.downlink_rate_bps
    broadcast_s = scenario.broadcast_coeff * block_bits * m
    feedback_s = scenario.feedback_size_bits / scenario.uplink_rate_bps

    rng = random.Random(sim.rng_seed)

    def factor() -> float:
        if not sim.jitter:
            return 1.0
        return 1.0 + sim.jitter * (2.0 * rng.random() - 1.0)

    heap: list[tuple[float, int, int]] = []

    def schedule(time_s: float, kind: str, actor_id: int) -> None:
        heapq.heappush(heap, (time_s, _KIND_RANK[kind], actor_id))

    events: list[SimEvent] = []
    latencies: list[float] = []
    committed = 0
    start_s = 0.0
    for round_index in range(sim.rounds):
        manager = selected[round_index % m].id if sim.rotate_bm else STATIC_BM_ID
        pending = m
        if sim.rotate_bm:
            schedule(start_s, BM_ROTATED, manager)
        schedule(start_s + dispatch_s * factor(), BLOCK_DISPATCHED, manager)
        while heap:
            time_s, kind_rank, actor_id = heapq.heappop(heap)
            kind = EVENT_KINDS[kind_rank]
            events.append(SimEvent(time_s, round_index, kind, actor_id))
            if kind == BLOCK_DISPATCHED:
                for profile in selected:
                    service = scenario.verification_workload / profile.compute_capacity
                    schedule(time_s + service * factor(), VERIFICATION_DONE, profile.id)
            elif kind == VERIFICATION_DONE:
                pending -= 1
                if pending == 0:
                    # The popped event is the latest finisher; broadcast starts here.
                    schedule(time_s + broadcast_s * factor(), BROADCAST_DONE, manager)
            elif kind == BROADCAST_DONE:
                schedule(time_s + feedback_s * factor(), FEEDBACK_RECEIVED, manager)
            elif kind == FEEDBACK_RECEIVED:
                latencies.append(time_s - start_s)
                schedule(time_s, BLOCK_COMMITTED, manager)
            elif kind == BLOCK_COMMITTED:
                committed += 1
                start_s = time_s

    return SimReport(
        per_round_latency_s=tuple(latencies),
        mean_latency_s=sum(latencies) / len(latencies),
        analytic_latency_s=analytic,
        events=tuple(events),
        committed_blocks=committed,
    )


def closed_form_deviations(sim: SimConfig, report: SimReport) -> list[float]:
    """Per-round ``|simulated - analytic| / analytic`` latency of a finished run.

    Without jitter, the first round deviating by more than ``SIM_REL_TOL``,
    or by NaN, raises :class:`ModelMismatchError` naming the configuration.
    """
    analytic = report.analytic_latency_s
    deviations = [abs(latency - analytic) / analytic for latency in report.per_round_latency_s]
    if not sim.jitter:
        for round_index, deviation in enumerate(deviations):
            if not deviation <= SIM_REL_TOL:  # also true for NaN
                raise ModelMismatchError(
                    f"config (m={sim.config.num_verifiers}, theta={sim.config.txns_per_block}): "
                    f"round {round_index} simulated latency deviates from the closed form "
                    f"by {deviation:.3e} (tolerance {SIM_REL_TOL})"
                )
    return deviations


@dataclass(frozen=True)
class SimSweepCell:
    config: BlockchainConfig
    analytic_latency_s: float
    mean_latency_s: float
    max_abs_rel_deviation: float


@dataclass(frozen=True)
class SimSweepReport:
    """Simulated-vs-analytic deviations over the whole feasible grid."""

    cells: tuple[SimSweepCell, ...]

    @property
    def max_abs_rel_deviation(self) -> float:
        return max((cell.max_abs_rel_deviation for cell in self.cells), default=0.0)


def sweep_sim(
    scenario: ScenarioParams,
    *,
    rounds: int = 1,
    seed: int = 0,
    jitter: float = 0.0,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> SimSweepReport:
    """Run the simulator at every feasible configuration.

    Each cell is checked by :func:`closed_form_deviations`: without jitter a
    deviation above ``SIM_REL_TOL`` raises :class:`ModelMismatchError`; with
    jitter the deviations are only reported.
    """
    cells: list[SimSweepCell] = []
    for config in feasible_grid(scenario, grid_cap):
        sim = SimConfig(scenario=scenario, config=config, rounds=rounds, jitter=jitter, rng_seed=seed)
        report = run(sim)
        deviation = max(closed_form_deviations(sim, report))
        cells.append(
            SimSweepCell(
                config=config,
                analytic_latency_s=report.analytic_latency_s,
                mean_latency_s=report.mean_latency_s,
                max_abs_rel_deviation=deviation,
            )
        )
    return SimSweepReport(cells=tuple(cells))


def events_to_csv(events: tuple[SimEvent, ...]) -> str:
    """Event log as CSV with a header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SimEvent._fields)
    writer.writerows(events)
    return buffer.getvalue()


def events_to_ndjson(events: tuple[SimEvent, ...]) -> str:
    """Event log as newline-delimited JSON records."""
    lines = [
        json.dumps(
            {"time_s": e.time_s, "round": e.round, "kind": e.kind, "actor_id": e.actor_id}
        )
        for e in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")
