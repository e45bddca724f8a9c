"""Deterministic discrete-event simulation of block-verification rounds.

One round runs the four sequential stages: the manager dispatches the
unverified block, every selected verifier processes it, results are
broadcast and compared, and feedback returns to the manager. With jitter
disabled the simulated round latency reproduces the closed-form latency
exactly (up to floating-point accumulation), which is the central
validation property of the analytic model.

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
from typing import Optional

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


@dataclass(frozen=True)
class SimEvent:
    time_s: float
    kind: str
    actor_id: int
    round: int


@dataclass(frozen=True)
class JitterSpec:
    """Multiplicative service-time noise: uniform on [1 - spread, 1 + spread]."""

    distribution: str = "uniform"
    spread_fraction: float = 0.0

    def __post_init__(self):
        if self.distribution not in ("none", "uniform"):
            raise ValidationError(f"unknown jitter distribution {self.distribution!r}")
        if not 0.0 <= self.spread_fraction < 1.0:
            raise ValidationError("spread_fraction must lie in [0, 1)")

    @property
    def active(self) -> bool:
        return self.distribution != "none" and self.spread_fraction > 0.0


@dataclass(frozen=True)
class SimConfig:
    scenario: ScenarioParams
    config: BlockchainConfig
    rounds: int = 1
    jitter: Optional[JitterSpec] = None
    rng_seed: int = 0
    rotate_bm: bool = False

    def __post_init__(self):
        if self.rounds < 1:
            raise ValidationError("rounds must be at least 1")
        if not 0 <= self.rng_seed < 2**64:
            raise ValidationError("rng_seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SimReport:
    per_round_latency_s: tuple[float, ...]
    mean_latency_s: float
    analytic_latency_s: float
    events: tuple[SimEvent, ...]
    committed_blocks: int


def run(sim: SimConfig) -> SimReport:
    """Simulate ``sim.rounds`` sequential verification rounds.

    Rounds are back to back: a round starts when the previous block commits.
    The event log is totally ordered by (time, round, stage, actor).
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
    jitter = sim.jitter if sim.jitter is not None and sim.jitter.active else None

    def factor() -> float:
        if jitter is None:
            return 1.0
        spread = jitter.spread_fraction
        return 1.0 + spread * (2.0 * rng.random() - 1.0)

    def bm_id(round_index: int) -> int:
        if sim.rotate_bm:
            return selected[round_index % m].id
        return STATIC_BM_ID

    heap: list[tuple[float, int, int, int]] = []

    def schedule(time_s: float, round_index: int, kind: str, actor_id: int) -> None:
        heapq.heappush(heap, (time_s, round_index, _KIND_RANK[kind], actor_id))

    events: list[SimEvent] = []
    round_start: dict[int, float] = {}
    pending_verifications: dict[int, int] = {}
    latencies: list[float] = []
    committed = 0

    def start_round(round_index: int, time_s: float) -> None:
        round_start[round_index] = time_s
        pending_verifications[round_index] = m
        if sim.rotate_bm:
            schedule(time_s, round_index, BM_ROTATED, bm_id(round_index))
        schedule(time_s + dispatch_s * factor(), round_index, BLOCK_DISPATCHED, bm_id(round_index))

    start_round(0, 0.0)
    while heap:
        time_s, round_index, kind_rank, actor_id = heapq.heappop(heap)
        kind = EVENT_KINDS[kind_rank]
        events.append(SimEvent(time_s=time_s, kind=kind, actor_id=actor_id, round=round_index))
        if kind == BLOCK_DISPATCHED:
            for profile in selected:
                service = scenario.verification_workload / profile.compute_capacity
                schedule(time_s + service * factor(), round_index, VERIFICATION_DONE, profile.id)
        elif kind == VERIFICATION_DONE:
            pending_verifications[round_index] -= 1
            if pending_verifications[round_index] == 0:
                # The popped event is the latest finisher; broadcast starts here.
                schedule(time_s + broadcast_s * factor(), round_index, BROADCAST_DONE, bm_id(round_index))
        elif kind == BROADCAST_DONE:
            schedule(time_s + feedback_s * factor(), round_index, FEEDBACK_RECEIVED, bm_id(round_index))
        elif kind == FEEDBACK_RECEIVED:
            latencies.append(time_s - round_start[round_index])
            schedule(time_s, round_index, BLOCK_COMMITTED, bm_id(round_index))
        elif kind == BLOCK_COMMITTED:
            committed += 1
            if round_index + 1 < sim.rounds:
                start_round(round_index + 1, time_s)

    return SimReport(
        per_round_latency_s=tuple(latencies),
        mean_latency_s=sum(latencies) / len(latencies),
        analytic_latency_s=analytic,
        events=tuple(events),
        committed_blocks=committed,
    )


def closed_form_deviations(sim: SimConfig, report: SimReport) -> list[float]:
    """Per-round ``|simulated - analytic| / analytic`` latency of a finished run.

    Without active jitter, a round deviating by more than ``SIM_REL_TOL``
    raises :class:`ModelMismatchError` naming the configuration.
    """
    analytic = report.analytic_latency_s
    deviations = [abs(latency - analytic) / analytic for latency in report.per_round_latency_s]
    jittered = sim.jitter is not None and sim.jitter.active
    if not jittered and max(deviations) > SIM_REL_TOL:
        raise ModelMismatchError(
            f"config (m={sim.config.num_verifiers}, theta={sim.config.txns_per_block}): "
            f"simulated latency deviates from the closed form by {max(deviations):.3e} "
            f"(tolerance {SIM_REL_TOL})"
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
    max_abs_rel_deviation: float


def sweep_sim(
    scenario: ScenarioParams,
    *,
    rounds: int = 1,
    seed: int = 0,
    jitter: Optional[JitterSpec] = None,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> SimSweepReport:
    """Run the simulator at every feasible configuration.

    Each cell is checked by :func:`closed_form_deviations`: without jitter a
    deviation above ``SIM_REL_TOL`` raises :class:`ModelMismatchError`; with
    jitter the deviations are only reported.
    """
    cells: list[SimSweepCell] = []
    worst = 0.0
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
        worst = max(worst, deviation)
    return SimSweepReport(cells=tuple(cells), max_abs_rel_deviation=worst)


def events_to_csv(events: tuple[SimEvent, ...]) -> str:
    """Event log as CSV with a header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["time_s", "round", "kind", "actor_id"])
    for event in events:
        writer.writerow([event.time_s, event.round, event.kind, event.actor_id])
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
