"""Deterministic discrete-event simulation of block-verification rounds.

One round runs the four sequential stages: the manager dispatches the
unverified block, every selected verifier processes it, results are
broadcast and compared, and feedback returns to the manager. With jitter
disabled the simulated round latency reproduces the closed-form latency
exactly (up to floating-point accumulation), which is the central
validation property of the analytic model.

A round starts when the previous block commits and each stage when the one
before it ends, so the round kernel ``_simulate`` writes a round's events
stage by stage: the optional manager rotation, dispatch, the verifications,
broadcast from the last of them, feedback and commit. Only the verifications
overlap; sorting them by time, then verifier id, gives the order an event
queue would pop them in. At each commit the round's events go to an optional
``log`` callback and are dropped, so memory grows only by one latency per
round. :func:`event_writer` builds the ``log`` that streams them to both
event logs, one line per event in :data:`EVENT_COLUMNS`, formatting each
instant once: a commit shares its feedback's time, and a rotation the
previous commit's. Without a ``log``, as in :func:`sweep_sim`, no event is
built.

One private row generator, ``_runs``, runs the kernel at each configuration
of a row and holds the one check of its latencies against the closed form
(:func:`bcconf.metrics.latency_row`). :func:`run` is its one-point case, and
:func:`sweep_sim` walks it over the region rows.

Randomness comes from Python's Mersenne Twister (``random.Random``) seeded
from the run configuration, built only when the jitter spread is nonzero;
only ``random()`` draws are consumed, in a fixed per-round order (dispatch,
each verifier in selection order, broadcast, feedback), drawn when the
round starts, so replays are reproducible across platforms.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

from . import metrics
from .model import (
    DEFAULT_GRID_CAP,
    BlockchainConfig,
    ScenarioParams,
    ValidationError,
    feasible_rows,
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
# The event logs' columns, in order: each event is one line of these.
EVENT_COLUMNS = ("time_s", "round", "kind", "actor_id")
# An event entry is (time_s, kind rank, actor_id): each kind travels as its
# rank in EVENT_KINDS, which also orders the events of one instant.
_ROTATED, _DISPATCHED, _VERIFIED, _BROADCAST, _FEEDBACK, _COMMITTED = range(len(EVENT_KINDS))
EventEntry = tuple[float, int, int]
# Called with (round index, the round's entries in event order) at each commit.
EventLog = Callable[[int, list[EventEntry]], None]

# Actor id recorded for the static block manager (the entity-side edge node);
# with rotation enabled the role carries the current verifier's id instead.
STATIC_BM_ID = -1


class ModelMismatchError(RuntimeError):
    """Simulated latency deviated from the closed form beyond tolerance."""


@dataclass(frozen=True)
class SimConfig:
    """One run: ``rounds`` back-to-back rounds of ``config`` under ``scenario``.

    ``jitter`` is the spread j, a fraction in [0, 1): each round, every
    service time in seconds (dispatch, each verification, broadcast,
    feedback) scales by its own factor, drawn uniformly from [1 - j, 1 + j];
    at 0 every round takes the closed form's times and nothing is drawn.
    ``rng_seed``, in [0, 2**64), seeds the draws. ``rotate_bm`` hands the
    manager role to the selected verifiers round-robin, in selection order.
    A wrong type or value raises :class:`ValidationError` naming the field.
    """

    scenario: ScenarioParams
    config: BlockchainConfig
    rounds: int = 1
    jitter: float = 0.0
    rng_seed: int = 0
    rotate_bm: bool = False

    def __post_init__(self):
        # A bool is an int, but never a count, a seed or a spread.
        for name, value in (
            ("rounds", self.rounds),
            ("rng_seed", self.rng_seed),
            ("config.num_verifiers", self.config.num_verifiers),
            ("config.txns_per_block", self.config.txns_per_block),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an int, got {value!r}")
        if isinstance(self.jitter, bool) or not isinstance(self.jitter, (int, float)):
            raise ValidationError(f"jitter must be an int or a float, got {self.jitter!r}")
        if not isinstance(self.rotate_bm, bool):  # a truthy "no" would rotate
            raise ValidationError(f"rotate_bm must be a bool, got {self.rotate_bm!r}")
        if self.rounds < 1:
            raise ValidationError("rounds must be at least 1")
        if not 0 <= self.rng_seed < 2**64:
            raise ValidationError("rng_seed must fit in 64 unsigned bits")
        if not 0.0 <= self.jitter < 1.0:  # also false for NaN
            raise ValidationError(f"jitter must lie in [0, 1), got {self.jitter!r}")


@dataclass(frozen=True)
class SimReport:
    """Each round's latency in seconds (dispatch to feedback) in round order, their mean, the closed form,
    and each round's ``|simulated - analytic| / analytic`` latency."""

    per_round_latency_s: tuple[float, ...]
    mean_latency_s: float
    analytic_latency_s: float
    abs_rel_deviation: tuple[float, ...]


def _service_times(scenario: ScenarioParams, m: int, thetas: Iterable[int]) -> Iterator[tuple[float, float, float]]:
    """Lazily, ``(dispatch_s, broadcast_s, feedback_s)`` of each configuration (m, theta) for theta in ``thetas``.

    This module's own statement of the dispatch, broadcast and feedback
    formulas, so that the closed form is checked against an independent
    computation. ``feedback_s`` does not depend on the configuration and is
    taken once per row. The verification times are not among them: the
    kernel reads the row's slice of ``scenario.ranked_verify_s`` as it is.
    """
    transaction_bits, downlink_bps = scenario.transaction_size_bits, scenario.downlink_rate_bps
    broadcast_coeff = scenario.broadcast_coeff
    feedback_s = scenario.feedback_size_bits / scenario.uplink_rate_bps
    for theta in thetas:
        block_bits = theta * transaction_bits
        yield block_bits / downlink_bps, broadcast_coeff * block_bits * m, feedback_s


def _simulate(
    service: tuple[float, float, float],
    verify_s: tuple[float, ...],
    selected_ids: list[int],
    rounds: int,
    jitter: float,
    rng_seed: int,
    rotate_bm: bool,
    log: Optional[EventLog],
) -> list[float]:
    """The round kernel: each round's latency over ``rounds`` back-to-back rounds.

    Run by ``_runs`` for both entry points, with arguments already
    validated: ``service`` as :func:`_service_times` yields it, ``verify_s``
    the row's ``scenario.ranked_verify_s[:m]``, read as it is, and
    ``selected_ids`` the ids of the verifiers it times, in the same order.
    Each stage starts where the one before ends: rotation (with
    ``rotate_bm``) at the round's start, dispatch, verify, broadcast from the
    last verification, at ``dispatched_s + max(verify)`` since rounding is
    monotonic, feedback, and commit at the feedback time. Without jitter
    every round takes these times, and ``max(verify)`` is taken once per run.
    With jitter, each round draws its factors in the order dispatch, each
    verifier, broadcast, feedback, and takes ``max(verify)`` of its own. No
    service time is negative, so stages never overlap and kind ranks order
    those of one instant; sorting the verify stage by time, then verifier id,
    puts the round's entries in the order an event queue would pop them in.
    The entries, the manager's id and the sorted verify stage are built only
    for a ``log``.
    """
    latencies: list[float] = []
    start_s = 0.0
    if jitter:
        draw = random.Random(rng_seed).random
        drawn_s = (service[0], *verify_s, service[1], service[2])  # in draw order
    else:  # every round takes the same times, and the same slowest verification; nothing is drawn
        dispatch, broadcast, feedback = service
        verify = verify_s
        slowest = max(verify_s)
    for round_index in range(rounds):
        if jitter:
            dispatch, *verify, broadcast, feedback = [s * (1.0 + jitter * (2.0 * draw() - 1.0)) for s in drawn_s]
            slowest = max(verify)
        dispatched_s = start_s + dispatch
        broadcast_s = dispatched_s + slowest + broadcast
        feedback_s = broadcast_s + feedback
        latencies.append(feedback_s - start_s)
        if not math.isfinite(feedback_s):
            raise ValidationError(f"rounds={rounds}: the simulated clock overflows in round {round_index}")
        if log is not None:
            manager = selected_ids[round_index % len(selected_ids)] if rotate_bm else STATIC_BM_ID
            verified = sorted([(dispatched_s + v, _VERIFIED, i) for i, v in zip(selected_ids, verify)])
            entries = [(start_s, _ROTATED, manager)] if rotate_bm else []
            entries += (dispatched_s, _DISPATCHED, manager), *verified, (broadcast_s, _BROADCAST, manager)
            entries += (feedback_s, _FEEDBACK, manager), (feedback_s, _COMMITTED, manager)
            log(round_index, entries)
        start_s = feedback_s
    return latencies


def _runs(
    sim: SimConfig, m: int, thetas: range, log: Optional[EventLog]
) -> Iterator[tuple[BlockchainConfig, float, list[float], list[float]]]:
    """Lazily, ``(config, analytic, latencies, deviations)`` of each configuration (m, theta), theta in ``thetas``.

    Each configuration runs under ``sim``'s scenario and its validated run
    parameters; ``sim.config`` is not read. The row's fixed work is done
    once: one :func:`bcconf.metrics.latency_row` call gives the closed forms
    and checks the row's feasibility before anything runs, and every
    configuration times the same verifiers. Per configuration, the closed
    form's overflow check runs before the kernel, and the kernel's clock
    check before the one copy of the closed-form check: a closed form of 0
    or less raises :class:`ValidationError`; without jitter, the first round
    deviating by more than ``SIM_REL_TOL``, or by NaN, raises
    :class:`ModelMismatchError`. Both name the configuration.
    """
    scenario = sim.scenario
    analytics = metrics.latency_row(scenario, m, thetas)
    verify_s = scenario.ranked_verify_s[:m]  # one tuple for the row, copied for no configuration
    selected_ids = [profile.id for profile in scenario.ranked_verifiers[:m]]
    for theta, service, analytic in zip(thetas, _service_times(scenario, m, thetas), analytics):
        latencies = _simulate(service, verify_s, selected_ids, sim.rounds, sim.jitter, sim.rng_seed, sim.rotate_bm, log)
        if analytic <= 0:  # one that underflows to 0 leaves no relative deviation; NaN is a mismatch below
            raise ValidationError(
                f"config (m={m}, theta={theta}): the closed-form latency must be positive, got {analytic!r}"
            )
        deviations = [abs(latency - analytic) / analytic for latency in latencies]
        if not sim.jitter:
            for round_index, deviation in enumerate(deviations):
                if not deviation <= SIM_REL_TOL:  # also true for NaN
                    raise ModelMismatchError(
                        f"config (m={m}, theta={theta}): round {round_index} simulated latency deviates "
                        f"from the closed form by {deviation:.3e} (tolerance {SIM_REL_TOL})"
                    )
        yield BlockchainConfig(m, theta), analytic, latencies, deviations


def run(sim: SimConfig, log: Optional[EventLog] = None) -> SimReport:
    """Simulate ``sim.rounds`` sequential verification rounds, checked against the closed form.

    Rounds are back to back: a round starts when the previous block commits.
    Each entry ``(time_s, kind rank, actor_id)`` is one event; the log is
    totally ordered by (time, round, stage, actor). When the round commits,
    its entries and its index go to ``log`` if one is given, and are dropped
    either way, so memory does not grow with the events. A round that
    commits at a non-finite time raises :class:`ValidationError` naming
    ``rounds``. After the last round, a closed form of 0 or less raises
    :class:`ValidationError`, and without jitter a round deviating from it
    by more than ``SIM_REL_TOL`` raises :class:`ModelMismatchError`.
    """
    theta = sim.config.txns_per_block
    ((_, analytic, latencies, deviations),) = _runs(sim, sim.config.num_verifiers, range(theta, theta + 1), log)
    return SimReport(tuple(latencies), sum(latencies) / len(latencies), analytic, tuple(deviations))


class SimSweepCell(NamedTuple):
    """A sweep's configuration, its closed-form and mean simulated latency in seconds, and its largest
    per-round ``|simulated - analytic| / analytic`` under the sweep's jitter (see :class:`SimConfig`).

    A named tuple: it equals the plain tuple of its fields, and unpacks in
    this order.
    """

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
    """Run the simulator at every feasible configuration: each cell is what :func:`run` reports for it.

    The grid cap is checked first, then ``rounds``, ``seed`` and ``jitter``,
    before any cell is simulated. A cell raises what :func:`run` raises:
    without jitter a deviation above ``SIM_REL_TOL`` raises
    :class:`ModelMismatchError`; with jitter the deviations are only reported.
    """
    rows = feasible_rows(scenario, grid_cap)
    m, thetas = rows[0]
    # Validates the run parameters once, before any cell is simulated; no rotation, no log.
    sim = SimConfig(scenario, BlockchainConfig(m, thetas[0]), rounds=rounds, jitter=jitter, rng_seed=seed)
    runs = (_runs(sim, m, thetas, None) for m, thetas in rows)
    return SimSweepReport(
        cells=tuple(
            SimSweepCell(config, analytic, sum(latencies) / len(latencies), max(deviations))
            for row in runs
            for config, analytic, latencies, deviations in row
        )
    )


def event_writer(csv_file: TextIO, ndjson_file: TextIO) -> EventLog:
    """A ``log`` for :func:`run` that streams each round to both event logs: CSV and NDJSON.

    Round 0 writes the CSV header first, so a run that raises before its
    first commit writes nothing. Each round goes to each file in one
    ``write``. A line's fixed end (kind and actor) is formatted once per run
    for each ``(kind rank, actor_id)`` pair, at most ``len(EVENT_KINDS) *
    (m + 1)`` of them, and its round once per round. Each instant is
    formatted once with ``repr``, which is what ``csv`` and ``json`` write
    for the finite floats :func:`run` logs: an entry whose time is the very
    float object of the entry before it, as a commit's is its feedback's and
    a rotation's the previous commit's, reuses that entry's text. The test is
    identity, not equality, so ``-0.0`` never takes the text of ``0.0``.
    Kinds match ``[a-z_]+``, so nothing needs CSV quoting or JSON escaping.
    """
    write_csv, write_ndjson = csv_file.write, ndjson_file.write
    tails: list[dict[int, tuple[str, str]]] = [{} for _ in EVENT_KINDS]  # [rank][actor_id] -> (CSV end, NDJSON end)
    last_time: Optional[float] = None  # the last entry's time, held so that identity with it stays exact
    last_text = ""

    def log(round_index: int, entries: list[EventEntry]) -> None:
        nonlocal last_time, last_text
        csv_round, ndjson_round = f",{round_index}", f', "round": {round_index}'
        csv_lines = [",".join(EVENT_COLUMNS) + "\n"] if round_index == 0 else []
        ndjson_lines = []
        previous, t = last_time, last_text
        for time_s, rank, actor_id in entries:
            tail = tails[rank].get(actor_id)
            if tail is None:
                kind = EVENT_KINDS[rank]
                tail = tails[rank][actor_id] = (
                    f",{kind},{actor_id}\n",
                    f', "kind": "{kind}", "actor_id": {actor_id}}}\n',
                )
            if time_s is not previous:
                previous, t = time_s, repr(time_s)
            csv_lines.append(f"{t}{csv_round}{tail[0]}")
            ndjson_lines.append(f'{{"time_s": {t}{ndjson_round}{tail[1]}')
        last_time, last_text = previous, t
        write_csv("".join(csv_lines))
        write_ndjson("".join(ndjson_lines))

    return log
