"""Shared fixtures and random generators for the test suite."""
from __future__ import annotations

import csv
import heapq
import importlib.util
import io
import json
import math
import random
import sys
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from bcconf import model
from bcconf import (
    QosWeights,
    ScenarioParams,
    SimConfig,
    SimReport,
    ValidationError,
    VerifierProfile,
    load_scenario,
)
from bcconf.dpos_sim import (
    _BROADCAST,
    _COMMITTED,
    _DISPATCHED,
    _FEEDBACK,
    _ROTATED,
    _VERIFIED,
    EVENT_KINDS,
    STATIC_BM_ID,
    run,
)
from bcconf.metrics import COLUMNS

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLE2_PATH = REPO_ROOT / "scenarios" / "table2.scenario"


def import_benchmark_module(name):
    """``benchmarks/<name>.py`` as it is, imported by path under the module name ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO_ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's string annotations through it
    spec.loader.exec_module(module)
    return module


def pyyaml_only():
    """A context in which ``parse_scenario`` leaves every document to ``yaml.load``, as it did before the line reader."""
    return mock.patch.object(model, "_read_lines", lambda text: None)


def same_tree(a, b):
    """Equal in value and in type at every depth, with key order, and NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_tree(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_tree, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def make_scenario(
    *,
    capacities=(10.0, 5.0),
    prices=None,
    transaction_size_bits=1e6,
    verification_workload=20.0,
    feedback_size_bits=1e6,
    downlink_rate_bps=1e6,
    uplink_rate_bps=1e6,
    broadcast_coeff=1e-7,
    security_coeff=1.0,
    network_scale_exponent=2.0,
    min_verifiers=1,
    max_verifiers=None,
    min_txn_per_block=1,
    max_txn_per_block=4,
) -> ScenarioParams:
    """Small hand-tunable scenario; defaults give round per-stage latencies."""
    if prices is None:
        prices = tuple(1.0 for _ in capacities)
    verifiers = tuple(
        VerifierProfile(id=i, compute_capacity=c, unit_price=p)
        for i, (c, p) in enumerate(zip(capacities, prices))
    )
    if max_verifiers is None:
        max_verifiers = len(verifiers)
    return ScenarioParams(
        transaction_size_bits=transaction_size_bits,
        verification_workload=verification_workload,
        feedback_size_bits=feedback_size_bits,
        downlink_rate_bps=downlink_rate_bps,
        uplink_rate_bps=uplink_rate_bps,
        broadcast_coeff=broadcast_coeff,
        security_coeff=security_coeff,
        network_scale_exponent=network_scale_exponent,
        min_verifiers=min_verifiers,
        max_verifiers=max_verifiers,
        min_txn_per_block=min_txn_per_block,
        max_txn_per_block=max_txn_per_block,
        verifiers=verifiers,
    )


def zero_latency_scenario() -> ScenarioParams:
    """A scenario whose every stage time underflows to 0, at every (m, theta) of its box [1, 2] x [1, 3]."""
    return make_scenario(
        capacities=(1e300, 1e300), prices=(1e-300, 1e-300), transaction_size_bits=1e-300,
        verification_workload=1e-300, feedback_size_bits=1e-300, downlink_rate_bps=1e300,
        uplink_rate_bps=1e300, broadcast_coeff=0.0, max_txn_per_block=3,
    )


def random_scenario(rng: random.Random, *, max_m: int = 5, max_n: int = 6) -> ScenarioParams:
    """Random small scenario with strictly positive prices."""
    population = rng.randint(max_m, max_m + 3)
    upper_m = rng.randint(2, max_m)
    lower_m = rng.randint(1, upper_m)
    lower_t = rng.randint(1, 2)
    upper_t = rng.randint(lower_t, max_n)
    verifiers = tuple(
        VerifierProfile(
            id=i,
            compute_capacity=rng.uniform(0.5, 80.0),
            unit_price=rng.uniform(0.01, 3.0),
        )
        for i in range(population)
    )
    return ScenarioParams(
        transaction_size_bits=rng.uniform(100.0, 5000.0),
        verification_workload=rng.uniform(5.0, 300.0),
        feedback_size_bits=rng.uniform(1e3, 1e6),
        downlink_rate_bps=rng.uniform(1e5, 5e6),
        uplink_rate_bps=rng.uniform(1e5, 5e6),
        broadcast_coeff=rng.choice([0.0, rng.uniform(1e-8, 1e-4)]),
        security_coeff=rng.uniform(0.2, 4.0),
        network_scale_exponent=rng.uniform(2.0, 3.0),
        min_verifiers=lower_m,
        max_verifiers=upper_m,
        min_txn_per_block=lower_t,
        max_txn_per_block=upper_t,
        verifiers=verifiers,
    )


def normalization_scenarios() -> list[ScenarioParams]:
    """table2 plus 100 seeded random scenarios: the inputs of the normalization checks."""
    rng = random.Random(123)
    return [load_scenario(TABLE2_PATH)] + [random_scenario(rng, max_m=6, max_n=8) for _ in range(100)]


def random_weights(rng: random.Random) -> QosWeights:
    raw = [rng.uniform(0.02, 1.0) for _ in range(3)]
    total = sum(raw)
    return QosWeights(*(x / total for x in raw))


def random_feasible_config(rng: random.Random, scenario: ScenarioParams):
    from bcconf import BlockchainConfig

    return BlockchainConfig(
        rng.randint(scenario.min_verifiers, scenario.max_verifiers),
        rng.randint(scenario.min_txn_per_block, scenario.max_txn_per_block),
    )


# Frozen scenario with an irregular price pattern whose utility is not
# coordinate-wise unimodal: the greedy sweep stops at m=2 while the global
# optimum sits at m=4. Found by seeded random search, kept verbatim.
ADVERSARIAL_SCENARIO = ScenarioParams(
    transaction_size_bits=449.8,
    verification_workload=189.1,
    feedback_size_bits=980913.1,
    downlink_rate_bps=3345536.6,
    uplink_rate_bps=2020075.5,
    broadcast_coeff=0.0,
    security_coeff=3.032,
    network_scale_exponent=2.02,
    min_verifiers=1,
    max_verifiers=4,
    min_txn_per_block=1,
    max_txn_per_block=3,
    verifiers=(
        VerifierProfile(id=0, compute_capacity=30.937, unit_price=2.209),
        VerifierProfile(id=1, compute_capacity=32.283, unit_price=1.1022),
        VerifierProfile(id=2, compute_capacity=57.954, unit_price=1.5579),
        VerifierProfile(id=3, compute_capacity=54.61, unit_price=1.3829),
        VerifierProfile(id=4, compute_capacity=34.014, unit_price=2.0693),
        VerifierProfile(id=5, compute_capacity=17.736, unit_price=2.6326),
    ),
)
ADVERSARIAL_WEIGHTS = QosWeights(
    0.7121174275391753, 0.10380357985302015, 0.18407899260780455
)


def bit_identity_inputs():
    """Scenarios whose every grid point the bit-identity checks evaluate, each with its weights.

    table2, the normalization scenarios and the adversarial fixture, each
    with two random weight triples and the three zero-weight corners.
    """
    rng = random.Random(31)
    corners = (QosWeights(1.0, 0.0, 0.0), QosWeights(0.0, 1.0, 0.0), QosWeights(0.0, 0.0, 1.0))
    for scenario in [*normalization_scenarios(), ADVERSARIAL_SCENARIO]:
        yield scenario, (random_weights(rng), random_weights(rng), *corners)


def by_column(cells) -> dict[str, float]:
    """A configuration's cells by column name; the five cells of a latency alone name its stages."""
    return dict(zip(COLUMNS, cells))


class SimEvent(NamedTuple):
    """One logged event, as :func:`collect_events` keeps it; its fields are the event logs' columns, in order."""

    time_s: float
    round: int
    kind: str
    actor_id: int


def reference_event_logs(events) -> tuple[str, str]:
    """The event logs formatted by ``csv.writer`` and ``json.dumps``: (CSV, NDJSON).

    This is the reference the one-pass writer must match byte for byte.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SimEvent._fields)
    writer.writerows(events)
    ndjson = "".join(
        json.dumps({"time_s": e.time_s, "round": e.round, "kind": e.kind, "actor_id": e.actor_id}) + "\n"
        for e in events
    )
    return buffer.getvalue(), ndjson


def collect_events(sim: SimConfig) -> tuple[SimReport, list[SimEvent]]:
    """Run ``sim`` with a ``log`` that keeps every event as a :class:`SimEvent`."""
    events: list[SimEvent] = []

    def log(round_index, entries):
        events.extend(SimEvent(t, round_index, EVENT_KINDS[rank], actor_id) for t, rank, actor_id in entries)

    return run(sim, log), events


def reference_simulate(service_s, selected_ids, rounds, jitter, rng_seed, rotate_bm, log):
    """The round kernel as an event queue: the oracle for :func:`bcconf.dpos_sim._simulate`.

    Same results. ``service_s`` holds the service times in draw order:
    dispatch, each verifier, broadcast, feedback; ``test_dpos_sim.reference_kernel``
    builds it from the kernel's arguments. Each round's entries go through a heap keyed
    by ``(time_s, kind rank, actor_id)``, each popped entry pushes the next
    stage's, and ``log`` gets the round's entries in the order they popped.
    """
    m = len(selected_ids)
    draw = random.Random(rng_seed).random if jitter else None  # no spread draws nothing
    push, pop = heapq.heappush, heapq.heappop
    heap = []
    latencies = []
    start_s = 0.0
    if not jitter:  # every round takes the same times
        dispatch, *verify, broadcast, feedback = service_s
    for round_index in range(rounds):
        if jitter:
            dispatch, *verify, broadcast, feedback = [s * (1.0 + jitter * (2.0 * draw() - 1.0)) for s in service_s]
        if rotate_bm:
            manager = selected_ids[round_index % m]
            push(heap, (start_s, _ROTATED, manager))
        else:
            manager = STATIC_BM_ID
        push(heap, (start_s + dispatch, _DISPATCHED, manager))
        pending = m
        if log is not None:
            entries = []
            append = entries.append
        while heap:
            entry = pop(heap)
            if log is not None:
                append(entry)
            time_s, kind, actor_id = entry
            if kind == _VERIFIED:
                pending -= 1
                if pending == 0:
                    # The popped event is the latest finisher; broadcast starts here.
                    push(heap, (time_s + broadcast, _BROADCAST, manager))
            elif kind == _DISPATCHED:
                for verifier_id, verify_s in zip(selected_ids, verify):
                    push(heap, (time_s + verify_s, _VERIFIED, verifier_id))
            elif kind == _BROADCAST:
                push(heap, (time_s + feedback, _FEEDBACK, manager))
            elif kind == _FEEDBACK:
                latencies.append(time_s - start_s)
                push(heap, (time_s, _COMMITTED, manager))
            elif kind == _COMMITTED:
                if not math.isfinite(time_s):
                    raise ValidationError(
                        f"rounds={rounds}: the simulated clock overflows in round {round_index}"
                    )
                start_s = time_s
        if log is not None:
            log(round_index, entries)
    return latencies
