"""Event-driven round simulation against the closed-form latency oracle."""
import csv
import dataclasses
import hashlib
import io
import json
import math
import pickle
import random
import re
import tracemalloc

import pytest

from bcconf import (
    BlockchainConfig,
    ConstraintError,
    GridCapError,
    ModelMismatchError,
    SimConfig,
    ValidationError,
    dump_scenario,
    latency,
    load_scenario,
    run_simulation,
    sweep_sim,
)
from bcconf import cli, dpos_sim
from bcconf.dpos_sim import (
    _COMMITTED,
    _DISPATCHED,
    _FEEDBACK,
    _ROTATED,
    BLOCK_COMMITTED,
    BLOCK_DISPATCHED,
    BM_ROTATED,
    BROADCAST_DONE,
    EVENT_KINDS,
    FEEDBACK_RECEIVED,
    STATIC_BM_ID,
    VERIFICATION_DONE,
    SimSweepCell,
    event_writer,
)
from bcconf.model import feasible_rows
from helpers import (
    TABLE2_PATH,
    SimEvent,
    collect_events,
    make_scenario,
    random_feasible_config,
    random_scenario,
    reference_event_logs,
    reference_simulate,
    zero_latency_scenario,
)


def event_logs(sim: SimConfig) -> tuple[str, str]:
    """What a fresh :func:`event_writer` streams for ``sim`` as its ``log``: (CSV, NDJSON)."""
    csv_file, ndjson_file = io.StringIO(), io.StringIO()
    run_simulation(sim, event_writer(csv_file, ndjson_file))
    return csv_file.getvalue(), ndjson_file.getvalue()


class DiscardingSink:
    """A text sink whose ``write`` keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


def test_zero_jitter_matches_closed_form_per_round():
    scenario = load_scenario(TABLE2_PATH)
    config = BlockchainConfig(5, 7)
    report = run_simulation(SimConfig(scenario=scenario, config=config, rounds=25))
    analytic = latency(scenario, config)
    assert report.analytic_latency_s == analytic
    for value in report.per_round_latency_s:
        assert value == pytest.approx(analytic, rel=1e-9)


def test_zero_jitter_matches_closed_form_on_random_scenarios():
    rng = random.Random(31)
    for _ in range(60):
        scenario = random_scenario(rng)
        config = random_feasible_config(rng, scenario)
        report = run_simulation(SimConfig(scenario=scenario, config=config, rounds=4))
        for value in report.per_round_latency_s:
            assert value == pytest.approx(report.analytic_latency_s, rel=1e-9)


def test_single_verifier_round_structure():
    scenario = make_scenario(capacities=(10.0,), broadcast_coeff=0.0)
    report, events = collect_events(SimConfig(scenario=scenario, config=BlockchainConfig(1, 1), rounds=1))
    # theta*B/r_d + K/x + O/r_u = 1 + 2 + 1.
    assert report.per_round_latency_s[0] == pytest.approx(4.0, abs=1e-12)
    kinds = [e.kind for e in events]
    assert kinds == [
        BLOCK_DISPATCHED,
        VERIFICATION_DONE,
        BROADCAST_DONE,
        FEEDBACK_RECEIVED,
        BLOCK_COMMITTED,
    ]
    assert len(report.per_round_latency_s) == 1


def test_same_seed_gives_byte_identical_logs():
    scenario = load_scenario(TABLE2_PATH)
    sim = SimConfig(
        scenario=scenario,
        config=BlockchainConfig(4, 9),
        rounds=20,
        jitter=0.2,
        rng_seed=123456789,
    )
    assert event_logs(sim) == event_logs(sim)
    assert run_simulation(sim) == run_simulation(sim)


def test_log_sees_each_round_once_and_changes_nothing():
    scenario = load_scenario(TABLE2_PATH)
    sim = SimConfig(scenario=scenario, config=BlockchainConfig(4, 9), rounds=6, jitter=0.2, rotate_bm=True)
    rounds = []
    report = run_simulation(sim, lambda round_index, entries: rounds.append((round_index, len(entries))))
    assert rounds == [(k, 4 + 5) for k in range(6)]  # m verifications plus five manager events
    assert report == run_simulation(sim) == collect_events(sim)[0]


def test_run_memory_does_not_grow_with_events():
    # Without a log only each round's latency and deviation outlive a round:
    # two floats, each with a list and a tuple slot, about 80 bytes per round.
    scenario = load_scenario(TABLE2_PATH)

    def peak_bytes(rounds: int) -> int:
        sim = SimConfig(
            scenario=scenario, config=BlockchainConfig(9, 12), rounds=rounds, jitter=0.1, rotate_bm=True
        )
        run_simulation(sim)  # warm up outside the measurement
        tracemalloc.start()
        try:
            run_simulation(sim)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak_bytes(2000) - peak_bytes(200)) / 1800 < 128


def test_event_writer_memory_does_not_grow_with_rounds():
    # The writer keeps one pair of line ends per (kind, actor), formed in the
    # first m rounds; each round's lines are joined, written and dropped.
    scenario = load_scenario(TABLE2_PATH)

    def peak_bytes(rounds: int) -> int:
        sim = SimConfig(
            scenario=scenario, config=BlockchainConfig(9, 12), rounds=rounds, jitter=0.1, rotate_bm=True
        )
        run_simulation(sim, event_writer(DiscardingSink(), DiscardingSink()))  # warm up outside the measurement
        tracemalloc.start()
        try:
            run_simulation(sim, event_writer(DiscardingSink(), DiscardingSink()))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak_bytes(2000) - peak_bytes(200)) / 1800 < 128


def test_different_seeds_differ_under_jitter():
    scenario = load_scenario(TABLE2_PATH)
    base = dict(scenario=scenario, config=BlockchainConfig(4, 9), rounds=5, jitter=0.2)
    a = run_simulation(SimConfig(rng_seed=1, **base))
    b = run_simulation(SimConfig(rng_seed=2, **base))
    assert a.per_round_latency_s != b.per_round_latency_s


def test_event_log_causality_per_round():
    scenario = load_scenario(TABLE2_PATH)
    _, events = collect_events(
        SimConfig(
            scenario=scenario,
            config=BlockchainConfig(6, 3),
            rounds=8,
            jitter=0.3,
            rng_seed=9,
        )
    )
    times = [e.time_s for e in events]
    assert times == sorted(times)
    order = {BLOCK_DISPATCHED: 0, VERIFICATION_DONE: 1, BROADCAST_DONE: 2, FEEDBACK_RECEIVED: 3, BLOCK_COMMITTED: 4}
    for round_index in range(8):
        stages = [e for e in events if e.round == round_index]
        ranks = [order[e.kind] for e in stages if e.kind in order]
        assert ranks == sorted(ranks)
        dispatch = next(e for e in stages if e.kind == BLOCK_DISPATCHED)
        verifications = [e for e in stages if e.kind == VERIFICATION_DONE]
        broadcast = next(e for e in stages if e.kind == BROADCAST_DONE)
        feedback = next(e for e in stages if e.kind == FEEDBACK_RECEIVED)
        assert len(verifications) == 6
        assert all(dispatch.time_s < v.time_s for v in verifications)
        assert max(v.time_s for v in verifications) <= broadcast.time_s
        assert broadcast.time_s < feedback.time_s


def test_jitter_latency_stays_within_spread_bounds():
    scenario = load_scenario(TABLE2_PATH)
    config = BlockchainConfig(7, 11)
    analytic = latency(scenario, config)
    spread = 0.1
    report = run_simulation(
        SimConfig(scenario=scenario, config=config, rounds=300, jitter=spread, rng_seed=5)
    )
    for value in report.per_round_latency_s:
        assert value >= (1 - spread) * analytic - 1e-9
        assert value <= (1 + spread) * analytic + 1e-9


def test_jitter_mean_close_to_analytic_with_upward_bias():
    scenario = load_scenario(TABLE2_PATH)
    config = BlockchainConfig(5, 10)
    report = run_simulation(
        SimConfig(scenario=scenario, config=config, rounds=1000, jitter=0.1, rng_seed=42)
    )
    analytic = report.analytic_latency_s
    assert abs(report.mean_latency_s - analytic) / analytic <= 0.03
    # The max over jittered verification times biases the mean upward.
    assert report.mean_latency_s >= analytic - 1e-9


def test_rounds_are_sequential_and_all_commit():
    scenario = make_scenario(capacities=(10.0, 5.0))
    report, events = collect_events(SimConfig(scenario=scenario, config=BlockchainConfig(2, 2), rounds=5))
    assert len(report.per_round_latency_s) == 5
    commits = [e for e in events if e.kind == BLOCK_COMMITTED]
    assert [e.round for e in commits] == [0, 1, 2, 3, 4]
    dispatches = [e for e in events if e.kind == BLOCK_DISPATCHED]
    for commit, nxt in zip(commits, dispatches[1:]):
        assert nxt.time_s > commit.time_s


def test_bm_rotation_round_robin():
    scenario = load_scenario(TABLE2_PATH)
    config = BlockchainConfig(3, 2)
    _, events = collect_events(
        SimConfig(scenario=scenario, config=config, rounds=7, rotate_bm=True)
    )
    rotations = [e for e in events if e.kind == BM_ROTATED]
    selected_ids = [p.id for p in scenario.ranked_verifiers[:3]]
    assert [e.actor_id for e in rotations] == [selected_ids[k % 3] for k in range(7)]
    feedbacks = [e for e in events if e.kind == FEEDBACK_RECEIVED]
    assert [e.actor_id for e in feedbacks] == [selected_ids[k % 3] for k in range(7)]


def test_static_bm_actor_without_rotation():
    scenario = make_scenario(capacities=(10.0, 5.0))
    _, events = collect_events(SimConfig(scenario=scenario, config=BlockchainConfig(2, 1), rounds=2))
    assert all(e.kind != BM_ROTATED for e in events)
    feedbacks = [e for e in events if e.kind == FEEDBACK_RECEIVED]
    assert all(e.actor_id == STATIC_BM_ID for e in feedbacks)


def test_infeasible_config_rejected():
    scenario = make_scenario(capacities=(10.0, 5.0))
    with pytest.raises(ConstraintError):
        run_simulation(SimConfig(scenario=scenario, config=BlockchainConfig(3, 1)))


def clock_overflow_scenario():
    """Each round of (1, 1) takes a finite 1e307 s; the 18th commit passes the largest float."""
    return make_scenario(capacities=(10.0,), transaction_size_bits=1e307, downlink_rate_bps=1.0)


def test_clock_overflow_across_rounds_is_a_validation_error():
    scenario = clock_overflow_scenario()
    config = BlockchainConfig(1, 1)
    assert math.isfinite(run_simulation(SimConfig(scenario=scenario, config=config, rounds=17)).mean_latency_s)
    for jitter, round_index in ((0.0, "17"), (0.1, r"\d+")):
        with pytest.raises(ValidationError, match=rf"rounds=30: .* round {round_index}\b"):
            run_simulation(SimConfig(scenario=scenario, config=config, rounds=30, jitter=jitter))


@pytest.mark.parametrize("jitter", [0.0, 0.1], ids=["no_jitter", "jitter"])
def test_zero_closed_form_latency_is_a_validation_error(jitter):
    scenario = zero_latency_scenario()
    sim = SimConfig(scenario=scenario, config=BlockchainConfig(1, 1), rounds=2, jitter=jitter)
    assert latency(scenario, sim.config) == 0.0
    with pytest.raises(ValidationError, match=r"\(m=1, theta=1\).*closed-form latency must be positive"):
        run_simulation(sim)
    with pytest.raises(ValidationError, match=r"\(m=1, theta=1\).*closed-form latency must be positive"):
        sweep_sim(scenario, rounds=2, jitter=jitter)


def test_run_without_jitter_builds_no_rng(monkeypatch):
    def no_rng(seed):
        raise AssertionError(f"random.Random({seed}) built for a run that draws nothing")

    monkeypatch.setattr(dpos_sim.random, "Random", no_rng)
    scenario = load_scenario(TABLE2_PATH)
    config = BlockchainConfig(9, 12)
    sim = SimConfig(scenario=scenario, config=config, rounds=3, rng_seed=5, rotate_bm=True)
    assert len(run_simulation(sim).per_round_latency_s) == 3
    assert len(sweep_sim(scenario, rounds=1, seed=5).cells) == 171
    with pytest.raises(AssertionError, match=r"random.Random\(5\)"):
        run_simulation(SimConfig(scenario=scenario, config=config, jitter=0.1, rng_seed=5))


def test_sim_config_validation():
    scenario = make_scenario(capacities=(10.0, 5.0))
    config = BlockchainConfig(1, 1)
    with pytest.raises(ValidationError):
        SimConfig(scenario=scenario, config=config, rounds=0)
    with pytest.raises(ValidationError):
        SimConfig(scenario=scenario, config=config, rng_seed=2**64)
    for jitter in (1.0, -0.1, math.nan):
        with pytest.raises(ValidationError, match="jitter"):
            SimConfig(scenario=scenario, config=config, jitter=jitter)


WRONG_TYPES = [
    ("rounds", 2.0),
    ("rounds", "3"),
    ("rounds", True),
    ("rng_seed", 1.5),
    ("rng_seed", True),
    ("rng_seed", "1"),
    ("jitter", "0.1"),
    ("jitter", True),
    ("jitter", None),
    ("rotate_bm", "no"),
    ("rotate_bm", 1),
]


@pytest.mark.parametrize("field, value", WRONG_TYPES, ids=[f"{field}={value!r}" for field, value in WRONG_TYPES])
def test_sim_config_rejects_wrong_types(field, value):
    scenario = make_scenario(capacities=(10.0, 5.0))
    message = rf"^{field} must be an? (int|int or a float|bool), got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        SimConfig(scenario=scenario, config=BlockchainConfig(1, 1), **{field: value})


WRONG_CONFIGS = [
    (BlockchainConfig(4, 9.0), "txns_per_block", 9.0),
    (BlockchainConfig(4.0, 9), "num_verifiers", 4.0),
    (BlockchainConfig(True, 9), "num_verifiers", True),
]


@pytest.mark.parametrize("config, field, value", WRONG_CONFIGS, ids=[repr(c) for c, _, _ in WRONG_CONFIGS])
def test_sim_config_rejects_non_integer_configurations(config, field, value):
    scenario = load_scenario(TABLE2_PATH)
    with pytest.raises(ValidationError, match=rf"^config\.{field} must be an int, got {re.escape(repr(value))}$"):
        SimConfig(scenario=scenario, config=config)


def test_sim_config_accepts_int_jitter():
    scenario = make_scenario(capacities=(10.0, 5.0))
    sim = SimConfig(scenario=scenario, config=BlockchainConfig(2, 1), rounds=3, jitter=0)
    assert run_simulation(sim) == run_simulation(SimConfig(scenario=scenario, config=BlockchainConfig(2, 1), rounds=3))


def test_sweep_sim_covers_grid_and_stays_within_tolerance():
    scenario = load_scenario(TABLE2_PATH)
    report = sweep_sim(scenario, rounds=2, seed=3)
    assert len(report.cells) == 171
    assert report.max_abs_rel_deviation <= 1e-9


def test_sweep_sim_reports_the_largest_cell_deviation_under_jitter():
    report = sweep_sim(load_scenario(TABLE2_PATH), rounds=5, seed=3, jitter=0.2)
    deviations = [cell.max_abs_rel_deviation for cell in report.cells]
    assert min(deviations) < max(deviations)  # about 0.068 and 0.187
    assert report.max_abs_rel_deviation == max(deviations)


def singleton_grid_scenario():
    """A one-verifier scenario whose feasible grid is the one configuration (1, 2)."""
    return make_scenario(
        capacities=(4.0,), min_verifiers=1, max_verifiers=1,
        min_txn_per_block=2, max_txn_per_block=2,
    )


def test_sweep_sim_singleton_grid():
    scenario = singleton_grid_scenario()
    report = sweep_sim(scenario, rounds=1, seed=0)
    assert len(report.cells) == 1
    assert report.cells[0].config == BlockchainConfig(1, 2)
    for rounds, jitter in ((1, 0.0), (3, 0.1)):
        assert sweep_sim(scenario, rounds=rounds, seed=4, jitter=jitter).cells == run_cells(scenario, rounds, 4, jitter)


def test_sim_sweep_cell_is_a_named_tuple_with_its_fields_repr_and_pickle():
    assert SimSweepCell._fields == ("config", "analytic_latency_s", "mean_latency_s", "max_abs_rel_deviation")
    cells = sweep_sim(singleton_grid_scenario(), rounds=1, seed=0).cells
    assert repr(cells) == (
        "(SimSweepCell(config=BlockchainConfig(num_verifiers=1, txns_per_block=2), analytic_latency_s=8.2, "
        "mean_latency_s=8.2, max_abs_rel_deviation=0.0),)"
    )
    assert pickle.loads(pickle.dumps(cells)) == cells
    assert cells[0] == (BlockchainConfig(1, 2), 8.2, 8.2, 0.0)  # equal to the plain tuple of its fields


def run_cells(scenario, rounds, seed, jitter) -> tuple[SimSweepCell, ...]:
    """The sweep's cells as :func:`run` reports them, one configuration at a time.

    The closed form and each round's deviation are computed here too, from
    :func:`latency` and the report's latencies, and must equal the report's
    bit for bit, so the sweep is not only checked against its own arithmetic.
    """
    cells = []
    for config in (BlockchainConfig(m, theta) for m, thetas in feasible_rows(scenario) for theta in thetas):
        sim = SimConfig(scenario=scenario, config=config, rounds=rounds, jitter=jitter, rng_seed=seed)
        report = run_simulation(sim)
        analytic = latency(scenario, config)
        deviations = tuple(abs(latency_s - analytic) / analytic for latency_s in report.per_round_latency_s)
        assert (report.analytic_latency_s, report.abs_rel_deviation) == (analytic, deviations), config
        cells.append(
            SimSweepCell(
                config=config,
                analytic_latency_s=analytic,
                mean_latency_s=report.mean_latency_s,
                max_abs_rel_deviation=max(deviations),
            )
        )
    return tuple(cells)


@pytest.mark.parametrize("jitter", [0.0, 0.1])
def test_sweep_sim_equals_run_at_every_cell(jitter):
    rng = random.Random(17)
    for index in range(60):
        scenario = random_scenario(rng)
        rounds = rng.randint(1, 3)
        cells = sweep_sim(scenario, rounds=rounds, seed=index, jitter=jitter).cells
        # Tuple equality compares every field of every cell, in grid order.
        assert cells == run_cells(scenario, rounds, index, jitter)


def test_exact_run_is_within_a_zero_tolerance(monkeypatch):
    # Table2 at (9, 12) simulates its closed form exactly: a deviation of 0.0 is at most a tolerance of 0.0.
    monkeypatch.setattr(dpos_sim, "SIM_REL_TOL", 0.0)
    sim = SimConfig(scenario=load_scenario(TABLE2_PATH), config=BlockchainConfig(9, 12))
    assert run_simulation(sim).abs_rel_deviation == (0.0,)


def test_run_raises_model_mismatch_naming_the_configuration_and_round(monkeypatch):
    latency_row = dpos_sim.metrics.latency_row

    def drifted_row(scenario, m, thetas):
        return (analytic * (1 + 1e-6) for analytic in latency_row(scenario, m, thetas))

    monkeypatch.setattr(dpos_sim.metrics, "latency_row", drifted_row)
    scenario = load_scenario(TABLE2_PATH)
    sim = SimConfig(scenario=scenario, config=BlockchainConfig(4, 9), rounds=3)
    message = r"^config \(m=4, theta=9\): round 0 simulated latency deviates from the closed form by 1\.000e-06 "
    with pytest.raises(ModelMismatchError, match=message + r"\(tolerance 1e-09\)$"):
        run_simulation(sim)
    # With jitter the deviations are only reported.
    report = run_simulation(dataclasses.replace(sim, jitter=0.1))
    assert min(report.abs_rel_deviation) > 0 and len(report.abs_rel_deviation) == 3


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(rounds=0), "rounds"),
        (dict(rounds=2.5), "rounds"),
        (dict(seed=-1), "rng_seed"),
        (dict(jitter=math.nan), "jitter"),
    ],
    ids=["rounds=0", "rounds=2.5", "seed=-1", "jitter=nan"],
)
def test_sweep_sim_validates_before_simulating(monkeypatch, kwargs, field):
    def no_latency_row(scenario, m, thetas):
        raise AssertionError(f"row m={m} simulated before the run parameters were validated")

    monkeypatch.setattr(dpos_sim.metrics, "latency_row", no_latency_row)
    scenario = load_scenario(TABLE2_PATH)
    with pytest.raises(ValidationError, match=rf"^{field} "):
        sweep_sim(scenario, **kwargs)
    with pytest.raises(GridCapError, match="above the cap of 170"):  # the cap is refused first
        sweep_sim(scenario, grid_cap=170, **kwargs)


def test_sweep_sim_builds_one_sim_config_and_no_report(monkeypatch):
    built, kernel_runs = [], []
    sim_config, simulate = dpos_sim.SimConfig, dpos_sim._simulate

    def counting_config(*args, **kwargs):
        built.append(sim_config(*args, **kwargs))
        return built[-1]

    def counting_kernel(*args):
        kernel_runs.append(args)
        return simulate(*args)

    def no_report(**fields):
        raise AssertionError("sweep_sim built a SimReport")

    scenario = load_scenario(TABLE2_PATH)
    expected = sweep_sim(scenario, rounds=2, seed=1, jitter=0.1)
    monkeypatch.setattr(dpos_sim, "SimConfig", counting_config)
    monkeypatch.setattr(dpos_sim, "SimReport", no_report)
    monkeypatch.setattr(dpos_sim, "_simulate", counting_kernel)
    assert sweep_sim(scenario, rounds=2, seed=1, jitter=0.1) == expected
    assert len(built) == 1
    assert len(kernel_runs) == scenario.grid_size == 171


def test_sweep_sim_reads_one_latency_row_per_row_and_no_point_latency(monkeypatch):
    rows, service_rows, verify_args = [], [], []
    latency_row, service_times, simulate = dpos_sim.metrics.latency_row, dpos_sim._service_times, dpos_sim._simulate

    def counting_row(scenario, m, thetas):
        rows.append((m, thetas))
        return latency_row(scenario, m, thetas)

    def counting_service_row(scenario, m, thetas):
        service_rows.append((m, thetas))
        return service_times(scenario, m, thetas)

    def recording_kernel(service, verify_s, *rest):
        verify_args.append(verify_s)
        return simulate(service, verify_s, *rest)

    def no_latency(scenario, config):
        raise AssertionError(f"sweep_sim called metrics.latency at {config}")

    rng = random.Random(23)
    for scenario in [load_scenario(TABLE2_PATH), *(random_scenario(rng) for _ in range(20))]:
        expected = sweep_sim(scenario, rounds=2, seed=3, jitter=0.1)
        for seen in (rows, service_rows, verify_args):
            seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(dpos_sim.metrics, "latency", no_latency)
            patch.setattr(dpos_sim.metrics, "latency_row", counting_row)
            patch.setattr(dpos_sim, "_service_times", counting_service_row)
            patch.setattr(dpos_sim, "_simulate", recording_kernel)
            assert sweep_sim(scenario, rounds=2, seed=3, jitter=0.1) == expected
        thetas = range(scenario.min_txn_per_block, scenario.max_txn_per_block + 1)
        assert rows == service_rows == [(m, thetas) for m in range(scenario.min_verifiers, scenario.max_verifiers + 1)]
        # Every cell of row m gets one tuple, the row's slice of ranked_verify_s, copied for none.
        assert len(verify_args) == scenario.grid_size
        for k, (m, _) in enumerate(rows):
            row_args = verify_args[k * len(thetas) : (k + 1) * len(thetas)]
            assert type(row_args[0]) is tuple and row_args[0] == scenario.ranked_verify_s[:m]
            assert all(verify_s is row_args[0] for verify_s in row_args)


def test_sweep_sim_with_jitter_keeps_means_within_three_percent():
    scenario = make_scenario(
        capacities=(10.0, 5.0, 2.5), min_verifiers=1, max_verifiers=3,
        min_txn_per_block=1, max_txn_per_block=3,
    )
    report = sweep_sim(scenario, rounds=1000, seed=11, jitter=0.1)
    for cell in report.cells:
        rel = (cell.mean_latency_s - cell.analytic_latency_s) / cell.analytic_latency_s
        assert abs(rel) <= 0.03


def test_jitter_bias_is_upward_where_verification_windows_overlap():
    # Equal capacities make the verification stage a max of i.i.d. jittered
    # times, whose expectation strictly exceeds the deterministic stage; that
    # bias dwarfs the sampling error at 1000 rounds, so the mean cannot fall
    # below the closed form.
    scenario = make_scenario(
        capacities=(5.0, 5.0), min_verifiers=2, max_verifiers=2,
        min_txn_per_block=1, max_txn_per_block=2,
    )
    report = sweep_sim(scenario, rounds=1000, seed=11, jitter=0.1)
    for cell in report.cells:
        assert cell.mean_latency_s >= cell.analytic_latency_s - 1e-9
        rel = (cell.mean_latency_s - cell.analytic_latency_s) / cell.analytic_latency_s
        assert abs(rel) <= 0.03


def test_sweep_sim_grid_cap():
    from bcconf import GridCapError

    scenario = load_scenario(TABLE2_PATH)
    with pytest.raises(GridCapError):
        sweep_sim(scenario, rounds=1, seed=0, grid_cap=100)


@pytest.mark.parametrize("analytic", [1e9, math.nan], ids=["1e9", "nan"])
def test_model_mismatch_raised_when_analytic_form_disagrees(monkeypatch, analytic):
    from bcconf import dpos_sim, metrics

    scenario = make_scenario(capacities=(10.0, 5.0))
    monkeypatch.setattr(metrics, "latency_row", lambda s, m, thetas: (analytic for _ in thetas))
    with pytest.raises(ModelMismatchError, match="m=1, theta=1"):
        dpos_sim.sweep_sim(scenario, rounds=1, seed=0)


def test_event_export_formats():
    scenario = make_scenario(capacities=(10.0, 5.0))
    sim = SimConfig(scenario=scenario, config=BlockchainConfig(2, 1), rounds=1)
    _, events = collect_events(sim)
    csv_text, ndjson_text = event_logs(sim)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "time_s,round,kind,actor_id"
    assert len(lines) == len(events) + 1
    records = [json.loads(line) for line in ndjson_text.strip().split("\n")]
    assert len(records) == len(events)
    assert records[0]["kind"] == BLOCK_DISPATCHED
    assert {r["kind"] for r in records} >= {VERIFICATION_DONE, BLOCK_COMMITTED}


def test_event_kinds_need_no_quoting_or_escaping():
    for kind in EVENT_KINDS:
        assert re.fullmatch(r"[a-z_]+", kind), kind


# Thirteen verifiers, so a rotated run names every kind with every actor, ids of two digits included.
ROTATED_M13 = dict(capacities=tuple(float(c) for c in range(20, 7, -1)), max_txn_per_block=6)


# The runs whose artifacts are checked against csv.writer and json.dumps.
WRITER_CASES = pytest.mark.parametrize(
    "scenario_kwargs, config, rounds, jitter, rotate_bm, exponent",
    [
        (None, BlockchainConfig(4, 9), 30, 0.2, True, None),
        (None, BlockchainConfig(9, 12), 30, 0.0, False, None),
        (dict(transaction_size_bits=1e-3, verification_workload=1e-4, feedback_size_bits=1e-3,
              broadcast_coeff=1e-3), BlockchainConfig(2, 3), 30, 0.3, True, "e-"),
        (dict(transaction_size_bits=1e21, verification_workload=1e18, feedback_size_bits=1e21),
         BlockchainConfig(2, 4), 30, 0.1, False, "e+"),
        (ROTATED_M13, BlockchainConfig(13, 5), 30, 0.1, True, None),
        (None, BlockchainConfig(4, 9), 1, 0.2, False, None),
        (None, BlockchainConfig(9, 12), 1000, 0.0, False, None),  # runs of equal values in sim_report.csv
    ],
    ids=["table2-jitter-rotate", "table2-plain", "tiny-times", "huge-times", "rotated-m13", "one-round", "long-plain"],
)


def writer_case_sim(scenario_kwargs, config, rounds, jitter, rotate_bm) -> SimConfig:
    scenario = load_scenario(TABLE2_PATH) if scenario_kwargs is None else make_scenario(**scenario_kwargs)
    return SimConfig(scenario=scenario, config=config, rounds=rounds, jitter=jitter, rng_seed=17, rotate_bm=rotate_bm)


@WRITER_CASES
def test_event_writer_matches_csv_and_json_reference(scenario_kwargs, config, rounds, jitter, rotate_bm, exponent):
    sim = writer_case_sim(scenario_kwargs, config, rounds, jitter, rotate_bm)
    _, events = collect_events(sim)
    csv_text, ndjson_text = event_logs(sim)
    assert (csv_text, ndjson_text) == reference_event_logs(events)
    if exponent is not None:  # repr switches to exponent form at these magnitudes
        assert exponent in csv_text and exponent in ndjson_text
    lines = ndjson_text.splitlines()
    assert [SimEvent(**json.loads(line)) for line in lines] == events


@WRITER_CASES
def test_simulate_report_matches_csv_reference(tmp_path, scenario_kwargs, config, rounds, jitter, rotate_bm, exponent):
    sim = writer_case_sim(scenario_kwargs, config, rounds, jitter, rotate_bm)
    report = run_simulation(sim)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["round", "latency_s", "analytic_latency_s", "abs_rel_deviation"])
    analytic = report.analytic_latency_s
    writer.writerows(
        [k, latency_s, analytic, abs(latency_s - analytic) / analytic]
        for k, latency_s in enumerate(report.per_round_latency_s)
    )
    scenario_path = tmp_path / "case.scenario"
    scenario_path.write_text(dump_scenario(sim.scenario), encoding="utf-8")
    argv = ["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"), "--seed", "17",
            "--m", str(config.num_verifiers), "--theta", str(config.txns_per_block), "--rounds", str(rounds),
            "--jitter", f"uniform:{jitter!r}", *(["--rotate-bm"] if rotate_bm else [])]
    assert cli.main(argv) == 0
    out = tmp_path / "out"
    assert (out / "sim_report.csv").read_text(encoding="utf-8") == buffer.getvalue()
    if exponent is not None:
        assert exponent in buffer.getvalue()
    logs = tuple((out / name).read_text(encoding="utf-8") for name in ("events.csv", "events.ndjson"))
    assert logs == reference_event_logs(collect_events(sim)[1])


def test_event_writer_formats_each_time_object_once_and_tells_zeros_apart():
    shared = 0.1 + 0.2  # one float object, logged twice
    zero = 0.0
    negative_zero = -zero
    assert zero == negative_zero and zero is not negative_zero
    entries = [(shared, _FEEDBACK, 3), (shared, _COMMITTED, 3), (zero, _ROTATED, 4), (negative_zero, _DISPATCHED, 4)]
    csv_file, ndjson_file = io.StringIO(), io.StringIO()
    event_writer(csv_file, ndjson_file)(0, entries)
    events = [SimEvent(t, 0, EVENT_KINDS[rank], actor_id) for t, rank, actor_id in entries]
    assert (csv_file.getvalue(), ndjson_file.getvalue()) == reference_event_logs(events)
    assert csv_file.getvalue().splitlines()[-2:] == ["0.0,0,bm_rotated,4", "-0.0,0,block_dispatched,4"]


def test_event_writers_in_sequence_each_write_what_they_would_alone():
    rotated = SimConfig(
        scenario=make_scenario(**ROTATED_M13), config=BlockchainConfig(13, 5), rounds=20, jitter=0.1, rotate_bm=True
    )
    static = SimConfig(scenario=load_scenario(TABLE2_PATH), config=BlockchainConfig(4, 9), rounds=20, jitter=0.2)
    alone = [reference_event_logs(collect_events(sim)[1]) for sim in (rotated, static)]
    assert [event_logs(rotated), event_logs(static), event_logs(rotated)] == [*alone, alone[0]]


# The staged round kernel against the event-queue reference, ``helpers.reference_simulate``,
# called through ``reference_kernel``.
JITTERS = (0, 0.1, 0.5, 0.999)


def kernel_args(scenario, config, rounds, jitter, seed, rotate_bm):
    """The kernel's arguments for one run, as :func:`run_simulation` builds them."""
    m, theta = config.num_verifiers, config.txns_per_block
    service = next(dpos_sim._service_times(scenario, m, (theta,)))
    selected_ids = [profile.id for profile in scenario.ranked_verifiers[:m]]
    return service, scenario.ranked_verify_s[:m], selected_ids, rounds, jitter, seed, rotate_bm


def reference_kernel(service, verify_s, *rest):
    """``reference_simulate`` called as the kernel is: its service times are put back in draw order."""
    dispatch_s, broadcast_s, feedback_s = service
    return reference_simulate((dispatch_s, *verify_s, broadcast_s, feedback_s), *rest)


def kernel_outcome(kernel, args) -> tuple[str, str, str]:
    """What ``kernel`` gives for ``args``, bit for bit: with a ``log``, then without one.

    The latencies or the error raised, and the digest of every round's index
    and entries as the ``log`` got them; floats go through ``repr``, which
    round-trips them.
    """
    digest = hashlib.sha256()

    def log(round_index, entries):
        digest.update(repr((round_index, entries)).encode())

    def outcome(log):
        try:
            return repr(kernel(*args, log))
        except ValidationError as error:
            return f"ValidationError: {error}"

    return outcome(log), digest.hexdigest(), outcome(None)


def with_equal_capacities(scenario):
    """``scenario`` with every verifier at the first one's capacity: verifications tie, ordered by id."""
    capacity = scenario.verifiers[0].compute_capacity
    verifiers = tuple(dataclasses.replace(v, compute_capacity=capacity) for v in scenario.verifiers)
    return dataclasses.replace(scenario, verifiers=verifiers)


def test_staged_kernel_equals_the_event_queue_reference_on_random_runs():
    rng = random.Random(1801)
    ties = 0
    for _ in range(1200):
        scenario = random_scenario(rng)
        if rng.random() < 0.3:
            scenario = with_equal_capacities(scenario)
        config = random_feasible_config(rng, scenario)
        jitter = rng.choice(JITTERS)
        args = kernel_args(scenario, config, rng.randint(1, 30), jitter, rng.randrange(2**64), rng.random() < 0.5)
        outcome = kernel_outcome(dpos_sim._simulate, args)
        assert outcome == kernel_outcome(reference_kernel, args), args
        verify_s = scenario.ranked_verify_s[: config.num_verifiers]
        ties += not jitter and len(verify_s) > 1 and len(set(verify_s)) == 1
    assert ties >= 60  # unjittered runs in which every verification ends at once


@pytest.mark.parametrize("jitter", JITTERS)
def test_sweep_sim_equals_the_event_queue_reference_on_random_grids(monkeypatch, jitter):
    rng = random.Random(1802)
    grids = [(random_scenario(rng), rng.randint(1, 4), rng.randrange(2**64)) for _ in range(100)]
    grids = [(with_equal_capacities(s) if k % 3 == 0 else s, r, seed) for k, (s, r, seed) in enumerate(grids)]
    staged = [repr(sweep_sim(s, rounds=r, seed=seed, jitter=jitter)) for s, r, seed in grids]
    monkeypatch.setattr(dpos_sim, "_simulate", reference_kernel)
    assert staged == [repr(sweep_sim(s, rounds=r, seed=seed, jitter=jitter)) for s, r, seed in grids]


OVERFLOW_RUNS = [
    (clock_overflow_scenario, BlockchainConfig(1, 1), 30),
    # table2 as the CLI's clock-overflow test gives it: the clock overflows past round 8,000.
    (
        lambda: dataclasses.replace(load_scenario(TABLE2_PATH), transaction_size_bits=1e307),
        BlockchainConfig(9, 12),
        10000,
    ),
]


@pytest.mark.parametrize("make, config, rounds", OVERFLOW_RUNS, ids=["one-verifier", "table2"])
@pytest.mark.parametrize("jitter, rotate_bm", [(0.0, False), (0.1, True)], ids=["plain", "jitter-rotate"])
def test_clock_overflow_raises_in_the_same_round_as_the_reference(make, config, rounds, jitter, rotate_bm):
    args = kernel_args(make(), config, rounds, jitter, 11, rotate_bm)
    outcome = kernel_outcome(dpos_sim._simulate, args)
    assert outcome == kernel_outcome(reference_kernel, args)
    assert re.fullmatch(rf"ValidationError: rounds={rounds}: the simulated clock overflows in round \d+", outcome[0])


@pytest.mark.parametrize("jitter", [0.0, 0.1], ids=["no_jitter", "jitter"])
def test_zero_latency_raises_as_with_the_reference(monkeypatch, jitter):
    scenario = zero_latency_scenario()
    sim = SimConfig(scenario=scenario, config=BlockchainConfig(2, 3), rounds=3, jitter=jitter, rotate_bm=True)
    args = kernel_args(scenario, sim.config, sim.rounds, jitter, sim.rng_seed, True)
    assert kernel_outcome(dpos_sim._simulate, args) == kernel_outcome(reference_kernel, args)

    def errors():
        with pytest.raises(ValidationError) as by_run:
            run_simulation(sim)
        with pytest.raises(ValidationError) as by_sweep:
            sweep_sim(scenario, rounds=3, jitter=jitter)
        return str(by_run.value), str(by_sweep.value)

    staged = errors()
    monkeypatch.setattr(dpos_sim, "_simulate", reference_kernel)
    assert errors() == staged
    assert all("closed-form latency must be positive" in message for message in staged)
