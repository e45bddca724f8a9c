"""Event-driven round simulation against the closed-form latency oracle."""
import json
import math
import random

import pytest

from bcconf import (
    BlockchainConfig,
    ConstraintError,
    ModelMismatchError,
    SimConfig,
    ValidationError,
    latency,
    load_scenario,
    run_simulation,
    select_verifiers,
    sweep_sim,
)
from bcconf.dpos_sim import (
    BLOCK_COMMITTED,
    BLOCK_DISPATCHED,
    BM_ROTATED,
    BROADCAST_DONE,
    FEEDBACK_RECEIVED,
    STATIC_BM_ID,
    VERIFICATION_DONE,
    events_to_csv,
    events_to_ndjson,
)
from helpers import TABLE2_PATH, make_scenario, random_feasible_config, random_scenario


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
    report = run_simulation(SimConfig(scenario=scenario, config=BlockchainConfig(1, 1), rounds=1))
    # theta*B/r_d + K/x + O/r_u = 1 + 2 + 1.
    assert report.per_round_latency_s[0] == pytest.approx(4.0, abs=1e-12)
    kinds = [e.kind for e in report.events]
    assert kinds == [
        BLOCK_DISPATCHED,
        VERIFICATION_DONE,
        BROADCAST_DONE,
        FEEDBACK_RECEIVED,
        BLOCK_COMMITTED,
    ]
    assert report.committed_blocks == 1


def test_same_seed_gives_byte_identical_logs():
    scenario = load_scenario(TABLE2_PATH)
    sim = SimConfig(
        scenario=scenario,
        config=BlockchainConfig(4, 9),
        rounds=20,
        jitter=0.2,
        rng_seed=123456789,
    )
    first = run_simulation(sim)
    second = run_simulation(sim)
    assert events_to_csv(first.events) == events_to_csv(second.events)
    assert first == second


def test_different_seeds_differ_under_jitter():
    scenario = load_scenario(TABLE2_PATH)
    base = dict(scenario=scenario, config=BlockchainConfig(4, 9), rounds=5, jitter=0.2)
    a = run_simulation(SimConfig(rng_seed=1, **base))
    b = run_simulation(SimConfig(rng_seed=2, **base))
    assert a.per_round_latency_s != b.per_round_latency_s


def test_event_log_causality_per_round():
    scenario = load_scenario(TABLE2_PATH)
    report = run_simulation(
        SimConfig(
            scenario=scenario,
            config=BlockchainConfig(6, 3),
            rounds=8,
            jitter=0.3,
            rng_seed=9,
        )
    )
    times = [e.time_s for e in report.events]
    assert times == sorted(times)
    order = {BLOCK_DISPATCHED: 0, VERIFICATION_DONE: 1, BROADCAST_DONE: 2, FEEDBACK_RECEIVED: 3, BLOCK_COMMITTED: 4}
    for round_index in range(8):
        stages = [e for e in report.events if e.round == round_index]
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
    report = run_simulation(SimConfig(scenario=scenario, config=BlockchainConfig(2, 2), rounds=5))
    assert report.committed_blocks == 5
    commits = [e for e in report.events if e.kind == BLOCK_COMMITTED]
    assert [e.round for e in commits] == [0, 1, 2, 3, 4]
    dispatches = [e for e in report.events if e.kind == BLOCK_DISPATCHED]
    for commit, nxt in zip(commits, dispatches[1:]):
        assert nxt.time_s > commit.time_s


def test_bm_rotation_round_robin():
    scenario = load_scenario(TABLE2_PATH)
    config = BlockchainConfig(3, 2)
    report = run_simulation(
        SimConfig(scenario=scenario, config=config, rounds=7, rotate_bm=True)
    )
    rotations = [e for e in report.events if e.kind == BM_ROTATED]
    selected_ids = [p.id for p in select_verifiers(scenario, 3)]
    assert [e.actor_id for e in rotations] == [selected_ids[k % 3] for k in range(7)]
    feedbacks = [e for e in report.events if e.kind == FEEDBACK_RECEIVED]
    assert [e.actor_id for e in feedbacks] == [selected_ids[k % 3] for k in range(7)]


def test_static_bm_actor_without_rotation():
    scenario = make_scenario(capacities=(10.0, 5.0))
    report = run_simulation(SimConfig(scenario=scenario, config=BlockchainConfig(2, 1), rounds=2))
    assert all(e.kind != BM_ROTATED for e in report.events)
    feedbacks = [e for e in report.events if e.kind == FEEDBACK_RECEIVED]
    assert all(e.actor_id == STATIC_BM_ID for e in feedbacks)


def test_infeasible_config_rejected():
    scenario = make_scenario(capacities=(10.0, 5.0))
    with pytest.raises(ConstraintError):
        run_simulation(SimConfig(scenario=scenario, config=BlockchainConfig(3, 1)))


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


def test_sweep_sim_covers_grid_and_stays_within_tolerance():
    scenario = load_scenario(TABLE2_PATH)
    report = sweep_sim(scenario, rounds=2, seed=3)
    assert len(report.cells) == 171
    assert report.max_abs_rel_deviation <= 1e-9


def test_sweep_sim_singleton_grid():
    scenario = make_scenario(
        capacities=(4.0,), min_verifiers=1, max_verifiers=1,
        min_txn_per_block=2, max_txn_per_block=2,
    )
    report = sweep_sim(scenario, rounds=1, seed=0)
    assert len(report.cells) == 1
    assert report.cells[0].config == BlockchainConfig(1, 2)


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
    monkeypatch.setattr(metrics, "latency", lambda s, c: analytic)
    with pytest.raises(ModelMismatchError, match="m=1, theta=1"):
        dpos_sim.sweep_sim(scenario, rounds=1, seed=0)


def test_event_export_formats():
    scenario = make_scenario(capacities=(10.0, 5.0))
    report = run_simulation(SimConfig(scenario=scenario, config=BlockchainConfig(2, 1), rounds=1))
    text = events_to_csv(report.events)
    lines = text.strip().split("\n")
    assert lines[0] == "time_s,round,kind,actor_id"
    assert len(lines) == len(report.events) + 1
    records = [json.loads(line) for line in events_to_ndjson(report.events).strip().split("\n")]
    assert len(records) == len(report.events)
    assert records[0]["kind"] == BLOCK_DISPATCHED
    assert {r["kind"] for r in records} >= {VERIFICATION_DONE, BLOCK_COMMITTED}
