"""Acceptance gate: one test per criterion, each printing a pass line.

Tolerances and counts are pinned here and nowhere else. Every expected value
is either forced arithmetic, a brute-force enumeration, or an independent
re-derivation; nothing is copied from the implementation under test.
"""
import csv
import hashlib
import random
import time

import pytest

from bcconf import (
    BlockchainConfig,
    DataClass,
    QosWeights,
    cli,
    load_scenario,
    resolve_qos,
    scan_unimodality,
    security,
    solve_exhaustive,
    solve_greedy,
    sweep_sim,
)
from bcconf import cost as cost_metric
from bcconf import latency as latency_metric
from bcconf.metrics import _cells, evaluate
from helpers import TABLE2_PATH, by_column, random_feasible_config, random_scenario, random_weights

EQUAL_WEIGHTS = QosWeights(1 / 3, 1 / 3, 1 / 3)


def test_criterion_1_simulator_matches_closed_form_across_grid():
    started = time.perf_counter()
    scenario = load_scenario(TABLE2_PATH)
    report = sweep_sim(scenario, rounds=3, seed=2024)
    elapsed = time.perf_counter() - started
    assert len(report.cells) == 171
    assert report.max_abs_rel_deviation <= 1e-9
    assert elapsed < 5.0
    print(
        f"[criterion 1] PASS: 171 configs, max relative deviation "
        f"{report.max_abs_rel_deviation:.3e} <= 1e-9, {elapsed:.2f}s < 5s"
    )


def test_criterion_2_oracle_optimality_and_greedy_agreement():
    started = time.perf_counter()
    rng = random.Random(1000003)
    unimodal = suboptimal = 0
    for _ in range(1000):
        scenario = random_scenario(rng, max_m=5, max_n=6)
        weights = random_weights(rng)
        exhaustive = solve_exhaustive(scenario, weights)
        # Independent re-enumeration in the opposite nesting order.
        best = None
        for theta in range(scenario.min_txn_per_block, scenario.max_txn_per_block + 1):
            for m in range(scenario.min_verifiers, scenario.max_verifiers + 1):
                value = evaluate(scenario, weights, BlockchainConfig(m, theta))[-1]
                assert exhaustive.best_utility <= value
                if best is None or value < best:
                    best = value
        assert exhaustive.best_utility == best
        greedy = solve_greedy(scenario, weights)
        gap = greedy.best_utility - exhaustive.best_utility
        assert gap >= 0.0
        if scan_unimodality(scenario, weights).greedy_exact:
            unimodal += 1
            assert gap == pytest.approx(0.0, abs=1e-12)
        elif gap > 0.0:
            suboptimal += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"[criterion 2] PASS: 1000 scenarios, oracle never beaten; "
        f"{unimodal} unimodal all matched by greedy; {suboptimal} honest positive gaps; "
        f"{elapsed:.1f}s < 60s"
    )


def test_criterion_3_monotonicity_and_normalization_bounds():
    rng = random.Random(31337)
    draws = 0
    while draws < 10_000:
        scenario = random_scenario(rng)
        config = random_feasible_config(rng, scenario)
        m, theta = config.num_verifiers, config.txns_per_block
        if m < scenario.max_verifiers:
            assert security(scenario, m) < security(scenario, m + 1)
            assert latency_metric(scenario, BlockchainConfig(m + 1, theta)) >= latency_metric(
                scenario, config
            )
            assert cost_metric(scenario, BlockchainConfig(m + 1, theta)) >= cost_metric(
                scenario, config
            )
        if theta < scenario.max_txn_per_block:
            assert cost_metric(scenario, BlockchainConfig(m, theta + 1)) < cost_metric(
                scenario, config
            )
            assert latency_metric(scenario, BlockchainConfig(m, theta + 1)) >= latency_metric(
                scenario, config
            )
        weights = random_weights(rng)
        cells = by_column(evaluate(scenario, weights, config))
        assert 0.0 < cells["latency_ratio"] <= 1.0
        assert 0.0 < cells["cost_ratio"] <= 1.0
        assert cells["security_ratio"] >= 1.0
        assert cells["utility"] >= weights.security_weight
        draws += 1
    print(f"[criterion 3] PASS: {draws} random (scenario, config) draws")


def test_criterion_4_greedy_efficiency_on_fixture(tmp_path):
    scenario = load_scenario(TABLE2_PATH)
    prescan = scan_unimodality(scenario, EQUAL_WEIGHTS)
    exhaustive = solve_exhaustive(scenario, EQUAL_WEIGHTS)
    greedy = solve_greedy(scenario, EQUAL_WEIGHTS)
    assert greedy.evaluations < 171
    assert prescan.greedy_exact
    assert greedy.best_utility == pytest.approx(exhaustive.best_utility, abs=1e-9)
    # Both traces emitted in convergence-plot form, greedy's padded with blanks.
    assert cli.main(["compare", "--scenario", str(TABLE2_PATH), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "compare.csv", newline="", encoding="utf-8") as handle:
        _, *rows = csv.reader(handle)
    assert [int(row[0]) for row in rows] == list(range(1, exhaustive.evaluations + 1))
    greedy_column = [row[1] for row in rows]
    greedy_series = greedy.best_so_far()
    assert [float(v) for v in greedy_column[: len(greedy_series)]] == list(greedy_series)
    assert greedy_column[len(greedy_series):] == [""] * (len(rows) - len(greedy_series))
    assert [float(row[2]) for row in rows] == list(exhaustive.best_so_far())
    print(
        f"[criterion 4] PASS: greedy {greedy.evaluations} evaluations < 171, "
        f"pre-scan unimodal, gap {greedy.best_utility - exhaustive.best_utility:.3e} <= 1e-9"
    )


def test_criterion_5_forced_arithmetic_from_reference_parameters():
    scenario = load_scenario(TABLE2_PATH)
    terms = by_column(_cells(scenario, scenario.max_verifiers, 20))
    assert terms["downlink_s"] == pytest.approx(0.016667, abs=1e-6)
    assert terms["feedback_s"] == pytest.approx(0.384615, abs=1e-6)
    grid = (scenario.max_verifiers - scenario.min_verifiers + 1) * (
        scenario.max_txn_per_block - scenario.min_txn_per_block + 1
    )
    assert grid == 171
    assert solve_exhaustive(scenario, EQUAL_WEIGHTS).evaluations == 171
    print(
        f"[criterion 5] PASS: downlink {terms['downlink_s']:.6f}s, "
        f"feedback {terms['feedback_s']:.6f}s, grid {grid} points"
    )


def test_criterion_6_reruns_are_byte_identical(tmp_path):
    scenario_arg = str(TABLE2_PATH)
    command_artifacts = {
        ("optimize",): ["result.csv", "trace.csv"],
        ("sweep",): ["surface.csv"],
        ("compare",): ["compare.csv", "summary.csv"],
        ("simulate", "--m", "4", "--theta", "7", "--rounds", "25", "--jitter", "uniform:0.15"): [
            "events.csv",
            "events.ndjson",
            "sim_report.csv",
        ],
    }
    checked = 0
    for command, names in command_artifacts.items():
        digests = []
        for suffix in ("a", "b"):
            out = tmp_path / f"{command[0]}_{suffix}"
            argv = [command[0], "--scenario", scenario_arg, "--out", str(out), "--seed", "99"]
            argv += list(command[1:])
            assert cli.main(argv) == 0
            digests.append(
                {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}
            )
        assert digests[0] == digests[1]
        checked += len(names)
    print(f"[criterion 6] PASS: {checked} artifacts byte-identical across re-runs")


def test_criterion_7_high_priority_low_security_pins_to_minimum():
    rng = random.Random(777)
    for _ in range(1000):
        scenario = random_scenario(rng)
        narrowed, weights = resolve_qos(scenario, DataClass("high", "low"))
        result = solve_greedy(narrowed, weights)
        assert result.best_config.num_verifiers == scenario.min_verifiers
    print("[criterion 7] PASS: 1000 scenarios, optimized verifier count pinned to the minimum")
