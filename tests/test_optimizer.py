"""Greedy sweep vs the exhaustive oracle: traces, tie-breaks, and gap reporting."""
import csv
import io
import math
import random

import pytest

from bcconf import (
    BlockchainConfig,
    GridCapError,
    OptimizationTrace,
    QosWeights,
    ValidationError,
    compare,
    load_scenario,
    scan_unimodality,
    solve_exhaustive,
    solve_greedy,
    sweep_sim,
)
from bcconf import cli, metrics, optimizer
from bcconf.model import feasible_grid
from bcconf.optimizer import trace_to_csv
from helpers import (
    ADVERSARIAL_SCENARIO,
    ADVERSARIAL_WEIGHTS,
    TABLE2_PATH,
    bit_identity_inputs,
    make_scenario,
    random_scenario,
    random_weights,
)

EQUAL_WEIGHTS = QosWeights(1 / 3, 1 / 3, 1 / 3)


def reenumerate_min(scenario, weights):
    """Independent re-enumeration in the opposite order (theta outer, m inner)."""
    best = None
    for theta in range(scenario.min_txn_per_block, scenario.max_txn_per_block + 1):
        for m in range(scenario.min_verifiers, scenario.max_verifiers + 1):
            value = metrics.utility(scenario, weights, BlockchainConfig(m, theta)).utility
            if best is None or value < best:
                best = value
    return best


def test_degenerate_box_needs_one_evaluation():
    scenario = make_scenario(
        capacities=(4.0, 2.0), min_verifiers=2, max_verifiers=2,
        min_txn_per_block=3, max_txn_per_block=3,
    )
    for solve in (solve_greedy, solve_exhaustive):
        result = solve(scenario, EQUAL_WEIGHTS)
        assert result.trace.evaluations == 1
        assert result.best_config == BlockchainConfig(2, 3)


def test_greedy_equals_exhaustive_on_small_unimodal_instance():
    scenario = make_scenario(
        capacities=(8.0, 4.0, 2.0), prices=(1.0, 1.2, 1.5),
        min_verifiers=1, max_verifiers=3, min_txn_per_block=1, max_txn_per_block=3,
    )
    assert scan_unimodality(scenario, EQUAL_WEIGHTS).greedy_exact
    greedy = solve_greedy(scenario, EQUAL_WEIGHTS)
    exhaustive = solve_exhaustive(scenario, EQUAL_WEIGHTS)
    # Brute force over all nine configurations, written out independently.
    brute = min(
        metrics.utility(scenario, EQUAL_WEIGHTS, BlockchainConfig(m, t)).utility
        for m in (1, 2, 3)
        for t in (1, 2, 3)
    )
    assert exhaustive.best_utility == brute
    assert greedy.best_utility == pytest.approx(exhaustive.best_utility, rel=1e-12)


def test_exhaustive_covers_full_grid_row_major():
    scenario = load_scenario(TABLE2_PATH)
    result = solve_exhaustive(scenario, EQUAL_WEIGHTS)
    assert result.trace.evaluations == 171
    expected = tuple(
        BlockchainConfig(m, t) for m in range(2, 11) for t in range(2, 21)
    )
    assert result.trace.configs == expected == tuple(feasible_grid(scenario))


def test_greedy_beats_grid_size_on_table2():
    scenario = load_scenario(TABLE2_PATH)
    greedy = solve_greedy(scenario, EQUAL_WEIGHTS)
    assert greedy.trace.evaluations < 171
    exhaustive = solve_exhaustive(scenario, EQUAL_WEIGHTS)
    assert greedy.best_utility == pytest.approx(exhaustive.best_utility, abs=1e-12)


def test_optimization_trace_invariants():
    cfg = BlockchainConfig(1, 1)
    configs = (cfg, BlockchainConfig(1, 2), BlockchainConfig(1, 3), BlockchainConfig(2, 1))
    utilities = (0.5, 0.4, 0.45, 0.2)
    trace = OptimizationTrace(configs, utilities, cfg)
    assert trace.evaluations == 4
    # The running minimum, written out by hand.
    assert trace.best_so_far() == (0.5, 0.4, 0.4, 0.2)
    assert OptimizationTrace((cfg,), (0.7,), cfg).best_so_far() == (0.7,)
    with pytest.raises(ValidationError, match="4 configurations but 3 utilities"):
        OptimizationTrace(configs, utilities[:3], cfg)
    with pytest.raises(ValidationError, match="3 configurations but 4 utilities"):
        OptimizationTrace(configs[:3], utilities, cfg)
    with pytest.raises(ValidationError, match="result must appear among its configurations"):
        OptimizationTrace(configs, utilities, BlockchainConfig(9, 9))


def test_greedy_trace_starts_at_lower_corner():
    scenario = load_scenario(TABLE2_PATH)
    trace = solve_greedy(scenario, EQUAL_WEIGHTS).trace
    assert trace.configs[0] == BlockchainConfig(2, 2)


def test_recorded_best_matches_fresh_evaluation():
    rng = random.Random(5)
    for _ in range(100):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        for solve in (solve_greedy, solve_exhaustive):
            result = solve(scenario, weights)
            fresh = metrics.utility(scenario, weights, result.best_config).utility
            assert result.best_utility == pytest.approx(fresh, rel=1e-12)


def test_exhaustive_tie_break_prefers_smaller_config():
    # Security-only weights make every theta equivalent for a fixed m, and the
    # minimum is reached only at m = M: the tie must resolve to theta = t.
    scenario = make_scenario(
        capacities=(8.0, 4.0, 2.0), min_verifiers=1, max_verifiers=3,
        min_txn_per_block=2, max_txn_per_block=5,
    )
    result = solve_exhaustive(scenario, QosWeights(0.0, 1.0, 0.0))
    assert result.best_config == BlockchainConfig(3, 2)
    greedy = solve_greedy(scenario, QosWeights(0.0, 1.0, 0.0))
    assert greedy.best_utility == result.best_utility
    assert greedy.best_config == BlockchainConfig(3, 5)  # flat rows sweep to the bound


# Every entry point that enumerates the feasible grid; a string names a CLI command.
# feasible_grid must refuse when called, before anything iterates it, and no entry
# point may evaluate a configuration before it refuses. The CLI commands that
# enumerate no grid must reject --grid-cap as an unknown flag.
GRID_CAP_UNREAD_COMMANDS = ("optimize", "simulate")
GRID_CAP_ENTRY_POINTS = {
    "feasible_grid": feasible_grid,
    "solve_exhaustive": lambda s, cap: solve_exhaustive(s, EQUAL_WEIGHTS, grid_cap=cap),
    "scan_unimodality": lambda s, cap: scan_unimodality(s, EQUAL_WEIGHTS, grid_cap=cap),
    "compare": lambda s, cap: compare(s, EQUAL_WEIGHTS, grid_cap=cap),
    "sweep_sim": lambda s, cap: sweep_sim(s, rounds=1, seed=0, grid_cap=cap),
    "cli_sweep": "sweep",
    "cli_compare": "compare",
    "cli_optimize": "optimize",
    "cli_simulate": "simulate",
}


@pytest.mark.parametrize("entry_point", list(GRID_CAP_ENTRY_POINTS))
def test_grid_cap_refusal(entry_point, tmp_path, capsys, kernel_calls):
    scenario = load_scenario(TABLE2_PATH)
    assert scenario.grid_size == 171
    call = GRID_CAP_ENTRY_POINTS[entry_point]
    if isinstance(call, str):
        def run_cli(cap):
            return cli.main(
                [call, "--scenario", str(TABLE2_PATH), "--out", str(tmp_path), "--grid-cap", str(cap)]
            )

        if call in GRID_CAP_UNREAD_COMMANDS:
            assert run_cli(171) == 2
            assert "unrecognized arguments: --grid-cap 171" in capsys.readouterr().err
            assert not any(tmp_path.iterdir())
            assert kernel_calls == []
            return
        assert run_cli(170) == 2
        assert "above the cap of 170" in capsys.readouterr().err
        assert kernel_calls == []
        assert run_cli(171) == 0
    else:
        with pytest.raises(GridCapError, match="above the cap of 170"):
            call(scenario, 170)
        assert kernel_calls == []
        call(scenario, 171)


def test_greedy_never_evaluates_more_than_exhaustive():
    rng = random.Random(6)
    for _ in range(200):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        report = compare(scenario, weights)
        assert report.greedy.trace.evaluations <= report.exhaustive.trace.evaluations


def test_exhaustive_is_global_minimum_against_reenumeration():
    rng = random.Random(8)
    for _ in range(150):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        result = solve_exhaustive(scenario, weights)
        assert result.best_utility == reenumerate_min(scenario, weights)


def test_argmin_invariant_under_weight_rescaling():
    rng = random.Random(9)
    for _ in range(50):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        for scale in (0.25, 3.0, 117.0):
            raw = [w * scale for w in weights.as_tuple()]
            total = sum(raw)
            rescaled = QosWeights(*(x / total for x in raw))
            assert solve_greedy(scenario, weights).best_config == solve_greedy(
                scenario, rescaled
            ).best_config
            assert solve_exhaustive(scenario, weights).best_config == solve_exhaustive(
                scenario, rescaled
            ).best_config


def test_gap_never_negative_and_zero_when_unimodal():
    rng = random.Random(10)
    for _ in range(150):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        report = compare(scenario, weights)
        assert report.utility_gap >= 0.0
        if scan_unimodality(scenario, weights).greedy_exact:
            assert report.utility_gap == 0.0
            assert not report.greedy_suboptimal


def test_adversarial_fixture_reports_honest_gap():
    report = compare(ADVERSARIAL_SCENARIO, ADVERSARIAL_WEIGHTS)
    assert report.greedy_suboptimal
    assert report.utility_gap > 0.0
    assert not scan_unimodality(ADVERSARIAL_SCENARIO, ADVERSARIAL_WEIGHTS).greedy_exact
    # The oracle exhibits the strictly better optimum the greedy sweep missed.
    assert report.exhaustive.best_utility < report.greedy.best_utility
    assert report.greedy.best_config != report.exhaustive.best_config


def test_compare_on_degenerate_box():
    scenario = make_scenario(
        capacities=(4.0,), min_verifiers=1, max_verifiers=1,
        min_txn_per_block=2, max_txn_per_block=2,
    )
    report = compare(scenario, EQUAL_WEIGHTS)
    assert report.utility_gap == 0.0
    assert report.greedy.trace.configs == report.exhaustive.trace.configs
    assert report.greedy.trace.utilities == report.exhaustive.trace.utilities
    assert report.greedy.trace.best_so_far() == report.exhaustive.trace.best_so_far()


def test_best_so_far_series_is_nonincreasing():
    scenario = load_scenario(TABLE2_PATH)
    report = compare(scenario, EQUAL_WEIGHTS)
    for series in (report.greedy.trace.best_so_far(), report.exhaustive.trace.best_so_far()):
        assert all(a >= b for a, b in zip(series, series[1:]))
    assert report.exhaustive.trace.best_so_far()[-1] == report.exhaustive.best_utility


def test_trace_csv_round_trips():
    scenario = make_scenario(capacities=(8.0, 4.0), max_txn_per_block=3)
    result = solve_greedy(scenario, EQUAL_WEIGHTS)
    text = trace_to_csv(result.trace)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["iteration", "m", "theta", "utility", "best_so_far"]
    assert len(rows) == result.trace.evaluations + 1
    assert [int(row[0]) for row in rows[1:]] == list(range(1, result.trace.evaluations + 1))
    first = rows[1]
    assert float(first[3]) == result.trace.utilities[0]


def test_solvers_and_scan_record_the_scalar_utilities(monkeypatch):
    scanned = []
    is_unimodal = optimizer._is_unimodal

    def recording_is_unimodal(values):
        scanned.append(list(values))
        return is_unimodal(values)

    monkeypatch.setattr(optimizer, "_is_unimodal", recording_is_unimodal)
    for scenario, weight_sets in bit_identity_inputs():
        for weights in weight_sets:
            def scalar(config):
                return metrics.utility(scenario, weights, config).utility

            grid = list(feasible_grid(scenario))
            width = scenario.max_txn_per_block - scenario.min_txn_per_block + 1
            values = [scalar(config) for config in grid]
            rows = [values[i:i + width] for i in range(0, len(values), width)]
            exhaustive = solve_exhaustive(scenario, weights)
            assert exhaustive.trace.configs == tuple(grid)
            assert exhaustive.trace.utilities == tuple(values)
            greedy = solve_greedy(scenario, weights).trace
            for config, value in zip(greedy.configs, greedy.utilities):
                assert value == scalar(config)
            # The scan checks rows until one is not unimodal, then the row minima.
            scanned.clear()
            scan_unimodality(scenario, weights)
            *row_calls, minima = scanned
            assert row_calls == rows[:len(row_calls)]
            assert minima == [min(row) for row in rows]


# Every path that evaluates the utility, called on the lower corner or the whole grid.
EVALUATION_PATHS = {
    "utility": lambda s: metrics.utility(
        s, EQUAL_WEIGHTS, BlockchainConfig(s.min_verifiers, s.min_txn_per_block)
    ),
    "scan_unimodality": lambda s: scan_unimodality(s, EQUAL_WEIGHTS),
    "solve_exhaustive": lambda s: solve_exhaustive(s, EQUAL_WEIGHTS),
    "solve_greedy": lambda s: solve_greedy(s, EQUAL_WEIGHTS),
}


@pytest.mark.parametrize("path", list(EVALUATION_PATHS))
@pytest.mark.parametrize(
    "field,value,message",
    [
        ("payment_prefix", -1.0, "cost must be non-negative"),
        ("ranked_verify_s", math.inf, r"\(m=2, theta=2\): round latency is not finite: verify_s = "),
        ("ranked_verify_s", math.nan, r"\(m=2, theta=2\): round latency is not finite: verify_s = "),
    ],
    ids=["negative_payment", "infinite_verify", "nan_verify"],
)
def test_broken_scenario_fails_every_evaluation_path(path, field, value, message):
    # Break the entry that m = min_verifiers reads, which every path evaluates
    # first; the normalization corners read only index M, so max_cost stays positive.
    scenario = load_scenario(TABLE2_PATH)
    m = scenario.min_verifiers
    entries = list(getattr(scenario, field))
    entries[m if field == "payment_prefix" else m - 1] = value
    object.__setattr__(scenario, field, tuple(entries))
    assert scenario.normalization.max_cost > 0
    with pytest.raises(ValidationError, match=message):
        EVALUATION_PATHS[path](scenario)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the calls of ``metrics.evaluate``, the one per-configuration kernel."""
    calls = []  # the configuration of each call
    evaluate = metrics.evaluate

    def counting(scenario, weights, config):
        calls.append(config)
        return evaluate(scenario, weights, config)

    monkeypatch.setattr(metrics, "evaluate", counting)
    return calls


@pytest.mark.parametrize(
    "scenario", [load_scenario(TABLE2_PATH), ADVERSARIAL_SCENARIO], ids=["table2", "adversarial"]
)
def test_each_entry_point_evaluates_each_configuration_once(scenario, kernel_calls):
    weights = ADVERSARIAL_WEIGHTS
    grid = scenario.grid_size
    scan_unimodality(scenario, weights)
    assert len(kernel_calls) == len(set(kernel_calls)) == grid
    kernel_calls.clear()
    solve_exhaustive(scenario, weights)
    assert len(kernel_calls) == grid
    kernel_calls.clear()
    greedy = solve_greedy(scenario, weights).trace.evaluations
    assert len(kernel_calls) == greedy
    kernel_calls.clear()
    compare(scenario, weights)
    assert len(kernel_calls) == grid + greedy


def test_each_cli_command_evaluates_each_configuration_once(tmp_path, kernel_calls):
    grid = load_scenario(TABLE2_PATH).grid_size
    assert cli.main(["sweep", "--scenario", str(TABLE2_PATH), "--out", str(tmp_path)]) == 0
    assert len(kernel_calls) == grid
    kernel_calls.clear()
    assert cli.main(["optimize", "--scenario", str(TABLE2_PATH), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "result.csv", newline="", encoding="utf-8") as handle:
        evaluations = int(next(csv.DictReader(handle))["evaluations"])
    assert evaluations <= len(kernel_calls) <= evaluations + 1
    kernel_calls.clear()
    assert cli.main(["compare", "--scenario", str(TABLE2_PATH), "--out", str(tmp_path)]) == 0
    assert len(kernel_calls) == grid + evaluations
