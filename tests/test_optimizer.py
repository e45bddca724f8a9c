"""Greedy sweep vs the exhaustive oracle: traces, tie-breaks, and gap reporting."""
import csv
import dataclasses
import math
import random
import tracemalloc

import pytest

from bcconf import (
    BlockchainConfig,
    GridCapError,
    QosWeights,
    SolverResult,
    ValidationError,
    VerifierProfile,
    dump_scenario,
    load_scenario,
    scan_unimodality,
    solve_exhaustive,
    solve_greedy,
    sweep_sim,
)
from bcconf import cli, metrics, optimizer
from bcconf.model import DEFAULT_GRID_CAP, feasible_rows
from bcconf.optimizer import unimodality
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
            value = metrics.evaluate(scenario, weights, BlockchainConfig(m, theta))[-1]
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
        assert result.evaluations == 1
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
        metrics.evaluate(scenario, EQUAL_WEIGHTS, BlockchainConfig(m, t))[-1]
        for m in (1, 2, 3)
        for t in (1, 2, 3)
    )
    assert exhaustive.best_utility == brute
    assert greedy.best_utility == pytest.approx(exhaustive.best_utility, rel=1e-12)


def test_exhaustive_covers_full_grid_row_major():
    scenario = load_scenario(TABLE2_PATH)
    result = solve_exhaustive(scenario, EQUAL_WEIGHTS)
    assert result.evaluations == 171
    expected = tuple(
        BlockchainConfig(m, t) for m in range(2, 11) for t in range(2, 21)
    )
    rows = feasible_rows(scenario)
    assert result.rows == rows == tuple((m, range(2, 21)) for m in range(2, 11))
    assert result.configs == expected == tuple(BlockchainConfig(m, t) for m, thetas in rows for t in thetas)


def test_exhaustive_memory_is_bounded_per_point():
    # The walk keeps each point's utility (a float and its tuple slot, about
    # 32 bytes) and one (m, thetas) pair per row, and no configuration per point.
    rng = random.Random(100)
    scenario = make_scenario(
        capacities=tuple(rng.uniform(1.0, 200.0) for _ in range(100)),
        prices=tuple(rng.uniform(0.01, 1.0) for _ in range(100)),
        min_verifiers=2, min_txn_per_block=2, max_txn_per_block=200,
    )
    assert scenario.grid_size == 99 * 199
    solve_exhaustive(scenario, EQUAL_WEIGHTS)  # warm up outside the measurement
    tracemalloc.start()
    try:
        solve_exhaustive(scenario, EQUAL_WEIGHTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / scenario.grid_size <= 64


def test_greedy_beats_grid_size_on_table2():
    scenario = load_scenario(TABLE2_PATH)
    greedy = solve_greedy(scenario, EQUAL_WEIGHTS)
    assert greedy.evaluations < 171
    exhaustive = solve_exhaustive(scenario, EQUAL_WEIGHTS)
    assert greedy.best_utility == pytest.approx(exhaustive.best_utility, abs=1e-12)


def test_optimization_trace_invariants():
    cfg = BlockchainConfig(1, 1)
    rows = ((1, range(1, 4)), (2, range(1, 2)))
    utilities = (0.5, 0.4, 0.45, 0.2)
    result = SolverResult(cfg, 0.5, rows, utilities)
    assert result.evaluations == 4
    assert result.configs == (cfg, BlockchainConfig(1, 2), BlockchainConfig(1, 3), BlockchainConfig(2, 1))
    # The running minimum, written out by hand.
    assert result.best_so_far() == (0.5, 0.4, 0.4, 0.2)
    assert SolverResult(cfg, 0.7, ((1, range(1, 2)),), (0.7,)).best_so_far() == (0.7,)
    with pytest.raises(ValidationError, match="4 configurations but 3 utilities"):
        SolverResult(cfg, 0.5, rows, utilities[:3])
    with pytest.raises(ValidationError, match="3 configurations but 4 utilities"):
        SolverResult(cfg, 0.5, rows[:1], utilities)
    for absent in (BlockchainConfig(9, 9), BlockchainConfig(2, 2), BlockchainConfig(1, 4)):
        with pytest.raises(ValidationError, match="result must appear among its configurations"):
            SolverResult(absent, 0.5, rows, utilities)


def test_greedy_trace_starts_at_lower_corner():
    scenario = load_scenario(TABLE2_PATH)
    result = solve_greedy(scenario, EQUAL_WEIGHTS)
    assert result.configs[0] == BlockchainConfig(2, 2)
    # Each row runs from the lower bound to the last theta evaluated at its m.
    assert [m for m, _ in result.rows] == list(range(2, result.best_config.num_verifiers + 2))
    assert all(thetas.start == 2 and thetas.step == 1 for _, thetas in result.rows)


def test_recorded_best_matches_fresh_evaluation():
    rng = random.Random(5)
    for _ in range(100):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        for solve in (solve_greedy, solve_exhaustive):
            result = solve(scenario, weights)
            fresh = metrics.evaluate(scenario, weights, result.best_config)[-1]
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


def test_greedy_moves_on_past_exactly_tied_row_minima():
    # Rows m=1 and m=2 share their slowest verifier, so their minima tie exactly; m=3 is worse.
    table2 = load_scenario(TABLE2_PATH)
    scenario = dataclasses.replace(
        table2,
        verifiers=tuple(VerifierProfile(i, c, 1.0) for i, c in enumerate((10.0, 10.0, 5.0))),
        broadcast_coeff=0.0, min_verifiers=1, max_verifiers=3, min_txn_per_block=1, max_txn_per_block=5,
    )
    weights = QosWeights(1.0, 0.0, 0.0)
    greedy, oracle = solve_greedy(scenario, weights), solve_exhaustive(scenario, weights)
    assert greedy.best_config == BlockchainConfig(2, 1)
    assert oracle.best_config == BlockchainConfig(1, 1)
    assert greedy.best_utility == oracle.best_utility == 0.5023766710656944
    assert scan_unimodality(scenario, weights).greedy_exact


@pytest.mark.parametrize(
    "values, expected",
    [([2, 2, 1], True), ([1, 2, 2], True), ([2, 2, 1, 1, 2, 2], True), ([1, 1, 2, 2, 1], False)],
)
def test_unimodality_allows_plateaus_on_both_flanks(values, expected):
    assert optimizer._is_unimodal(values) is expected


def test_unimodality_splits_the_values_at_the_row_ends():
    rows = ((1, range(1, 4)), (2, range(1, 3)), (3, range(1, 2)))  # rows of 3, 2 and 1 points
    assert unimodality(rows, [3.0, 2.0, 1.0, 5.0, 4.0, 6.0]) == optimizer.UnimodalityReport(True, True)
    # Row minima 1, 4, 0; split in rows of 3 the minima would be 1, 0.
    assert unimodality(rows, [3.0, 1.0, 2.0, 5.0, 4.0, 0.0]) == optimizer.UnimodalityReport(True, False)
    assert unimodality(rows, [1.0, 3.0, 2.0, 2.0, 4.0, 5.0]) == optimizer.UnimodalityReport(False, True)


@pytest.mark.parametrize("count", [0, 3, 5, 9])
def test_unimodality_rejects_values_that_do_not_fill_the_rows(count):
    rows = ((1, range(1, 5)), (2, range(1, 5)))  # 8 points
    with pytest.raises(ValidationError, match=f"^{count} values do not fill rows of 8 points$"):
        unimodality(rows, [float(k) for k in range(count)])


# Every entry point that enumerates the feasible grid; a string names a CLI command.
# No entry point may evaluate a configuration before it refuses. The CLI commands
# that enumerate no grid must reject --grid-cap as an unknown flag.
GRID_CAP_UNREAD_COMMANDS = ("optimize", "simulate")
GRID_CAP_ENTRY_POINTS = {
    "feasible_rows": feasible_rows,
    "solve_exhaustive": lambda s, cap: solve_exhaustive(s, EQUAL_WEIGHTS, grid_cap=cap),
    "scan_unimodality": lambda s, cap: scan_unimodality(s, EQUAL_WEIGHTS, grid_cap=cap),
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


def test_optimize_runs_on_a_grid_above_the_cap(tmp_path):
    # optimize reads no --grid-cap, and greedy is never refused by the cap: on this grid of two rows
    # of 600,000 thetas each row's optimum is interior, so greedy stops after a few points per row.
    scenario = make_scenario(max_txn_per_block=600_000)
    assert scenario.grid_size == 1_200_000 > DEFAULT_GRID_CAP
    path = tmp_path / "wide.scenario"
    path.write_text(dump_scenario(scenario), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["optimize", "--scenario", str(path), "--out", str(out), "--weights", "0.98,0.01,0.01"]
    assert cli.main(argv) == 0
    with open(out / "result.csv", encoding="utf-8", newline="") as handle:
        (result,) = csv.DictReader(handle)
    assert (result["m"], result["theta"]) == ("2", "78")
    assert int(result["evaluations"]) < 200


def test_greedy_never_evaluates_more_than_exhaustive():
    rng = random.Random(6)
    for _ in range(200):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        greedy, exhaustive = solve_greedy(scenario, weights), solve_exhaustive(scenario, weights)
        assert greedy.evaluations <= exhaustive.evaluations


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
        gap = solve_greedy(scenario, weights).best_utility - solve_exhaustive(scenario, weights).best_utility
        assert gap >= 0.0
        if scan_unimodality(scenario, weights).greedy_exact:
            assert gap == 0.0


def test_adversarial_fixture_reports_honest_gap():
    greedy = solve_greedy(ADVERSARIAL_SCENARIO, ADVERSARIAL_WEIGHTS)
    exhaustive = solve_exhaustive(ADVERSARIAL_SCENARIO, ADVERSARIAL_WEIGHTS)
    assert greedy.best_utility - exhaustive.best_utility > 0.0
    assert not scan_unimodality(ADVERSARIAL_SCENARIO, ADVERSARIAL_WEIGHTS).greedy_exact
    # The oracle exhibits the strictly better optimum the greedy sweep missed.
    assert exhaustive.best_utility < greedy.best_utility
    assert greedy.best_config != exhaustive.best_config


def test_compare_on_degenerate_box():
    scenario = make_scenario(
        capacities=(4.0,), min_verifiers=1, max_verifiers=1,
        min_txn_per_block=2, max_txn_per_block=2,
    )
    greedy, exhaustive = solve_greedy(scenario, EQUAL_WEIGHTS), solve_exhaustive(scenario, EQUAL_WEIGHTS)
    assert greedy.best_utility - exhaustive.best_utility == 0.0
    assert greedy.rows == exhaustive.rows == ((1, range(2, 3)),)
    assert greedy.configs == exhaustive.configs
    assert greedy.utilities == exhaustive.utilities
    assert greedy.best_so_far() == exhaustive.best_so_far()


def test_best_so_far_series_is_nonincreasing():
    scenario = load_scenario(TABLE2_PATH)
    greedy, exhaustive = solve_greedy(scenario, EQUAL_WEIGHTS), solve_exhaustive(scenario, EQUAL_WEIGHTS)
    for series in (greedy.best_so_far(), exhaustive.best_so_far()):
        assert all(a >= b for a, b in zip(series, series[1:]))
    assert exhaustive.best_so_far()[-1] == exhaustive.best_utility


def test_trace_csv_round_trips(tmp_path):
    scenario = make_scenario(capacities=(8.0, 4.0), max_txn_per_block=3)
    assert scenario.weights is None and scenario.qos_class is None
    result = solve_greedy(scenario, EQUAL_WEIGHTS)
    path = tmp_path / "small.scenario"
    path.write_text(dump_scenario(scenario), encoding="utf-8")
    assert cli.main(["optimize", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "trace.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iteration", "m", "theta", "utility", "best_so_far"]
    assert len(rows) == result.evaluations + 1
    assert [int(row[0]) for row in rows[1:]] == list(range(1, result.evaluations + 1))
    first = rows[1]
    assert float(first[3]) == result.utilities[0]


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
                return metrics.evaluate(scenario, weights, config)[-1]

            region = feasible_rows(scenario)
            grid = [BlockchainConfig(m, theta) for m, thetas in region for theta in thetas]
            rows = [[scalar(BlockchainConfig(m, theta)) for theta in thetas] for m, thetas in region]
            values = [value for row in rows for value in row]
            exhaustive = solve_exhaustive(scenario, weights)
            assert exhaustive.configs == tuple(grid)
            assert exhaustive.utilities == tuple(values)
            greedy = solve_greedy(scenario, weights)
            for config, value in zip(greedy.configs, greedy.utilities):
                assert value == scalar(config)
            # The scan checks rows until one is not unimodal, then the row minima.
            scanned.clear()
            scan_unimodality(scenario, weights)
            *row_calls, minima = scanned
            assert row_calls == rows[:len(row_calls)]
            assert minima == [min(row) for row in rows]


def test_unimodality_of_the_exhaustive_utilities_is_the_scan():
    rng = random.Random(12)
    cases = [(random_scenario(rng), random_weights(rng)) for _ in range(150)]
    reports = set()
    for scenario, weights in [*cases, (ADVERSARIAL_SCENARIO, ADVERSARIAL_WEIGHTS)]:
        report = scan_unimodality(scenario, weights)
        exhaustive = solve_exhaustive(scenario, weights)
        assert unimodality(exhaustive.rows, exhaustive.utilities) == report
        reports.add(report)
    assert {report.greedy_exact for report in reports} == {True, False}


@pytest.mark.parametrize(
    "scenario", [load_scenario(TABLE2_PATH), ADVERSARIAL_SCENARIO], ids=["table2", "adversarial"]
)
def test_each_row_does_its_fixed_work_once(scenario, monkeypatch):
    scenario.normalization  # derive the maxima first: their corner reads security(M) too
    calls = []  # the m of each security call
    security = metrics.security

    def counting(s, m):
        calls.append(m)
        return security(s, m)

    monkeypatch.setattr(metrics, "security", counting)
    rows = list(range(scenario.min_verifiers, scenario.max_verifiers + 1))
    scan_unimodality(scenario, ADVERSARIAL_WEIGHTS)
    assert calls == rows
    calls.clear()
    solve_exhaustive(scenario, ADVERSARIAL_WEIGHTS)
    assert calls == rows
    calls.clear()
    greedy = solve_greedy(scenario, ADVERSARIAL_WEIGHTS)
    assert calls == sorted({config.num_verifiers for config in greedy.configs})


# Every path that evaluates the utility, called on the lower corner or the whole grid.
EVALUATION_PATHS = {
    "utility": lambda s: metrics.evaluate(
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
    """Count the configurations the kernels evaluate.

    One entry per :func:`metrics.evaluate` call and per cell that
    :func:`metrics.evaluate_row` actually yields, so a row walk that stops
    early counts only the points it took.
    """
    calls = []  # (m, theta) of each evaluated configuration
    evaluate, evaluate_row = metrics.evaluate, metrics.evaluate_row

    def counting(scenario, weights, config):
        calls.append((config.num_verifiers, config.txns_per_block))
        return evaluate(scenario, weights, config)

    def counting_row(scenario, weights, m, thetas):
        for theta, cells in zip(thetas, evaluate_row(scenario, weights, m, thetas)):
            calls.append((m, theta))
            yield cells

    monkeypatch.setattr(metrics, "evaluate", counting)
    monkeypatch.setattr(metrics, "evaluate_row", counting_row)
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
    greedy = solve_greedy(scenario, weights).evaluations
    assert len(kernel_calls) == greedy
    kernel_calls.clear()
    solve_exhaustive(scenario, weights)
    solve_greedy(scenario, weights)
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
