"""Command surface: artifacts, exit codes, precedence, and determinism."""
import csv
import hashlib
import io
import itertools
import json
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import bcconf
from bcconf import cli, dpos_sim, dump_scenario, metrics, qos
from bcconf import BlockchainConfig, QosWeights, SolverResult, load_scenario, solve_exhaustive, solve_greedy
from helpers import ADVERSARIAL_SCENARIO, ADVERSARIAL_WEIGHTS, TABLE2_PATH, random_scenario, random_weights

SCENARIO = str(TABLE2_PATH)


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def hash_files(directory, names):
    digest = {}
    for name in names:
        digest[name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    return digest


def test_optimize_writes_result_trace_and_manifest(tmp_path):
    out = tmp_path / "run"
    assert run_cli("optimize", "--scenario", SCENARIO, "--out", str(out)) == 0
    rows = read_csv(out / "result.csv")
    assert len(rows) == 1
    assert rows[0]["solver"] == "greedy"
    assert int(rows[0]["m"]) == 9
    assert int(rows[0]["theta"]) == 12
    with open(out / "trace.csv", newline="", encoding="utf-8") as handle:
        header, *trace = csv.reader(handle)
    assert header == ["iteration", "m", "theta", "utility", "best_so_far"]
    result = bcconf.solve_greedy(bcconf.load_scenario(TABLE2_PATH), bcconf.QosWeights(1 / 3, 1 / 3, 1 / 3))
    assert len(trace) == int(rows[0]["evaluations"]) == result.evaluations
    assert [int(row[0]) for row in trace] == list(range(1, result.evaluations + 1))
    assert [float(row[3]) for row in trace] == list(result.utilities)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "optimize"
    assert manifest["tool_version"]
    assert manifest["wall_time_s"] >= 0


def test_table_writer_rejects_a_row_whose_width_is_not_the_header_width():
    handle = io.StringIO()
    cli._write_table(handle, ["a", "b"], [(1, 0.1), ("x", "")])
    assert handle.getvalue() == "a,b\n1,0.1\nx,\n"
    for row in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError):
            cli._write_table(io.StringIO(), ["a", "b"], [row])


class CountingSink(io.StringIO):
    """A text handle that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "rows, writes",
    [(0, 1), (1, 1), (cli._CHUNK_ROWS, 1), (cli._CHUNK_ROWS + 1, 2), (2 * cli._CHUNK_ROWS + 1, 3)],
)
def test_table_writer_writes_the_header_with_the_first_chunk_of_rows(rows, writes):
    handle = CountingSink()
    cli._write_table(handle, ["k", "v"], ((k, k / 7) for k in range(rows)))
    assert handle.writes == writes
    assert handle.getvalue() == "k,v\n" + "".join(f"{k},{k / 7!r}\n" for k in range(rows))


def test_missing_scenario_exits_3_without_partial_outputs(tmp_path):
    out = tmp_path / "run"
    code = run_cli("optimize", "--scenario", str(tmp_path / "nope.scenario"), "--out", str(out))
    assert code == 3
    assert not out.exists()


def test_invalid_weights_exit_2(tmp_path, capsys):
    for weights, reason in (
        ("0.9,0.9,0.9", "weights must sum to 1"),
        ("nan,0,1", "latency_weight"),
        ("0.5,0.5", "expected three comma-separated weights"),
        ("a,b,c", "weights must be numbers"),
    ):
        code = run_cli(
            "optimize", "--scenario", SCENARIO, "--out", str(tmp_path), "--weights", weights
        )
        assert code == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "_parse_weights_flag" not in err


def test_simulate_rejects_weights(tmp_path, capsys):
    """simulate takes no weights, so --weights is an unknown flag there, not one it parses and then ignores."""
    out = tmp_path / "run"
    assert run_cli(*SIMULATE, "--out", str(out), "--weights", "0.5,0.25,0.25") == 2
    assert "unrecognized arguments: --weights 0.5,0.25,0.25" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_invalid_scenario_content_exits_2(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("transaction_size_bits: 1000\n")
    assert run_cli("optimize", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2


def test_mixed_type_unknown_keys_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("1: a\nb: c\n")
    assert run_cli("optimize", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "unknown field '1'" in capsys.readouterr().err


def test_overflowing_network_scale_exponent_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text(
        TABLE2_PATH.read_text().replace("network_scale_exponent: 2.0", "network_scale_exponent: 400.0")
    )
    for command in ("optimize", "sweep", "compare"):
        out = tmp_path / command
        assert run_cli(command, "--scenario", str(bad), "--out", str(out)) == 2
        assert "network_scale_exponent" in capsys.readouterr().err
        assert not out.exists()


def test_overflowing_payment_sum_exits_2_naming_its_fields(tmp_path, capsys):
    # Each verifier's fields are finite; their product, the payment, is not.
    text = TABLE2_PATH.read_text()
    for k, capacity, price in ((0, "200.0", "0.030"), (1, "185.0", "0.034")):
        line = f"{{id: {k}, compute_capacity: {capacity}, unit_price: {price}}}"
        assert line in text
        text = text.replace(line, f"{{id: {k}, compute_capacity: 1.0e+200, unit_price: 1.0e+200}}")
    bad = tmp_path / "bad.scenario"
    bad.write_text(text)
    for command in ("optimize", "sweep", "compare"):
        assert run_cli(command, "--scenario", str(bad), "--out", str(tmp_path / command)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unit_price * compute_capacity summed over") and "overflows a float" in err
    assert [path.name for path in tmp_path.iterdir()] == ["bad.scenario"]


def test_overflowing_round_latency_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text(
        TABLE2_PATH.read_text().replace("transaction_size_bits: 1 kb", "transaction_size_bits: 1e308")
    )
    for argv in (("simulate", "--m", "9", "--theta", "12", "--rounds", "3"), ("optimize",)):
        out = tmp_path / argv[0]
        assert run_cli(*argv, "--scenario", str(bad), "--out", str(out)) == 2
        assert "transaction_size_bits" in capsys.readouterr().err
        assert not out.exists()


def test_clock_overflow_across_rounds_exits_2(tmp_path, capsys):
    # Each round's latency is finite; 10,000 of them are not.
    bad = tmp_path / "bad.scenario"
    bad.write_text(
        TABLE2_PATH.read_text().replace("transaction_size_bits: 1 kb", "transaction_size_bits: 1e307")
    )
    for k, extra in enumerate(((), ("--jitter", "uniform:0.1"))):
        out = tmp_path / str(k)
        code = run_cli(
            "simulate", "--scenario", str(bad), "--out", str(out),
            "--m", "9", "--theta", "12", "--rounds", "10000", *extra,
        )
        assert code == 2
        assert "rounds=10000" in capsys.readouterr().err
        assert not out.exists()


# Table2's fields, scaled until the closed-form latency underflows to 0.
ZERO_LATENCY_SCENARIO = """\
transaction_size_bits: 1.0e-300
verification_workload: 1.0e-300
feedback_size_bits: 1.0e-300
downlink_rate_bps: 1.0e+300
uplink_rate_bps: 1.0e+300
broadcast_coeff: 0.0
security_coeff: 1.0
network_scale_exponent: 2.0
min_verifiers: 1
max_verifiers: 2
min_txn_per_block: 1
max_txn_per_block: 3
verifiers:
  - {id: 0, compute_capacity: 1.0e+300, unit_price: 1.0e-300}
  - {id: 1, compute_capacity: 1.0e+300, unit_price: 1.0e-300}
"""


def test_zero_closed_form_latency_simulate_exits_2(tmp_path, capsys):
    bad = tmp_path / "zero.scenario"
    bad.write_text(ZERO_LATENCY_SCENARIO)
    for k, extra in enumerate(((), ("--jitter", "uniform:0.1"))):
        out = tmp_path / str(k)
        code = run_cli("simulate", "--scenario", str(bad), "--out", str(out), "--m", "1", "--theta", "1", *extra)
        assert code == 2
        assert "(m=1, theta=1)" in capsys.readouterr().err
        assert not out.exists()


def test_zero_closed_form_latency_optimize_sweep_compare_exit_2(tmp_path, capsys):
    bad = tmp_path / "zero.scenario"
    bad.write_text(ZERO_LATENCY_SCENARIO)
    for command in ("optimize", "sweep", "compare"):
        out = tmp_path / command
        assert run_cli(command, "--scenario", str(bad), "--out", str(out)) == 2
        err = capsys.readouterr().err
        # The corner where the latency peaks, and the fields that set it, not the derived maximum.
        assert "(m=2, theta=3) underflows to 0.0" in err
        assert "transaction_size_bits" in err and "downlink_rate_bps" in err
        assert "max_latency" not in err
        assert not out.exists()


def test_infeasible_simulate_config_leaves_no_out_dir(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("simulate", "--scenario", SCENARIO, "--out", str(out), "--m", "99", "--theta", "6") == 2
    assert "m=99" in capsys.readouterr().err
    assert not out.exists()


def test_weights_flag_is_used(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "optimize", "--scenario", SCENARIO, "--out", str(out), "--weights", "1,0,0"
    ) == 0
    rows = read_csv(out / "result.csv")
    # Pure latency weighting drives both coordinates to their minima.
    assert int(rows[0]["m"]) == 2
    assert int(rows[0]["theta"]) == 2


def test_qos_class_pins_verifier_count(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "optimize", "--scenario", SCENARIO, "--out", str(out), "--qos-class", "high,low"
    ) == 0
    rows = read_csv(out / "result.csv")
    assert int(rows[0]["m"]) == 2


# Table2 with a file-level qos_class, and table2 with file weights plus a mode_table.
FILE_CLASS = "qos_class: {priority: high, security_need: low}\n"
FILE_TABLES = (
    "weights: [0.5, 0.2, 0.3]\n"
    "mode_table:\n"
    "  balanced: {weights: [0.2, 0.2, 0.6]}\n"
    "  restricted: {verifier_bounds: [1, 4]}\n"
)
PRECEDENCE = {
    # name: (file sections, flags, expected (box, weights), the (box, weights) of the rule it beats)
    "file_class": (FILE_CLASS, (), ((2, 2), (0.6, 0.1, 0.3)), ((2, 10), (1 / 3, 1 / 3, 1 / 3))),
    "flag_class_beats_file_class": (
        FILE_CLASS, ("--qos-class", "low,high"), ((10, 10), (0.1, 0.6, 0.3)), ((2, 2), (0.6, 0.1, 0.3)),
    ),
    "no_class_file_weights": (FILE_TABLES, (), ((2, 10), (0.5, 0.2, 0.3)), ((2, 10), (1 / 3, 1 / 3, 1 / 3))),
    "mode_table_weights_beat_file_weights": (
        FILE_TABLES, ("--qos-class", "high,high"), ((2, 10), (0.2, 0.2, 0.6)), ((2, 10), (0.5, 0.2, 0.3)),
    ),
    "file_weights_beat_mode_defaults": (
        FILE_TABLES, ("--qos-class", "low,low"), ((2, 10), (0.5, 0.2, 0.3)), ((2, 10), (0.1, 0.2, 0.7)),
    ),
    "mode_table_bounds_beat_pin_clamped": (
        FILE_TABLES, ("--qos-class", "high,low"), ((2, 4), (0.5, 0.2, 0.3)), ((2, 2), (0.5, 0.2, 0.3)),
    ),
    "weights_flag_beats_all_bounds_stay": (
        FILE_TABLES,
        ("--qos-class", "high,low", "--weights", "0.1,0.1,0.8"),
        ((2, 4), (0.1, 0.1, 0.8)),
        ((2, 10), (0.1, 0.1, 0.8)),
    ),
    "weights_flag_beats_file_weights": (
        FILE_TABLES, ("--weights", "0.1,0.1,0.8"), ((2, 10), (0.1, 0.1, 0.8)), ((2, 10), (0.5, 0.2, 0.3)),
    ),
}


def greedy_on(box, weights):
    scenario = replace(bcconf.load_scenario(TABLE2_PATH), min_verifiers=box[0], max_verifiers=box[1])
    return bcconf.solve_greedy(scenario, bcconf.QosWeights(*weights))


@pytest.mark.parametrize("name", PRECEDENCE)
def test_optimize_weight_and_box_precedence(tmp_path, name):
    sections, flags, expected, beaten = PRECEDENCE[name]
    path = tmp_path / "qos.scenario"
    path.write_text(TABLE2_PATH.read_text() + sections)
    out = tmp_path / "run"
    assert run_cli("optimize", "--scenario", str(path), "--out", str(out), *flags) == 0
    (row,) = read_csv(out / "result.csv")
    result = greedy_on(*expected)
    config = result.best_config
    assert (int(row["m"]), int(row["theta"])) == (config.num_verifiers, config.txns_per_block)
    assert float(row["utility"]) == result.best_utility
    assert int(row["evaluations"]) == result.evaluations
    # The rule that loses would have chosen another configuration, so the case tells the two apart.
    assert greedy_on(*beaten).best_config != config


def test_reversed_mode_table_bounds_exit_2_naming_the_field(tmp_path, capsys):
    path = tmp_path / "qos.scenario"
    path.write_text(TABLE2_PATH.read_text() + "mode_table:\n  restricted: {verifier_bounds: [4, 2]}\n")
    out = tmp_path / "run"
    assert run_cli("optimize", "--scenario", str(path), "--out", str(out), "--qos-class", "high,low") == 2
    err = capsys.readouterr().err
    assert "mode_table.restricted.verifier_bounds" in err and "clamping" in err
    assert not out.exists()
    # With no data class the mode_table is not read.
    assert run_cli("optimize", "--scenario", str(path), "--out", str(out)) == 0


def test_invalid_qos_class_flag_exits_2_naming_the_field(tmp_path, capsys):
    for text, reason in (("urgent,low", "priority"), ("high,none", "security_need"), ("high", "priority,security_need")):
        assert run_cli("optimize", "--scenario", SCENARIO, "--out", str(tmp_path / "o"), "--qos-class", text) == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "_parse_qos_class_flag" not in err
    assert not (tmp_path / "o").exists()


def test_sweep_row_count_matches_grid(tmp_path):
    out = tmp_path / "run"
    assert run_cli("sweep", "--scenario", SCENARIO, "--out", str(out)) == 0
    rows = read_csv(out / "surface.csv")
    assert len(rows) == 171
    assert {"m", "theta", "utility", "latency_s", "security", "cost"} <= set(rows[0])


def test_sweep_grid_cap_exits_2(tmp_path):
    assert run_cli(
        "sweep", "--scenario", SCENARIO, "--out", str(tmp_path), "--grid-cap", "100"
    ) == 2


def _differential_sweep_scenarios():
    """50 random scenarios; some with a free fastest verifier, some whose cells print in exponent form.

    Then table2 with rows 1499 and 2999 points wide, more thetas than sweep keeps
    texts for: the dict of theta-only texts is emptied part-way through rows.
    """
    rng = random.Random(3002)
    for k in range(50):
        scenario = random_scenario(rng, max_m=6, max_n=9)
        if k % 5 == 1:
            free = scenario.ranked_verifiers[0]
            verifiers = tuple(replace(p, unit_price=0.0) if p is free else p for p in scenario.verifiers)
            scenario = replace(scenario, verifiers=verifiers)
        elif k % 5 == 2:  # security and the stages of theta reach 1e16 and beyond
            scenario = replace(scenario, security_coeff=1e18, transaction_size_bits=1e22)
        elif k % 5 == 3:  # the feedback and broadcast stages fall below 1e-4
            scenario = replace(scenario, uplink_rate_bps=1e12, broadcast_coeff=1e-13)
        yield scenario
    for max_txn in (1500, 3000):
        yield replace(load_scenario(TABLE2_PATH), max_txn_per_block=max_txn)


def test_sweep_surface_is_the_csv_module_over_evaluate(tmp_path):
    # surface.csv formats each row's m-only cells once and each theta's theta-only cells once;
    # the bytes must be those of formatting every cell of every point.
    header = ["m", "theta", *metrics.COLUMNS]
    seen = {"e-": False, "e+": False, "free": False, "wide rows": False}
    for k, scenario in enumerate(_differential_sweep_scenarios()):
        path = tmp_path / f"s{k}.scenario"
        path.write_text(dump_scenario(scenario), encoding="utf-8")
        out = tmp_path / f"out{k}"
        assert run_cli("sweep", "--scenario", str(path), "--out", str(out)) == 0
        effective, weights = qos.resolve(bcconf.load_scenario(path))
        thetas = range(effective.min_txn_per_block, effective.max_txn_per_block + 1)
        seen["wide rows"] |= effective.max_verifiers > effective.min_verifiers and len(thetas) > cli._CHUNK_ROWS
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        for m in range(effective.min_verifiers, effective.max_verifiers + 1):
            for theta in thetas:
                writer.writerow([m, theta, *metrics.evaluate(effective, weights, bcconf.BlockchainConfig(m, theta))])
        text = (out / "surface.csv").read_bytes().decode("utf-8")
        # Line by line, so that a failure names its line without diffing the whole table.
        for n, (line, expected_line) in enumerate(
            itertools.zip_longest(text.split("\n"), expected.getvalue().split("\n"))
        ):
            assert line == expected_line, (k, n)
        seen["e-"] |= "e-" in text
        seen["e+"] |= "e+" in text
        seen["free"] |= any(row["cost"] == "0.0" for row in csv.DictReader(io.StringIO(text)))
    assert seen == {"e-": True, "e+": True, "free": True, "wide rows": True}


def _table2_with_max_txn(tmp_path, max_txn):
    text = TABLE2_PATH.read_text()
    assert "max_txn_per_block: 20\n" in text
    path = tmp_path / f"table2_n{max_txn}.scenario"
    path.write_text(text.replace("max_txn_per_block: 20\n", f"max_txn_per_block: {max_txn}\n"))
    return path


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    # surface.csv goes out a chunk of rows at a time and the grid is walked
    # lazily, so no sweep holds its whole table.
    def peak_bytes(max_txn):
        argv = ("sweep", "--scenario", str(_table2_with_max_txn(tmp_path, max_txn)), "--out", str(tmp_path / "out"))
        assert run_cli(*argv) == 0  # warm up outside the measurement
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # table2 has nine verifier counts: 9 * 499 and 9 * 3999 points.
    assert (peak_bytes(4000) - peak_bytes(500)) / (9 * 3500) < 16


def test_sweep_memory_does_not_grow_with_the_row_width(tmp_path):
    # The texts sweep keeps per theta are emptied every _CHUNK_ROWS thetas, so a wider row
    # holds no more of them.
    def peak_bytes(max_txn):
        path = _table2_with_max_txn(tmp_path, max_txn)
        assert "min_verifiers: 2\n" in path.read_text()
        path.write_text(path.read_text().replace("min_verifiers: 2\n", "min_verifiers: 9\n"))
        argv = ("sweep", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert run_cli(*argv) == 0  # warm up outside the measurement
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Two verifier counts, 9 and 10: 2 * 499 and 2 * 19999 points.
    assert (peak_bytes(20000) - peak_bytes(500)) / (2 * 19500) < 16


def test_sweep_failing_after_a_written_chunk_leaves_nothing_behind(tmp_path, monkeypatch, capsys):
    # Nine rows of 299 points: row m=6 starts past the first chunk of rows.
    scenario = str(_table2_with_max_txn(tmp_path, 300))
    assert 4 * 299 > cli._CHUNK_ROWS
    evaluate_row = metrics.evaluate_row
    written = []

    def failing_row(scenario, weights, m, thetas):
        if m == 6:
            written.extend(path.stat().st_size for path in tmp_path.glob("**/.surface.csv.*.tmp"))
            raise bcconf.ValidationError("row 6 fails")
        return evaluate_row(scenario, weights, m, thetas)

    earlier = tmp_path / "earlier"
    assert run_cli("sweep", "--scenario", SCENARIO, "--out", str(earlier)) == 0
    before = snapshot(earlier)
    monkeypatch.setattr(metrics, "evaluate_row", failing_row)
    for out in (tmp_path / "new" / "run", earlier):
        written.clear()
        assert run_cli("sweep", "--scenario", scenario, "--out", str(out)) == 2
        assert "row 6 fails" in capsys.readouterr().err
        assert len(written) == 1 and written[0] > 0  # the first chunk was out when the row failed
    assert not (tmp_path / "new").exists()
    assert snapshot(earlier) == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["earlier", "table2_n300.scenario"]


def test_compare_reports_zero_gap_on_fixture(tmp_path):
    out = tmp_path / "run"
    assert run_cli("compare", "--scenario", SCENARIO, "--out", str(out)) == 0
    summary = read_csv(out / "summary.csv")[0]
    assert float(summary["utility_gap"]) == 0.0
    assert summary["greedy_suboptimal"] == "false"
    assert int(summary["greedy_evaluations"]) < int(summary["exhaustive_evaluations"])
    series = read_csv(out / "compare.csv")
    assert len(series) == int(summary["exhaustive_evaluations"])
    # The shorter greedy series leaves blank cells once exhausted.
    assert series[-1]["greedy_best_so_far"] == ""


@pytest.mark.parametrize("adversarial", [False, True], ids=["table2", "adversarial"])
def test_best_so_far_cells_are_the_repr_of_the_running_minimum(tmp_path, adversarial):
    scenario, weights = load_scenario(TABLE2_PATH), QosWeights(1 / 3, 1 / 3, 1 / 3)
    if adversarial:
        scenario, weights = ADVERSARIAL_SCENARIO, ADVERSARIAL_WEIGHTS
    path = tmp_path / "case.scenario"
    path.write_text(dump_scenario(scenario), encoding="utf-8")
    flags = ("--scenario", str(path), "--out", str(tmp_path), "--weights", ",".join(map(repr, weights.as_tuple())))
    assert run_cli("optimize", *flags) == 0 and run_cli("compare", *flags) == 0
    greedy, exhaustive = solve_greedy(scenario, weights), solve_exhaustive(scenario, weights)
    trace = read_csv(tmp_path / "trace.csv")
    assert [row["utility"] for row in trace] == list(map(repr, greedy.utilities))
    assert [row["best_so_far"] for row in trace] == list(map(repr, greedy.best_so_far()))
    series = read_csv(tmp_path / "compare.csv")
    assert [row["exhaustive_best_so_far"] for row in series] == list(map(repr, exhaustive.best_so_far()))
    greedy_cells = [row["greedy_best_so_far"] for row in series]
    assert greedy_cells == [*map(repr, greedy.best_so_far()), *[""] * (len(series) - greedy.evaluations)]


def test_best_so_far_texts_follow_objects_not_equal_values():
    # Distinct objects of equal value: a later equal utility never takes over the running
    # minimum, so -0.0 keeps its own text where an equal 0.0 follows it.
    half, other_half = float("0.5"), float("0.5")
    zero, negative_zero = float("0.0"), float("-0.0")
    assert half is not other_half and zero is not negative_zero
    utilities = (half, other_half, negative_zero, zero, float("0.25"), other_half)
    result = SolverResult(BlockchainConfig(1, 3), negative_zero, ((1, range(1, 7)),), utilities)
    expected = list(map(repr, result.best_so_far()))
    assert expected == ["0.5", "0.5", "-0.0", "-0.0", "-0.0", "-0.0"]
    assert list(cli._best_so_far_texts(result)) == expected
    rows = list(cli._trace_rows(result))
    assert [row[3] for row in rows] == list(map(repr, utilities))
    assert [row[4] for row in rows] == expected


def test_best_so_far_texts_on_random_draws_with_tied_utilities():
    # Criterion 2's draws, each with its own weights and the zero-weight corners, under which
    # a row's equal utilities are distinct objects that never take over the running minimum.
    rng = random.Random(1000003)
    corners = (QosWeights(1.0, 0.0, 0.0), QosWeights(0.0, 1.0, 0.0), QosWeights(0.0, 0.0, 1.0))
    ties = 0
    for _ in range(1000):
        scenario = random_scenario(rng, max_m=5, max_n=6)
        for weights in (random_weights(rng), *corners):
            for result in (solve_exhaustive(scenario, weights), solve_greedy(scenario, weights)):
                best = result.best_so_far()
                assert list(cli._best_so_far_texts(result)) == list(map(repr, best))
                texts = list(zip(map(repr, result.utilities), map(repr, best)))
                assert [row[3:] for row in cli._trace_rows(result)] == texts
                ties += sum(u == b and u is not b for u, b in zip(result.utilities, best))
    assert ties > 0


def test_optimize_and_compare_never_build_the_best_so_far_tuple(tmp_path, monkeypatch):
    # Both commands read the running minimum lazily; their artifacts stay those of best_so_far().
    def run_both(out):
        for command in ("optimize", "compare"):
            assert run_cli(command, "--scenario", SCENARIO, "--out", str(out)) == 0
        return hash_files(out, ("result.csv", "trace.csv", "compare.csv", "summary.csv"))

    expected = run_both(tmp_path / "a")

    def refuse(self):
        raise AssertionError("best_so_far() was called")

    monkeypatch.setattr(SolverResult, "best_so_far", refuse)
    assert run_both(tmp_path / "b") == expected


def test_equal_run_texts_reuse_a_text_only_for_the_same_bits():
    nan, inf = float("nan"), float("inf")
    values = [
        0.0, 0.0, -0.0, -0.0, 0.0, -0.0,  # equal values, alternating signs
        inf, inf, -inf, -inf, inf, nan, nan, -nan, 0.1 + 0.2, 0.1 + 0.2, 0.3, 5e-324, 5e-324, -5e-324, 1e300, 1e300,
    ]
    texts = list(cli._equal_run_texts(values))
    assert texts == list(map(repr, values))
    bits = [struct.pack("<d", value) for value in values]
    for k in range(1, len(values)):
        # A value reuses the text before it exactly when it has the same bits and is not NaN.
        assert (texts[k] is texts[k - 1]) == (bits[k] == bits[k - 1] and values[k] == values[k]), k
    assert list(cli._equal_run_texts([])) == []


def test_equal_run_texts_on_a_long_plain_simulation():
    # A 1000-round run without jitter repeats each value for rounds on end.
    report = dpos_sim.run(dpos_sim.SimConfig(load_scenario(TABLE2_PATH), BlockchainConfig(9, 12), rounds=1000))
    for values in (report.per_round_latency_s, report.abs_rel_deviation):
        assert list(cli._equal_run_texts(values)) == list(map(repr, values))
        assert len(set(map(repr, values))) < 50


def test_simulate_with_explicit_config(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "simulate", "--scenario", SCENARIO, "--out", str(out),
        "--m", "2", "--theta", "2", "--rounds", "10", "--seed", "7",
    ) == 0
    rows = read_csv(out / "sim_report.csv")
    assert len(rows) == 10
    for row in rows:
        assert float(row["abs_rel_deviation"]) <= 1e-9
    events = read_csv(out / "events.csv")
    assert events[0]["kind"] == "block_dispatched"
    ndjson = (out / "events.ndjson").read_text().strip().split("\n")
    assert len(ndjson) == len(events)


def test_simulate_uses_prior_optimize_result(tmp_path):
    out = tmp_path / "run"
    assert run_cli("optimize", "--scenario", SCENARIO, "--out", str(out)) == 0
    assert run_cli("simulate", "--scenario", SCENARIO, "--out", str(out), "--rounds", "2") == 0
    events = read_csv(out / "events.csv")
    verifications = [e for e in events if e["kind"] == "verification_done" and e["round"] == "0"]
    assert len(verifications) == 9  # optimized verifier count


def test_simulate_without_config_or_prior_result_exits_2(tmp_path):
    assert run_cli("simulate", "--scenario", SCENARIO, "--out", str(tmp_path / "x")) == 2


def test_simulate_with_partial_config_exits_2(tmp_path):
    assert run_cli(
        "simulate", "--scenario", SCENARIO, "--out", str(tmp_path / "x"), "--m", "3"
    ) == 2


def test_simulate_jitter_bounds(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "simulate", "--scenario", SCENARIO, "--out", str(out),
        "--m", "4", "--theta", "6", "--rounds", "50", "--seed", "3",
        "--jitter", "uniform:0.1",
    ) == 0
    for row in read_csv(out / "sim_report.csv"):
        assert float(row["abs_rel_deviation"]) <= 0.1 + 1e-9


def test_simulate_rejects_malformed_jitter(tmp_path, capsys):
    for jitter in ("gaussian:0.1", "uniform:1.0", "uniform:abc", "uniform", "none:0.5"):
        out = tmp_path / jitter.replace(":", "_")
        code = run_cli(
            "simulate", "--scenario", SCENARIO, "--out", str(out),
            "--m", "4", "--theta", "6", "--jitter", jitter,
        )
        assert code == 2, jitter
        assert "jitter" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_jitter_off_spellings_match_default(tmp_path):
    names = ["events.csv", "events.ndjson", "sim_report.csv"]
    digests = []
    for k, extra in enumerate(((), ("--jitter", "none"), ("--jitter", "uniform:0"))):
        out = tmp_path / str(k)
        assert run_cli(
            "simulate", "--scenario", SCENARIO, "--out", str(out),
            "--m", "4", "--theta", "6", "--rounds", "5", "--seed", "3", *extra,
        ) == 0
        digests.append(hash_files(out, names))
    assert digests[0] == digests[1] == digests[2]


def test_simulate_model_mismatch_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(metrics, "latency_row", lambda s, m, thetas: (1e9 for _ in thetas))
    out = tmp_path / "x"
    code = run_cli(
        "simulate", "--scenario", SCENARIO, "--out", str(out),
        "--m", "2", "--theta", "2",
    )
    assert code == 4
    assert "m=2, theta=2" in capsys.readouterr().err
    # The mismatch is detected before any artifact, or the directory, is written.
    assert not out.exists()


def snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def count_logged_rounds(monkeypatch):
    """Wrap each log that the event writer returns; return the list it appends each round index to."""
    rounds = []
    event_writer = dpos_sim.event_writer

    def counting_writer(csv_file, ndjson_file):
        log = event_writer(csv_file, ndjson_file)

        def counting(round_index, entries):
            rounds.append(round_index)
            log(round_index, entries)

        return counting

    monkeypatch.setattr(dpos_sim, "event_writer", counting_writer)
    return rounds


def test_failed_simulate_leaves_earlier_artifacts_as_they_were(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    simulate = ("simulate", "--scenario", SCENARIO, "--out", str(out), "--m", "9", "--theta", "12")
    assert run_cli("optimize", "--scenario", SCENARIO, "--out", str(out)) == 0
    assert run_cli(*simulate, "--rounds", "5") == 0
    before = snapshot(out)
    assert set(before) == {
        "result.csv", "trace.csv", "events.csv", "events.ndjson", "sim_report.csv", "manifest.json"
    }

    # Exit 4: every round is streamed before the closed-form check fails.
    with monkeypatch.context() as patch:
        rounds = count_logged_rounds(patch)
        patch.setattr(metrics, "latency_row", lambda s, m, thetas: (1e9 for _ in thetas))
        assert run_cli(*simulate, "--rounds", "5") == 4
    assert rounds == [0, 1, 2, 3, 4]
    assert snapshot(out) == before

    # Exit 2: the clock overflows after thousands of streamed rounds.
    bad = tmp_path / "bad.scenario"
    bad.write_text(
        TABLE2_PATH.read_text().replace("transaction_size_bits: 1 kb", "transaction_size_bits: 1e307")
    )
    with monkeypatch.context() as patch:
        rounds = count_logged_rounds(patch)
        code = run_cli("simulate", "--scenario", str(bad), "--out", str(out),
                       "--m", "9", "--theta", "12", "--rounds", "10000")
    assert code == 2
    assert "rounds=10000" in capsys.readouterr().err
    assert len(rounds) > 1000
    assert snapshot(out) == before

    # A successful run replaces every artifact it writes, and only those.
    assert run_cli(*simulate, "--rounds", "7", "--jitter", "uniform:0.2") == 0
    after = snapshot(out)
    assert set(after) == set(before)
    for name in ("events.csv", "events.ndjson", "sim_report.csv", "manifest.json"):
        assert after[name] != before[name], name
    for name in ("result.csv", "trace.csv"):
        assert after[name] == before[name], name


def test_failed_run_removes_every_directory_it_created(tmp_path, monkeypatch):
    monkeypatch.setattr(metrics, "latency_row", lambda s, m, thetas: (1e9 for _ in thetas))
    out = tmp_path / "a" / "b"
    assert run_cli("simulate", "--scenario", SCENARIO, "--out", str(out), "--m", "2", "--theta", "2") == 4
    assert list(tmp_path.iterdir()) == []


def test_failed_run_removes_the_directories_it_created_and_no_other(tmp_path, monkeypatch):
    monkeypatch.setattr(metrics, "latency_row", lambda s, m, thetas: (1e9 for _ in thetas))
    kept = tmp_path / "kept"
    kept.mkdir()
    out = kept / "a" / "b" / "c"
    assert run_cli("simulate", "--scenario", SCENARIO, "--out", str(out), "--m", "2", "--theta", "2") == 4
    assert list(tmp_path.iterdir()) == [kept]
    assert list(kept.iterdir()) == []


def test_failed_run_into_an_existing_directory_leaves_it_in_place(tmp_path, monkeypatch):
    monkeypatch.setattr(metrics, "latency_row", lambda s, m, thetas: (1e9 for _ in thetas))
    out = tmp_path / "run"
    out.mkdir()
    assert run_cli("simulate", "--scenario", SCENARIO, "--out", str(out), "--m", "2", "--theta", "2") == 4
    assert out.is_dir() and list(out.iterdir()) == []


def test_out_naming_a_file_exits_3(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("kept\n", encoding="utf-8")
    assert run_cli("optimize", "--scenario", SCENARIO, "--out", str(out)) == 3
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [out] and out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"m,theta\n9\n", "column 'theta' must be an integer, got None"),
        (b"m,theta\n\x00,12\n", "column 'm' must be an integer, got '\\x00'"),
        (b"m,theta\n9,1.5\n", "column 'theta' must be an integer, got '1.5'"),
        (b"m,theta\n\xff,12\n", "not a readable CSV file"),
        (b'm,theta\n"' + b"9" * 200_000 + b'",12\n', "not a readable CSV file"),
        (b"", "does not look like an optimize result"),
        (b"theta,utility\n12,0.5\n", "does not look like an optimize result"),
        (b"m,utility\n9,0.5\n", "does not look like an optimize result"),
    ],
    ids=["short-row", "nul", "float", "not-utf8", "oversized-field", "empty", "no-m", "no-theta"],
)
def test_simulate_rejects_malformed_prior_result(tmp_path, capsys, content, message):
    out = tmp_path / "run"
    out.mkdir()
    (out / "result.csv").write_bytes(content)
    assert run_cli("simulate", "--scenario", SCENARIO, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "result.csv" in err and message in err
    assert [path.name for path in out.iterdir()] == ["result.csv"]


def test_manifest_records_scenario_sha256(tmp_path):
    out = tmp_path / "run"
    assert run_cli("optimize", "--scenario", SCENARIO, "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario_sha256"] == hashlib.sha256(TABLE2_PATH.read_bytes()).hexdigest()


def test_scenario_hash_leaves_parsing_and_exit_codes_alone(tmp_path, capsys):
    # CRLF line endings parse as before, and the hash is of the bytes as read.
    crlf = tmp_path / "crlf.scenario"
    crlf.write_bytes(TABLE2_PATH.read_bytes().replace(b"\n", b"\r\n"))
    for name, path in (("lf", TABLE2_PATH), ("crlf", crlf)):
        assert run_cli("optimize", "--scenario", str(path), "--out", str(tmp_path / name)) == 0
    assert hash_files(tmp_path / "lf", ["result.csv", "trace.csv"]) == hash_files(
        tmp_path / "crlf", ["result.csv", "trace.csv"]
    )
    manifest = json.loads((tmp_path / "crlf" / "manifest.json").read_text())
    assert manifest["scenario_sha256"] == hashlib.sha256(crlf.read_bytes()).hexdigest()
    not_utf8 = tmp_path / "latin1.scenario"
    not_utf8.write_bytes(b"# caf\xe9\n" + TABLE2_PATH.read_bytes())
    assert run_cli("optimize", "--scenario", str(not_utf8), "--out", str(tmp_path / "x")) == 2
    assert run_cli("optimize", "--scenario", str(tmp_path), "--out", str(tmp_path / "y")) == 3
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_rerun_is_byte_identical(tmp_path):
    artifacts = {
        "optimize": ["result.csv", "trace.csv"],
        "sweep": ["surface.csv"],
        "compare": ["compare.csv", "summary.csv"],
    }
    for command, names in artifacts.items():
        first = tmp_path / f"{command}_a"
        second = tmp_path / f"{command}_b"
        for out in (first, second):
            assert run_cli(command, "--scenario", SCENARIO, "--out", str(out), "--seed", "5") == 0
        assert hash_files(first, names) == hash_files(second, names)
    sim_names = ["events.csv", "events.ndjson", "sim_report.csv"]
    for out in (tmp_path / "sim_a", tmp_path / "sim_b"):
        assert run_cli(
            "simulate", "--scenario", SCENARIO, "--out", str(out),
            "--m", "3", "--theta", "5", "--rounds", "20", "--seed", "11",
            "--jitter", "uniform:0.2",
        ) == 0
    assert hash_files(tmp_path / "sim_a", sim_names) == hash_files(tmp_path / "sim_b", sim_names)


def test_out_dir_defaults_to_environment_variable(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("BCCONF_OUT", str(target))
    assert run_cli("optimize", "--scenario", SCENARIO) == 0
    assert (target / "result.csv").is_file()


def run_python(*args):
    """Run Python in a child process, which imports the same bcconf as this one, installed or not."""
    package_root = str(Path(bcconf.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli_process(*argv):
    """Run the CLI in a child process."""
    return run_python("-m", "bcconf.cli", *argv)


def test_console_entry_point_runs():
    proc = run_cli_process("--version")
    assert proc.returncode == 0
    assert "bcconf" in proc.stdout


def test_cli_import_and_an_optimize_in_the_line_shape_leave_pyyaml_unimported(tmp_path):
    argv = ["optimize", "--scenario", SCENARIO, "--out", str(tmp_path / "o")]
    code = (
        "import sys, bcconf.cli; imported = 'yaml' in sys.modules; "
        f"status = bcconf.cli.main({argv!r}); "
        "print(imported, status, 'yaml' in sys.modules)"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False"]


def test_deeply_nested_scenario_exits_2_without_traceback(tmp_path):
    bad = tmp_path / "deep.scenario"
    bad.write_text(TABLE2_PATH.read_text().split("verifiers:\n")[0] + "verifiers: " + "[" * 5000 + "\n")
    proc = run_cli_process("optimize", "--scenario", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_scenario_that_is_not_utf8_exits_2_naming_path_and_offset(tmp_path):
    bad = tmp_path / "latin1.scenario"
    bad.write_bytes(b"# caf\xe9\n" + TABLE2_PATH.read_bytes())
    proc = run_cli_process("optimize", "--scenario", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert f"error: {bad}: not UTF-8 text: invalid continuation byte at byte offset 5" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["latin1.scenario"]


def test_duplicated_key_exits_2_naming_key_and_line(tmp_path, capsys):
    text = TABLE2_PATH.read_text()
    bad = tmp_path / "dup.scenario"
    bad.write_text(text + "max_verifiers: 3\n")
    assert run_cli("optimize", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2
    first = text.splitlines().index("max_verifiers: 10") + 1
    repeat = text.count("\n") + 1
    assert f"error: duplicate key 'max_verifiers' on line {repeat} (first on line {first})" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_rotate_bm_flag(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "simulate", "--scenario", SCENARIO, "--out", str(out),
        "--m", "3", "--theta", "2", "--rounds", "4", "--rotate-bm",
    ) == 0
    events = read_csv(out / "events.csv")
    rotations = [e for e in events if e["kind"] == "bm_rotated"]
    assert len(rotations) == 4


SIMULATE = ("simulate", "--scenario", SCENARIO, "--m", "3", "--theta", "2", "--rounds", "4")
OPTIMIZE = ("optimize", "--scenario", SCENARIO)


@pytest.mark.parametrize(
    "first, second",
    [
        ((*SIMULATE, "--rotate-bm"), SIMULATE),
        ((*OPTIMIZE, "--weights", "0.6,0.1,0.3"), OPTIMIZE),
        ((*SIMULATE, "--rotate-bm", "--jitter", "uniform:x"), SIMULATE),
    ],
    ids=["rotate-bm-then-not", "weights-then-not", "bad-flag-then-good"],
)
def test_consecutive_calls_in_one_process_match_a_fresh_parser(tmp_path, monkeypatch, capsys, first, second):
    def outcomes(side):
        results = []
        for index, argv in enumerate((first, second)):
            out = tmp_path / side / str(index)
            code = run_cli(*argv, "--out", str(out))
            files = snapshot(out) if out.exists() else {}
            files.pop("manifest.json", None)
            results.append((code, capsys.readouterr().err, files))
        return results

    shared = outcomes("shared")
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == outcomes("fresh")
    assert [code for code, _, _ in shared] == [2 if "uniform:x" in first else 0, 0]
    assert all(files for code, _, files in shared if code == 0)
