"""Command surface: artifacts, exit codes, precedence, and determinism."""
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcconf
from bcconf import cli
from helpers import TABLE2_PATH

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
    trace = read_csv(out / "trace.csv")
    assert len(trace) == int(rows[0]["evaluations"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "optimize"
    assert manifest["tool_version"]
    assert manifest["wall_time_s"] >= 0


def test_missing_scenario_exits_3_without_partial_outputs(tmp_path):
    out = tmp_path / "run"
    code = run_cli("optimize", "--scenario", str(tmp_path / "nope.scenario"), "--out", str(out))
    assert code == 3
    assert not out.exists()


def test_invalid_weights_exit_2(tmp_path, capsys):
    for weights, reason in (("0.9,0.9,0.9", "weights must sum to 1"), ("nan,0,1", "latency_weight")):
        code = run_cli(
            "optimize", "--scenario", SCENARIO, "--out", str(tmp_path), "--weights", weights
        )
        assert code == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "_parse_weights_flag" not in err


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
        assert not out.exists() or not any(out.iterdir())


def test_overflowing_round_latency_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text(
        TABLE2_PATH.read_text().replace("transaction_size_bits: 1 kb", "transaction_size_bits: 1e308")
    )
    for argv in (("simulate", "--m", "9", "--theta", "12", "--rounds", "3"), ("optimize",)):
        out = tmp_path / argv[0]
        assert run_cli(*argv, "--scenario", str(bad), "--out", str(out)) == 2
        assert "transaction_size_bits" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


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
        assert not out.exists() or not any(out.iterdir())


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
    from bcconf import metrics

    monkeypatch.setattr(metrics, "latency", lambda s, c: 1e9)
    out = tmp_path / "x"
    code = run_cli(
        "simulate", "--scenario", SCENARIO, "--out", str(out),
        "--m", "2", "--theta", "2",
    )
    assert code == 4
    assert "m=2, theta=2" in capsys.readouterr().err
    # The mismatch is detected before any simulation artifact is written.
    for name in ("events.csv", "events.ndjson", "sim_report.csv"):
        assert not (out / name).exists()


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


def test_console_entry_point_runs():
    # The child must import the same bcconf as this process, installed or not.
    package_root = str(Path(bcconf.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bcconf.cli", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "bcconf" in proc.stdout


def test_rotate_bm_flag(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "simulate", "--scenario", SCENARIO, "--out", str(out),
        "--m", "3", "--theta", "2", "--rounds", "4", "--rotate-bm",
    ) == 0
    events = read_csv(out / "events.csv")
    rotations = [e for e in events if e["kind"] == "bm_rotated"]
    assert len(rotations) == 4
