"""Golden outputs: every CSV/NDJSON artifact of eight CLI runs on table2, pinned by sha256.

A refactor that keeps these digests keeps the bytes users see: values,
float formatting, row order, tie-breaks and event order. ``manifest.json``
records wall time and is excluded. Each CSV artifact must also be what the
``csv`` module writes for the rows it parses into.
"""
import csv
import hashlib
import io

import pytest

from bcconf import cli
from helpers import TABLE2_PATH

GOLDEN = {
    "optimize": (
        ["optimize"],
        {
            "result.csv": "e61113ed2510d4015416778689a92f67fa617502ef90db4a5fb5f97e0a5ec056",
            "trace.csv": "9508446eea92667821676ac79c7e2e5312c758cad6775990f637fd3e0248397c",
        },
    ),
    "sweep": (
        ["sweep"],
        {"surface.csv": "65c586e1f57411d064ec97258d9ddb07767fc9c0e98712ea91929572e353baa8"},
    ),
    "compare": (
        ["compare"],
        {
            "compare.csv": "a7c575b15584ae96b7456e80545d5ca9db58b368e81248d698cf8e338edadfb4",
            "summary.csv": "1bcd4f229582fb0e2c1ad143ddcee0f3f1ac51697010c6f443395cd09ab73400",
        },
    ),
    "optimize_qos_low_high": (
        ["optimize", "--qos-class", "low,high"],
        {
            "result.csv": "e0b929880017de221c36578fe249504d9917c36ccb6ea08a781486a539000e4c",
            "trace.csv": "bdc00ae9fba3644e03de7416e5ffc0db301823261a0af2852814bb5cf058e3a6",
        },
    ),
    "compare_qos_low_low": (
        ["compare", "--qos-class", "low,low"],
        {
            "compare.csv": "b1f2931d8e142896319cf8ae6a4370258120271c9ce04f0a918713aaf328606a",
            "summary.csv": "68ee458f7e6f01eb5cff0a15b6d70f423fd9fe8beac7ed703bec8ed20e30ab7e",
        },
    ),
    "sweep_weights": (
        ["sweep", "--weights", "0.2,0.5,0.3"],
        {"surface.csv": "bea79159319909a9a78f691a00a92cbe79165a51fc0b7312c86dab5ba29d3475"},
    ),
    "simulate": (
        ["simulate", "--m", "9", "--theta", "12", "--rounds", "200"],
        {
            "events.csv": "a743466b57dd55aff7627bc479f8adb7017f06d54bb780c22849a1550208f505",
            "events.ndjson": "0bc9c08fc58920980a8c9de34c798043208aee729ed8ddf55a30de74aa89c769",
            "sim_report.csv": "5ccdc10fac1bd324b2839fc834ed89d460acda5c65d7c2968112f275de200744",
        },
    ),
    "simulate_jitter_rotate": (
        [
            "simulate", "--m", "4", "--theta", "7", "--rounds", "50",
            "--jitter", "uniform:0.15", "--rotate-bm", "--seed", "9",
        ],
        {
            "events.csv": "9c31d5dff9ee446ba493dbe49eb0f7eba600367e62683b2c409203fa90f45030",
            "events.ndjson": "2e4cfa58563fbd1a0cf80f0d1a085fb0b53f5286c2a6f4468df229a74ad6d0d3",
            "sim_report.csv": "b19696e57d3de30b4319f3cacee50fa7d400b7eb4828f850a73685c4cf0190a5",
        },
    ),
}


def run_golden(tmp_path, name):
    """Run one ``GOLDEN`` command on table2; return its output directory."""
    command, *flags = GOLDEN[name][0]
    out = tmp_path / name
    assert cli.main([command, "--scenario", str(TABLE2_PATH), "--out", str(out), *flags]) == 0
    return out


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_artifacts(tmp_path, name):
    digests = GOLDEN[name][1]
    out = run_golden(tmp_path, name)
    actual = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    assert actual == digests


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_artifacts_are_what_the_csv_module_writes(tmp_path, name):
    # The CLI joins cells by hand; that is only CSV if no cell needs quoting.
    out = run_golden(tmp_path, name)
    for artifact in (f for f in GOLDEN[name][1] if f.endswith(".csv")):
        text = (out / artifact).read_bytes().decode("utf-8")
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert all(len(row) == len(header) for row in rows), artifact
        rendered = io.StringIO(newline="")
        csv.writer(rendered, lineterminator="\n").writerows([header, *rows])
        assert rendered.getvalue() == text, artifact
