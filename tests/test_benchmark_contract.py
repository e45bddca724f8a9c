"""The benchmark still runs against the package: every op's call and check, and every traced name.

``benchmarks/workloads.py`` and ``benchmarks/spans.py`` are imported as they
are; nothing in them is edited.
``benchmarks/run.py`` is not: its set-up drops ``bcconf`` and PyYAML from
``sys.modules`` on every import, which would leave the rest of the suite
holding stale modules. What that set-up reads from ``sys.modules`` after
``import bcconf.cli`` is checked in a child process instead.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcconf
from bcconf import cli, dpos_sim, load_scenario, model, optimizer
from helpers import REPO_ROOT, import_benchmark_module


workloads = import_benchmark_module("workloads")
spans = import_benchmark_module("spans")

# The span names in spans.WRAPPED whose functions were deleted from the package. Mending
# spans.WRAPPED empties this set; a rename of any other traced function fails the test below.
STALE_SPANS = {"metrics.utility", "dpos_sim.events_to_csv", "dpos_sim.events_to_ndjson"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_op_of_each_workload_runs_and_passes_its_check(tmp_path, name):
    workload = workloads.Workload(workloads.WORKLOADS[name], REPO_ROOT, tmp_path, seed=5)
    workload.prepare()
    scenario = load_scenario(workload.scenario_path)
    modules = {"cli": cli, "model": model, "optimizer": optimizer, "dpos_sim": dpos_sim}
    ops = workload.build_ops(modules, scenario)
    for _ in range(2):  # the second cycle's artifacts are compared with the first's, byte for byte
        for op in ops:
            assert workload.check(op, op.call()) == [], op.name


def test_importing_the_cli_imports_the_modules_the_benchmark_reads():
    package_root = str(Path(bcconf.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import sys, bcconf.cli; "
        "print(sorted(m for m in ('bcconf.model', 'bcconf.optimizer', 'bcconf.dpos_sim') if m not in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_traced_function_resolves_except_the_known_stale_names():
    # Resolved as the tracer resolves them: import the module, then read the attribute.
    resolves = {name: hasattr(importlib.import_module(module), attr) for module, attr, name, _ in spans.WRAPPED}
    assert sorted(name for name, found in resolves.items() if not found) == sorted(STALE_SPANS)
