"""bcconf benchmark: one workload per process, closed loop, one caller.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload table2 --seed 1 --seconds 30 --trace 0

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. The
line before it holds the details (sample counts, tail percentiles, the
scenario's size and hash, greedy evaluations, the environment), which are
also written with the spans under ``.bench_out/<workload>/``.

The package is imported from ``src/`` of the checkout, never from anywhere
else; without ``src/bcconf`` the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from spans import LAYERS, Tracer, by_name, self_times
from workloads import SHIPPED_SCENARIO, WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"

# set-up is timed this many times per run; the median is reported
SETUP_REPS = 7

CLI_FAMILIES = ("optimize", "sweep", "compare", "simulate")

END_TO_END = {
    "setup_s": "s",
    **{f"{f}_ms_{stat}": "ms" for f in CLI_FAMILIES for stat in ("p50", "tail")},
    "scan_ms_p50": "ms",
    "sweep_sim_ms_p50": "ms",
    "sim_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.load_scenario.ms_p50": "ms",
    "model.load_scenario.calls": "count",
    "model.scenario_bytes": "bytes",
    "model.self_frac": "frac",
    "metrics.utility.us_p50": "us",
    "metrics.utility.calls": "count",
    "metrics.utility.self_frac": "frac",
    "optimizer.solve_greedy.ms_p50": "ms",
    "optimizer.solve_greedy.evals": "count",
    "optimizer.solve_exhaustive.ms_p50": "ms",
    "optimizer.solve_exhaustive.evals": "count",
    "optimizer.scan_unimodality.ms_p50": "ms",
    "optimizer.grid_size": "count",
    "optimizer.greedy_eval_ratio": "frac",
    "optimizer.self_frac": "frac",
    "dpos_sim.run.ms_p50": "ms",
    "dpos_sim.events": "count",
    "dpos_sim.events_per_s": "1/s",
    "dpos_sim.events_to_csv.ms_p50": "ms",
    "dpos_sim.events_to_ndjson.ms_p50": "ms",
    "dpos_sim.sweep_sim.ms_p50": "ms",
    "dpos_sim.sweep_sim.cells": "count",
    "dpos_sim.self_frac": "frac",
    "cli.main.self_frac": "frac",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


# Speed scaling. The benchmark's host shares its cores with other machines,
# and pure-Python code on it was measured running up to 1.7x slower for
# minutes at a time, in step across every op. Each cycle therefore also times
# reference_work(), which touches no bcconf code, and every time and rate is
# reported at the speed where reference_work() takes REFERENCE_MS, a round
# figure near its time on the 2-core Xeon VM the benchmark was built on. The
# unscaled values and the scale are in the details.
REFERENCE_MS = 10.0


@dataclass(frozen=True)
class _Item:
    ident: int
    weight: float
    label: str


def reference_work() -> int:
    """Fixed interpreter-bound work like the package's: dataclasses, hashing, sorting, CSV, JSON."""
    items = [_Item(i, (i * 7919 % 1000) / 7.0, f"k{i % 50}") for i in range(1500)]
    seen = {item: item.weight for item in items}
    ranked = sorted(items, key=lambda it: (it.weight, it.ident))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    total = 0.0
    for it in ranked[:900]:
        total += max(it.weight, 1.0) / (it.ident + 1.0)
        writer.writerow([it.ident, it.weight, total])
    text = json.dumps([{"i": it.ident, "w": it.weight} for it in ranked[:500]])
    return len(seen) + len(buffer.getvalue()) + len(text)


def scale_metrics(metrics: dict[str, float], units: dict[str, str], scale: float) -> dict[str, float]:
    """Times multiplied by ``scale``, rates divided by it, everything else as is."""
    factor = {"s": scale, "ms": scale, "us": scale, "1/s": 1 / scale}
    return {name: value * factor.get(units[name], 1.0) for name, value in metrics.items()}


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs to run."""


def import_fresh(src: Path, scenario_path: Path) -> tuple[float, dict[str, Any], Any]:
    """Import ``bcconf.cli`` from ``src`` afresh and load the scenario; return the time taken.

    ``bcconf`` and PyYAML are dropped from ``sys.modules`` first, so each
    call pays the whole import. ``bcconf.cli`` is what the ``bcconf``
    command imports, and it imports the rest of the package.
    """
    for name in list(sys.modules):
        if name.split(".")[0] in ("bcconf", "yaml", "_yaml"):
            del sys.modules[name]
    started = time.perf_counter()
    importlib.import_module("bcconf.cli")
    bcconf = sys.modules["bcconf"]
    scenario = bcconf.load_scenario(scenario_path)
    elapsed = time.perf_counter() - started
    if Path(bcconf.__file__).resolve().parent != (src / "bcconf").resolve():
        raise SetupError(f"bcconf was imported from {bcconf.__file__}, not from {src}")
    modules = {name: sys.modules[f"bcconf.{name}"] for name in ("cli", "model", "optimizer", "dpos_sim")}
    return elapsed, modules, scenario


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = min(len(sorted_values), max(1, math.ceil(pct / 100 * len(sorted_values))))
    return sorted_values[rank - 1], len(sorted_values) - rank


def environment(root: Path) -> dict[str, Any]:
    import yaml

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, read from ``.git``; ``unknown`` without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs a workload's op cycle, timing each call and checking its outputs."""

    def __init__(self, workload: Workload, ops: list[Op]):
        self.workload = workload
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_s: list[float] = []

    def run_op(self, op: Op, tracer: Optional[Tracer]) -> float:
        self.attempted += 1
        result: Any = None
        started = time.perf_counter()
        try:
            result = tracer.op(op.name, op.call) if tracer else op.call()
            ok = True
        except Exception as exc:  # a crashing op is a failed op, and the run goes on
            ok = False
            problem = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if ok:
            try:
                problems = self.workload.check(op, result)
            except Exception as exc:  # unreadable or missing output fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            ok = not problems
            problem = "; ".join(problems)
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.name}: {problem}")
        return elapsed

    def run_cycle(self, tracer: Optional[Tracer] = None) -> dict[str, float]:
        started = time.perf_counter()
        reference_work()
        self.reference_s.append(time.perf_counter() - started)
        return {op.name: self.run_op(op, tracer) for op in self.ops}


def end_to_end_metrics(
    runner: Runner, cycles: list[dict[str, float]], setup_s: float, details: dict
) -> dict[str, float]:
    spec = runner.workload.spec
    sim_ops = [op for op in runner.ops if op.family == "simulate"]
    rounds_per_cycle = sum(op.rounds for op in sim_ops)
    samples: dict[str, list[float]] = {}
    for op in runner.ops:
        samples.setdefault(op.family, []).extend(c[op.name] * 1e3 for c in cycles)
    metrics = {"setup_s": setup_s}
    details["samples"] = {family: len(v) for family, v in samples.items()}
    details["tail"] = {}
    for family, values in samples.items():
        values.sort()
        metrics[f"{family}_ms_p50"] = statistics.median(values)
        if family in CLI_FAMILIES:
            pct = spec.tail_pct[family]
            metrics[f"{family}_ms_tail"], beyond = percentile(values, pct)
            details["tail"][family] = {"pct": pct, "n": len(values), "beyond": beyond}
    # Per cycle, so that one slow call moves one sample rather than the whole sum.
    metrics["sim_rounds_per_s"] = statistics.median(
        rounds_per_cycle / sum(c[op.name] for op in sim_ops) for c in cycles
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer_metrics(
    tracer: Tracer,
    traced: list[dict[str, float]],
    untraced: list[dict[str, float]],
    workload: Workload,
    scenario: Any,
    bytes_per_cycle: int,
) -> dict[str, float]:
    spans = tracer.spans
    groups = by_name(spans)
    own = self_times(spans)
    n_cycles = len(traced)
    op_time = sum(s.end - s.start for s in spans if s.parent is None)

    def p50(name: str, scale: float) -> float:
        durations = [s.end - s.start for s in groups.get(name, ())]
        return statistics.median(durations) * scale if durations else 0.0

    def per_cycle(name: str) -> float:
        return len(groups.get(name, ())) / n_cycles

    def evals(solver: str) -> float:
        ids = {s.id for s in groups.get(solver, ())}
        inner = sum(1 for s in groups.get("metrics.utility", ()) if s.parent in ids)
        return inner / len(ids) if ids else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own[s.id]
    unattributed = sum(own[s.id] for s in spans if s.parent is None)
    runs = groups.get("dpos_sim.run", [])
    events = sum(s.count or 0 for s in runs)
    run_time = sum(s.end - s.start for s in runs)
    cells = [s.count for s in groups.get("dpos_sim.sweep_sim", ()) if s.count is not None]

    def cycle_median(cycles: list[dict[str, float]]) -> float:
        return sum(statistics.median(c[name] for c in cycles) for name in cycles[0])

    greedy_evals = evals("optimizer.solve_greedy")
    return {
        "model.load_scenario.ms_p50": p50("model.load_scenario", 1e3),
        "model.load_scenario.calls": per_cycle("model.load_scenario"),
        "model.scenario_bytes": workload.scenario_path.stat().st_size,
        "model.self_frac": layer_self["model"] / op_time,
        "metrics.utility.us_p50": p50("metrics.utility", 1e6),
        "metrics.utility.calls": per_cycle("metrics.utility"),
        "metrics.utility.self_frac": layer_self["metrics"] / op_time,
        "optimizer.solve_greedy.ms_p50": p50("optimizer.solve_greedy", 1e3),
        "optimizer.solve_greedy.evals": greedy_evals,
        "optimizer.solve_exhaustive.ms_p50": p50("optimizer.solve_exhaustive", 1e3),
        "optimizer.solve_exhaustive.evals": evals("optimizer.solve_exhaustive"),
        "optimizer.scan_unimodality.ms_p50": p50("optimizer.scan_unimodality", 1e3),
        "optimizer.grid_size": scenario.grid_size,
        "optimizer.greedy_eval_ratio": greedy_evals / scenario.grid_size,
        "optimizer.self_frac": layer_self["optimizer"] / op_time,
        "dpos_sim.run.ms_p50": p50("dpos_sim.run", 1e3),
        "dpos_sim.events": events / n_cycles,
        "dpos_sim.events_per_s": events / run_time if run_time else 0.0,
        "dpos_sim.events_to_csv.ms_p50": p50("dpos_sim.events_to_csv", 1e3),
        "dpos_sim.events_to_ndjson.ms_p50": p50("dpos_sim.events_to_ndjson", 1e3),
        "dpos_sim.sweep_sim.ms_p50": p50("dpos_sim.sweep_sim", 1e3),
        "dpos_sim.sweep_sim.cells": statistics.median(cells) if cells else 0,
        "dpos_sim.self_frac": layer_self["dpos_sim"] / op_time,
        "cli.main.self_frac": layer_self["cli"] / op_time,
        "cli.bytes_written": bytes_per_cycle,
        "trace.overhead_frac": cycle_median(traced) / cycle_median(untraced) - 1.0,
        "trace.unattributed_frac": unattributed / op_time,
    }


def set_up(workload_name: str, seed: int, out_dir: Path) -> tuple[Runner, Any, list[float]]:
    """Generate inputs, time ``SETUP_REPS`` fresh imports and loads, and build the op cycle."""
    spec = WORKLOADS[workload_name]
    src = ROOT / "src"
    if not (src / "bcconf" / "__init__.py").is_file():
        raise SetupError(f"no bcconf package under {src}")
    if not spec.generated and not (ROOT / SHIPPED_SCENARIO).is_file():
        raise SetupError(f"missing {ROOT / SHIPPED_SCENARIO}")
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = Workload(spec, ROOT, out_dir, seed)
    workload.prepare()  # the generator's time is not set-up time

    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    setup_times = []
    for _ in range(SETUP_REPS):
        elapsed, modules, scenario = import_fresh(src, workload.scenario_path)
        setup_times.append(elapsed)
    return Runner(workload, workload.build_ops(modules, scenario)), scenario, setup_times


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result line and the details."""
    out_dir = OUT_ROOT / workload_name
    runner, scenario, setup_times = set_up(workload_name, seed, out_dir)
    workload, spec = runner.workload, runner.workload.spec

    runner.run_cycle()  # warm-up: fills caches and records each op's first-call artifacts
    state = workload.state
    bytes_per_cycle = state.bytes_written
    tracer = Tracer() if trace else None
    untraced: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        # With tracing, cycles alternate untraced and traced, so both see the same conditions.
        if tracer is not None and len(untraced) > len(traced):
            tracer.install()
            try:
                traced.append(runner.run_cycle(tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(runner.run_cycle())
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    details: dict[str, Any] = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cycles": {"untraced": len(untraced), "traced": len(traced)},
        "scenario": {
            "path": str(workload.scenario_path.relative_to(ROOT)),
            "verifiers": len(scenario.verifiers),
            "grid_size": scenario.grid_size,
            "sha256": hashlib.sha256(workload.scenario_path.read_bytes()).hexdigest(),
        },
        "greedy_evals": state.greedy_evals,
        "greedy_exact": state.greedy_exact,
        "utility_gap": state.utility_gap,
        "setup_s_all": setup_times,
        "ops_failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems,
    }
    if tracer is None:
        metrics = end_to_end_metrics(runner, untraced, statistics.median(setup_times), details)
        units = END_TO_END
    else:
        metrics = per_layer_metrics(tracer, traced, untraced, workload, scenario, bytes_per_cycle)
        details["absent"] = tracer.absent
        tracer.write(out_dir / "spans.ndjson")
        units = PER_LAYER
    reference_ms = statistics.median(runner.reference_s) * 1e3
    details["speed"] = {"reference_ms": reference_ms, "scale": REFERENCE_MS / reference_ms}
    details["unscaled"] = metrics
    metrics = scale_metrics(metrics, units, REFERENCE_MS / reference_ms)
    details["environment"] = environment(ROOT)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out_dir / f"result_trace{int(trace)}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=2) + "\n", encoding="utf-8"
    )
    return result, details


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
