"""Workload definitions, the seeded scenario generator, and the output checks.

Every workload runs the same six ops, so every end-to-end metric exists on
every workload: the four CLI commands through ``bcconf.cli.main(argv)`` and
the two library entry points the acceptance suite uses
(``optimizer.scan_unimodality`` and ``dpos_sim.sweep_sim``). The workloads
differ in the scenario and in how much simulation each op asks for, which
decides the layer that dominates:

- ``table2``: the shipped scenario (P=12, 171 grid points); fixed per-call
  cost (parse, argparse, CSV and manifest writes) dominates.
- ``wide_population``: a generated scenario with P=100 verifiers and a
  300-point grid; the O(P) parse and the O(P) ``utility`` call dominate.
- ``long_rounds``: table2 at the paper's optimum (9, 12) with 1000-round
  simulations; the event loop and event serialization dominate.

Checks run outside the timed region and read CSV columns by name.
"""
from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Optional

SHIPPED_SCENARIO = Path("scenarios") / "table2.scenario"

# wide_population shape. P=1000 (the size the roadmap names) leaves about
# seven calls of each op in one run, too few for any tail percentile with ten
# calls beyond it; P=100 keeps parse and utility dominant at about fifty.
WIDE_P = 100
WIDE_FAST_TIER = 15
WIDE_MAX_VERIFIERS = 16
WIDE_MAX_TXN = 21

LONG_ROUNDS = 1000
LONG_SWEEP_SIM_ROUNDS = 20

# op name -> (metric family, artifacts compared byte for byte with the first call)
CLI_ARTIFACTS = {
    "optimize": ("result.csv", "trace.csv"),
    "sweep": ("surface.csv",),
    "compare": ("compare.csv", "summary.csv"),
    "simulate": ("events.csv", "events.ndjson", "sim_report.csv"),
}


def generate_wide_scenario(seed: int) -> str:
    """Scenario text with ``WIDE_P`` verifiers, drawn from ``seed``.

    The population has a fast tier of ``WIDE_FAST_TIER`` verifiers and a slow
    remainder, so, as in table2, the optimum sits one verifier below the
    maximum and the greedy sweep is provably exact. The
    seed jitters every capacity by 1% and every payment by 5% and shuffles
    ids and order; the tiers themselves are fixed so that the greedy path,
    and with it the work per op, is the same for every seed. Link constants
    are table2's. The same seed gives the same bytes.
    """
    rng = random.Random(seed)
    ids = list(range(WIDE_P))
    rng.shuffle(ids)
    rows = []
    for rank in range(WIDE_P):
        if rank < WIDE_FAST_TIER:
            base = 200.0 - 10.0 * rank
        else:
            base = 45.0 - 35.0 * (rank - WIDE_FAST_TIER) / (WIDE_P - WIDE_FAST_TIER)
        capacity = round(base * (1.0 + 0.01 * (2.0 * rng.random() - 1.0)), 3)
        payment = 6.0 * (1.0 + 0.05 * (2.0 * rng.random() - 1.0))
        rows.append((ids[rank], capacity, round(payment / capacity, 6)))
    rng.shuffle(rows)
    lines = [
        f"# Generated wide_population scenario, seed {seed}, P={WIDE_P}.",
        "transaction_size_bits: 1 kb",
        "verification_workload: 400.0",
        "feedback_size_bits: 0.5 Mb",
        "downlink_rate_bps: 1.2 Mb/s",
        "uplink_rate_bps: 1.3 Mb/s",
        "broadcast_coeff: 2.0e-05",
        "security_coeff: 1.0",
        "network_scale_exponent: 2.0",
        "min_verifiers: 2",
        f"max_verifiers: {WIDE_MAX_VERIFIERS}",
        "min_txn_per_block: 2",
        f"max_txn_per_block: {WIDE_MAX_TXN}",
        "verifiers:",
    ]
    lines += [
        f"  - {{id: {vid}, compute_capacity: {cap!r}, unit_price: {price!r}}}"
        for vid, cap, price in rows
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    # Extra simulate arguments, one list per simulate op in the cycle.
    simulate_variants: tuple[tuple[str, ...], ...]
    sweep_sim_rounds: int
    # Tail percentile per CLI command: the highest of 70, 75, 80, 85, 90, 95
    # and 99 that still has ten calls beyond it in a 30 s run that completes
    # a fifth fewer cycles than usual on the 2-core host. Fixed, so that every
    # run reports the same percentile; the details record the count beyond.
    tail_pct: dict[str, float]
    generated: bool = False


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="table2",
            simulate_variants=(("--rounds", "100"),),
            sweep_sim_rounds=3,
            tail_pct={"optimize": 90, "sweep": 90, "compare": 90, "simulate": 90},
        ),
        WorkloadSpec(
            name="wide_population",
            simulate_variants=(("--rounds", "100"),),
            sweep_sim_rounds=1,
            tail_pct={"optimize": 75, "sweep": 75, "compare": 75, "simulate": 75},
            generated=True,
        ),
        WorkloadSpec(
            name="long_rounds",
            # (9, 12) is the paper's optimum; the run without jitter takes the
            # 1e-9 closed-form check path.
            simulate_variants=(
                ("--m", "9", "--theta", "12", "--rounds", str(LONG_ROUNDS),
                 "--jitter", "uniform:0.1", "--rotate-bm"),
                ("--m", "9", "--theta", "12", "--rounds", str(LONG_ROUNDS)),
            ),
            sweep_sim_rounds=LONG_SWEEP_SIM_ROUNDS,
            tail_pct={"optimize": 70, "sweep": 70, "compare": 70, "simulate": 85},
        ),
    )
}


@dataclass
class Op:
    """One call in a workload's cycle plus the check of its outputs."""

    name: str
    family: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    artifacts: tuple[str, ...] = ()
    rounds: int = 0  # rounds a simulate op commits


@dataclass
class RunState:
    """Results that checks share across ops, and the first-call references."""

    first_hashes: dict[str, dict[str, Optional[str]]] = field(default_factory=dict)
    first_results: dict[str, Any] = field(default_factory=dict)
    surface_min: Optional[tuple[int, int, float]] = None
    utility_gap: Optional[float] = None
    greedy_exact: Optional[bool] = None
    greedy_evals: Optional[int] = None
    bytes_written: int = 0


def _sha256(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


class Workload:
    """A workload bound to a checkout, an output directory and a seed."""

    def __init__(self, spec: WorkloadSpec, root: Path, out_dir: Path, seed: int):
        self.spec = spec
        self.seed = seed
        self.artifact_dir = out_dir / "artifacts"
        self.state = RunState()
        if spec.generated:
            self.scenario_path = out_dir / f"{spec.name}.scenario"
        else:
            self.scenario_path = root / SHIPPED_SCENARIO

    def prepare(self) -> None:
        """Write the generated scenario (if any) and clear old artifacts."""
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.artifact_dir.iterdir():
            stale.unlink()
        if self.spec.generated:
            self.scenario_path.write_text(generate_wide_scenario(self.seed), encoding="utf-8")

    def build_ops(self, bc: dict[str, ModuleType], scenario: Any) -> list[Op]:
        """The op cycle, calling through module attributes so tracing can wrap them.

        ``bc`` maps short names (``cli``, ``optimizer``, ``dpos_sim``,
        ``model``) to the imported ``bcconf`` modules; ``scenario`` is the
        one ``load_scenario`` returned during set-up.
        """
        cli, optimizer, dpos_sim, model = bc["cli"], bc["optimizer"], bc["dpos_sim"], bc["model"]
        common = ("--scenario", str(self.scenario_path), "--out", str(self.artifact_dir),
                  "--seed", str(self.seed))
        weights = model.QosWeights(1 / 3, 1 / 3, 1 / 3)  # the CLI default for these scenarios
        tol = dpos_sim.SIM_REL_TOL

        def cli_op(name: str, family: str, extra: tuple[str, ...], check) -> Op:
            argv = [family, *common, *extra]
            return Op(name, family, lambda: cli.main(argv), check, CLI_ARTIFACTS[family])

        def check_optimize(code: int) -> list[str]:
            rows = _read_rows(self.artifact_dir / "result.csv")
            if len(rows) != 1:
                return [f"result.csv has {len(rows)} rows, expected 1"]
            self.state.greedy_evals = int(rows[0]["evaluations"])
            return []

        def check_simulate(rounds: int, jitter: bool):
            def check(code: int) -> list[str]:
                rows = _read_rows(self.artifact_dir / "sim_report.csv")
                problems = []
                if len(rows) != rounds:
                    problems.append(f"sim_report.csv has {len(rows)} rows, expected {rounds}")
                worst = max(float(r["abs_rel_deviation"]) for r in rows) if rows else float("inf")
                if not jitter and worst > tol:
                    problems.append(f"deviation {worst:.3e} above SIM_REL_TOL {tol}")
                return problems
            return check

        def check_sweep(code: int) -> list[str]:
            rows = _read_rows(self.artifact_dir / "surface.csv")
            if len(rows) != scenario.grid_size:
                return [f"surface.csv has {len(rows)} rows, expected {scenario.grid_size}"]
            best = None
            for r in rows:  # row-major, so the strict < keeps the smaller m, then theta
                key = (int(r["m"]), int(r["theta"]), float(r["utility"]))
                if best is None or key[2] < best[2]:
                    best = key
            self.state.surface_min = best
            return []

        def check_compare(code: int) -> list[str]:
            rows = _read_rows(self.artifact_dir / "summary.csv")
            if len(rows) != 1:
                return [f"summary.csv has {len(rows)} rows, expected 1"]
            row = rows[0]
            problems = []
            optimum = (int(row["exhaustive_m"]), int(row["exhaustive_theta"]),
                       float(row["exhaustive_best_utility"]))
            if optimum != self.state.surface_min:
                problems.append(f"exhaustive optimum {optimum} != surface minimum {self.state.surface_min}")
            gap = float(row["utility_gap"])
            if gap < 0:
                problems.append(f"utility_gap {gap} is negative")
            self.state.utility_gap = gap
            return problems

        def check_scan(report: Any) -> list[str]:
            problems = []
            if report != self.state.first_results.setdefault("scan", report):
                problems.append("scan report differs from the first call")
            self.state.greedy_exact = report.greedy_exact
            if report.greedy_exact and self.state.utility_gap != 0.0:
                problems.append(f"greedy_exact but utility_gap is {self.state.utility_gap}")
            return problems

        def check_sweep_sim(report: Any) -> list[str]:
            problems = []
            if report != self.state.first_results.setdefault("sweep_sim", report):
                problems.append("sweep_sim report differs from the first call")
            if len(report.cells) != scenario.grid_size:
                problems.append(f"sweep_sim has {len(report.cells)} cells, expected {scenario.grid_size}")
            if report.max_abs_rel_deviation > tol:
                problems.append(f"sweep_sim deviation {report.max_abs_rel_deviation:.3e} above {tol}")
            return problems

        ops = [cli_op("optimize", "optimize", (), check_optimize)]
        for k, variant in enumerate(self.spec.simulate_variants):
            rounds = int(variant[variant.index("--rounds") + 1])
            op = cli_op(f"simulate{k}", "simulate", variant, check_simulate(rounds, "--jitter" in variant))
            op.rounds = rounds
            ops.append(op)
        ops += [
            cli_op("sweep", "sweep", (), check_sweep),
            cli_op("compare", "compare", (), check_compare),
            Op("scan", "scan", lambda: optimizer.scan_unimodality(scenario, weights), check_scan),
            Op("sweep_sim", "sweep_sim",
               lambda: dpos_sim.sweep_sim(scenario, rounds=self.spec.sweep_sim_rounds, seed=self.seed),
               check_sweep_sim),
        ]
        return ops

    def check(self, op: Op, result: Any) -> list[str]:
        """Run ``op``'s check on ``result``; CLI ops also get exit-code and byte-identity checks."""
        if op.artifacts:
            if result != 0:
                return [f"exit code {result}"]
            hashes = {name: _sha256(self.artifact_dir / name) for name in op.artifacts}
            first = self.state.first_hashes.setdefault(op.name, hashes)
            changed = [name for name in op.artifacts if hashes[name] is None or hashes[name] != first[name]]
            if changed:
                return [f"artifact differs from the first call: {name}" for name in changed]
            self.state.bytes_written += sum(
                (self.artifact_dir / name).stat().st_size for name in (*op.artifacts, "manifest.json")
            )
        return op.check(result)
