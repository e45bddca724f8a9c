"""Self-test of the benchmark; it is not part of the package's test suite.

Run from the root of a checkout:

    python3 benchmarks/selftest.py

It smoke-runs every workload in both modes, checks that the scenario
generator is deterministic, that a corrupted artifact counts as a failed op,
that a renamed function is reported as absent by the tracer, and that the
benchmark refuses to run in a directory without the package.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import spans
from workloads import WORKLOADS, generate_wide_scenario

BENCH_DIR = Path(__file__).resolve().parent
SCRATCH = run.OUT_ROOT / "selftest"


def bench(cwd: Path, workload: str, trace: int, script: Path = BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        cls.declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_declared_names_match_the_program(self):
        self.assertEqual([w["name"] for w in self.declared["workloads"]], list(WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in self.declared[key]}, table)

    def test_smoke_run_of_each_workload(self):
        for workload in WORKLOADS:
            for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    done = bench(run.ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(table))
                    details = json.loads(done.stdout.splitlines()[-2])
                    self.assertEqual(details.get("absent", []), [])

    def test_generator_is_deterministic(self):
        self.assertEqual(generate_wide_scenario(11), generate_wide_scenario(11))
        self.assertNotEqual(generate_wide_scenario(11), generate_wide_scenario(12))

    def test_corrupted_artifact_counts_as_failed(self):
        runner, _, _ = run.set_up("table2", 5, SCRATCH / "corrupt")
        runner.run_cycle()
        self.assertEqual(runner.failed, 0, runner.problems)
        sweep = next(op for op in runner.ops if op.name == "sweep")
        surface = runner.workload.artifact_dir / "surface.csv"
        original = sweep.call

        def call_then_corrupt():
            code = original()
            text = surface.read_text(encoding="utf-8")
            surface.write_text(text.replace("0.", "1.", 1), encoding="utf-8")
            return code

        sweep.call = call_then_corrupt
        runner.run_op(sweep, None)
        self.assertEqual(runner.failed, 1)
        self.assertIn("surface.csv", runner.problems[0])

    def test_missing_function_is_reported_absent(self):
        run.set_up("table2", 5, SCRATCH / "absent")
        tracer = spans.Tracer()
        saved = spans.WRAPPED
        spans.WRAPPED = saved + (("bcconf.cli", "no_such_function", "cli.no_such_function", None),)
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            spans.WRAPPED = saved
        self.assertEqual(tracer.absent, ["cli.no_such_function"])

    def test_refuses_to_run_without_the_package(self):
        bare = SCRATCH / "bare"
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = bench(bare, "table2", 0, script=bare / BENCH_DIR.name / "run.py")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
