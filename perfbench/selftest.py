"""Self-tests of the benchmark at minimal length (about four minutes).

Run from the repository root::

    python3 perfbench/selftest.py            # all
    python3 perfbench/selftest.py -k verify  # one workload

Each workload must print every metric named in BENCHMARK.json with its
unit, report no failures on the seed program, and record the spans of the
layers it exercises.  A deliberately wrong expected value must be counted
as a failure.  Nothing here is collected by pytest.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from candidates import BATCH, candidate_specs  # noqa: E402
from run import TRACE_BATCHES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PRIMES = ("2147483629", "2147483647")

#: Per-layer metrics that must be positive on each workload's traced run.
EXERCISED = {
    "verify12": [
        "subsets.fcurve_block_arrays_s", "divisors.relation_system_s",
        "divisors.reduce_canonical_s", "pairing.pairing_values_s", "cone.fnef_check_s",
    ],
    "extremal12": [
        "subsets.fcurve_block_arrays_s", "divisors.relation_system_s",
        "pairing.pairing_values_s", "cone.fnef_check_s", "cone.extremality_rank_s",
        *(f"cone.{m}.{p}" for p in PRIMES for m in ("rank_s", "rows_fed")),
    ],
    "pullback13": [
        "subsets.fcurve_block_arrays_s", "divisors.eliminate_psi_s",
        "divisors.pullback_forgetful_s", "pairing.pairing_values_s",
        "cone.fnef_check_s", "cone.projection_formula_s",
    ],
    "candidates12": [
        "subsets.fcurve_block_arrays_s", "divisors.relation_system_s",
        "divisors.reduce_canonical_s", "pairing.pairing_values_s", "cone.fnef_check_s",
    ],
}


def bench(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    """Run one workload for 1 second; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


class WorkloadTests(unittest.TestCase):
    def run_workload(self, workload: str) -> None:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench(workload, 2 + trace, trace)
            self.assertEqual(code, 0)
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            units = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, units)
            for name, metric in result["metrics"].items():
                self.assertIsInstance(metric["value"], (int, float), name)
            if trace:
                self.check_layers(workload, result["metrics"], json.loads(lines[-2])["report"])

    def check_layers(self, workload: str, metrics: dict, report_path: str) -> None:
        value = {k: v["value"] for k, v in metrics.items()}
        for name in EXERCISED[workload]:
            self.assertGreater(value[name], 0, name)
        self.assertEqual(value["trace.absent"], 0)
        report = json.loads((ROOT / report_path).read_text(encoding="utf-8"))
        self.assertEqual(report["seed"], 3)
        self.assertEqual(set(report["environment"]), {
            "nproc", "cpu_model", "python", "numpy", "blas", "threads",
            "git_commit", "source_sha256", "cpu_affinity",
        })
        spans = json.loads((ROOT / report["samples"]["spans_file"]).read_text(encoding="utf-8"))
        for span in spans["spans"]:
            self.assertLessEqual(span["start"], span["end"])
            self.assertGreater(span["peak_rss_mb"], 0)
        if workload == "extremal12":
            for p in PRIMES:
                self.assertEqual(value[f"cone.rank.{p}"], 1980)
            rank_s = sum(value[f"cone.rank_s.{p}"] for p in PRIMES)
            self.assertGreater(rank_s, 0.5 * report["samples"]["traced_wall_s"])
        if workload == "pullback13":
            self.assertEqual(value["subsets.rows"], 2532530)
        if workload == "candidates12":
            self.assertEqual(value["pairing.calls"], TRACE_BATCHES * BATCH)

    def test_verify12(self):
        self.run_workload("verify12")

    def test_pullback13(self):
        self.run_workload("pullback13")

    def test_candidates12(self):
        self.run_workload("candidates12")

    def test_extremal12(self):
        self.run_workload("extremal12")


class GateTests(unittest.TestCase):
    def test_seeded_generator(self):
        self.assertEqual(candidate_specs(5, 0, 30), candidate_specs(5, 0, 30))
        self.assertEqual(sum("relation" in s for s in candidate_specs(5, 3)), BATCH // 3)
        self.assertNotEqual(candidate_specs(5, 0, 30), candidate_specs(6, 0, 30))
        self.assertNotEqual(candidate_specs(5, 0, 30), candidate_specs(5, 1, 30))
        specs = candidate_specs(5, 0, 30)
        self.assertEqual(sum("relation" in s for s in specs), 10)
        for spec in specs:
            self.assertEqual(sorted(spec["perm"]), list(range(1, 13)))

    def test_wrong_expected_value_fails_cli(self):
        code, lines = bench("verify12", 1, 0, "--expect", "fnef.zero_count=124367")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_wrong_expected_value_fails_candidates(self):
        code, lines = bench("candidates12", 1, 0, "--expect", "oracle=1")
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        # the warm-up batch and at least one timed batch
        self.assertGreaterEqual(result["attempted"], 2 * BATCH)

    def test_fails_without_program(self):
        bare = HERE / "results" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        try:
            code, lines = bench("verify12", 1, 0, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
