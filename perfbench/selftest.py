"""Self-test of the benchmark on short runs (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that every correctness gate passes, that the exact counts repeat across
runs of one seed, that an injected oracle mismatch or a raising layer is
counted as a failed check instead of crashing, and that the benchmark
refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"][1:] + ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([sys.executable, *cmd], cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


class ShortRuns(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        for spec in SPEC["workloads"]:
            name = spec["name"]
            cls.runs[name] = [bench(name, 0), bench(name, 1), bench(name, 1)]

    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_every_named_metric_is_printed_with_its_unit(self):
        for name, procs in self.runs.items():
            for proc, kind in zip(procs, ("end_to_end", "per_layer", "per_layer")):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                prov, result = parse(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, expected, f"{name} {kind}")
                for value in result["metrics"].values():
                    self.assertIsInstance(value["value"], (int, float))
                self.assertEqual(prov["seed"], SEED)
                self.assertEqual(prov["traced"], kind == "per_layer")
                for key in ("commit", "python", "os_cpu_count", "nproc"):
                    self.assertIn(key, prov)
                self.assertEqual(set(prov["metrics"]), set(expected))

    def test_every_correctness_gate_passes(self):
        for name, procs in self.runs.items():
            for proc in procs:
                _, result = parse(proc)
                self.assertTrue(result["correct"], f"{name}: {proc.stderr}")
                self.assertEqual(result["failed"], 0, name)
                self.assertGreaterEqual(result["attempted"], 1, name)
            _, result = parse(procs[0])
            self.assertEqual(result["metrics"]["pass_ratio"]["value"], 1.0)

    def test_exact_counts_repeat_across_runs(self):
        for name, procs in self.runs.items():
            first, second = (parse(p)[1]["metrics"] for p in procs[1:])
            for count in run.COUNTS:
                self.assertEqual(first[count]["value"], second[count]["value"], f"{name} {count}")


class Failures(unittest.TestCase):
    def test_injected_oracle_mismatch_is_counted(self):
        census = dict(workloads.BUNDLED_CENSUS)
        flats, rows = census["octic"]
        census["octic"] = (flats + 1, rows)  # this test's own copy of the expected value
        tracer = Tracer(False)
        work = workloads.build_lattice(SEED, tracer, census=census)
        failures = run_ops(work.ops, tracer)
        self.assertEqual([f["op"] for f in failures], ["octic:classify"])

    def test_raising_layer_is_counted(self):
        def broken():
            raise AssertionError("fast/brute disagreement")

        failures = run_ops([("ok", lambda: True), ("broken", broken)], Tracer(True))
        self.assertEqual(failures, [{"op": "broken", "error": "AssertionError: fast/brute disagreement"}])

    def test_refuses_to_run_without_sources(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("lattice", 0, cwd=Path(bare))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
