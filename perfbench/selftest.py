"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Tiny-size runs of every workload emit every metric BENCHMARK.json names; a
planted wrong answer shows up as failed ops; another seed changes the
inputs but not the metric names; without the flagq sources the benchmark
exits nonzero and prints no result.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tiny(workload: str, seed: int, trace: int) -> dict:
    proc = cli_run("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                   "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_on_every_workload(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    result = tiny(w["name"], 3, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_other_seed_changes_inputs_not_metric_names(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(workloads.deck(w, 1, 0), workloads.deck(w, 2, 0))
        a, b = tiny("qh-queries", 1, 0), tiny("qh-queries", 2, 0)
        self.assertEqual(set(a["metrics"]), set(b["metrics"]))


class PlantedBug(unittest.TestCase):
    def test_dropped_term_fails(self):
        def drop_a_term():
            engine = sys.modules["flagq.qhring"].RingEngine
            product = engine.product

            def wrong(self, u, v):
                out = product(self, u, v)
                out.pop(min(out), None)
                return out

            engine.product = wrong

        with contextlib.redirect_stderr(io.StringIO()):
            result = run.run("qh-queries", 3, 0.2, trace=False, tiny=True,
                             after_import=drop_a_term)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class Harness(unittest.TestCase):
    def test_hook_matches_flagq(self):
        from flagq import weyl

        for n in range(2, 7):
            for m in range(1, n):
                self.assertEqual(workloads.hook(n, m), weyl.hook(n, m))

    def test_without_sources_exits_nonzero(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = cli_run("--workload", "sweeps", "--seed", "1", "--seconds", "1",
                           cwd=Path(bare))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    unittest.main()
