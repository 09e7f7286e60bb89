#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload in both
modes (the ungated ingest_mixed included) must pass the correctness gate
and print every metric BENCHMARK.json names, with its unit, and nothing
else.

Run from the root of a checkout (builds the load generator on first use):

    python3 perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                result = bench(workload, trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    if section == "end_to_end":
                        self.assertGreater(m["value"], 0, name)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
