#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, in both modes, emits
every metric named in BENCHMARK.json, finite and with its unit, and
passes its output check.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class Smoke(unittest.TestCase):
    def check(self, trace, expected):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, lines = run(w["name"], trace)
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), {m["name"] for m in expected})
                for m in expected:
                    got = metrics[m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float), m["name"])
                    self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])

    def test_bad_arguments_fail_without_a_result(self):
        code, lines = run("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
