#!/usr/bin/env python3
"""Self-tests of the repository benchmark, at the smoke size.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/test_perfbench.py

Checks that every workload prints every metric of BENCHMARK.json with
its unit in both modes, that a planted defect makes the correctness
gate fail, that per-layer counts repeat for a seed, and that the
command fails cleanly where the sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["grid", "fleet", "solo"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, *extra, seed=1, cwd=ROOT):
    """Run one smoke-size workload; (returncode, stdout lines, result)."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, lines, result


class SmokeRun(unittest.TestCase):
    def check_mode(self, workload, trace):
        table = BENCH["per_layer" if trace else "end_to_end"]
        rc, lines, result = run(workload, trace)
        self.assertEqual(rc, 0, "\n".join(lines[-20:]))
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in table])
        printed = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "metric":
                printed[parts[1]] = parts[3]
        for m in table:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        for word in ("ops", "failed_ops"):
            self.assertTrue(any(l.split()[:1] == [word] for l in lines), word)
        if not trace:
            for m in table:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])
            self.assertTrue(any(l.startswith("sink_samples ") for l in lines))
        return result

    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_mode(workload, trace)


class CorrectnessGate(unittest.TestCase):
    def test_planted_defect_fails_the_gate(self):
        # The reference stores drop their first insert: the program's
        # verdicts must then disagree with it somewhere.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines, result = run(workload, 0, "--plant-defect")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class Seeds(unittest.TestCase):
    def test_counts_repeat_for_a_seed(self):
        counts = [m["name"] for m in BENCH["per_layer"]
                  if m["unit"] in ("count", "B")]
        for workload in ("fleet", "solo"):
            with self.subTest(workload=workload):
                a = run(workload, 1, seed=7)[2]["metrics"]
                b = run(workload, 1, seed=7)[2]["metrics"]
                for name in counts:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)


class MissingSources(unittest.TestCase):
    def test_fails_without_the_program(self):
        # Only BENCHMARK.json and perfbench/: no sources to build.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines, result = run("grid", 0, cwd=tmp)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
