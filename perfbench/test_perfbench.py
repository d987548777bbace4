#!/usr/bin/env python3
"""Self-test of the benchmark: smoke runs of every workload.

    python3 perfbench/test_perfbench.py

Checks, with --smoke (three Fig. 5 experiments, the 12-point smoke
sweep, nab for the time-parallel run):
  * BENCHMARK.json has the keys and limits the runner relies on;
  * every workload runs with --trace 0 and --trace 1, exits 0, prints
    every metric of the mode by name with its BENCHMARK.json unit, and
    ends with a result line that parses as JSON with exactly the keys
    correct, attempted, failed and metrics, with failed == 0;
  * --corrupt-digest (one reference PICS digest flipped) makes the
    check fire: failed > 0, ok_ratio < 1, correct false, nonzero exit.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


class BenchmarkSpec(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")


class SmokeRuns(unittest.TestCase):
    def check_mode(self, workload, trace):
        proc, lines, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        text = "\n".join(lines[:-1])
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(text, rf"metric {re.escape(m['name'])} = "
                                   rf"\S+ {re.escape(m['unit'])} ")
        self.assertIn('"release": true', text)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_mode(w["name"], trace)

    def test_corrupted_digest_fails(self):
        proc, _, result = run("fig5-warm", 0, "--corrupt-digest")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
