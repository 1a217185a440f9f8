#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json's shape, the result line's
schema, the presence of every named metric on every workload, and the
determinism of the generated inputs.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py on first use (about a minute), then runs
each workload briefly in both modes.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, seed, seconds, trace, *extra):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def input_hash(workload, seed):
    done = run(workload, seed, 1, 0, "--inputs-only")
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


class BenchmarkJson(unittest.TestCase):
    def test_keys_names_and_bounds(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            first = input_hash(workload, 7)
            self.assertEqual(first, input_hash(workload, 7), workload)
            self.assertNotEqual(first, input_hash(workload, 8), workload)


class ResultLine(unittest.TestCase):
    def check(self, trace, metrics):
        expected = {m["name"]: m["unit"] for m in metrics}
        for workload in WORKLOADS:
            done = run(workload, 3, 2, trace)
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertIs(result["correct"], True)
            self.assertEqual(result["failed"], 0)
            self.assertIsInstance(result["attempted"], int)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]), set(expected), workload)
            for name, metric in result["metrics"].items():
                self.assertEqual(set(metric), {"value", "unit"})
                self.assertEqual(metric["unit"], expected[name], name)
                self.assertTrue(math.isfinite(metric["value"]), name)
                if trace == 0:
                    self.assertGreater(metric["value"], 0, (workload, name))
            if trace == 1:
                trace_file = os.path.join(ROOT, ".bench_out",
                                          "%s-3-trace1" % workload, "trace.json")
                with open(trace_file) as f:
                    self.assertIn("traceEvents", json.load(f))

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
