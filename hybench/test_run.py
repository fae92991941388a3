#!/usr/bin/env python3
"""The benchmark's own test.

  python3 hybench/test_run.py

Checks the compare-mode verdict rule on synthetic runs, that
BENCHMARK.json agrees with itself, and — through `run.py --smoke` — that
every workload runs at a tiny size and prints each declared metric with its
unit (so a renamed or missing metric fails fast).
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def runs(values, first_seed=1):
    return [(first_seed + i, v) for i, v in enumerate(values)]


class VerdictTest(unittest.TestCase):
    base = runs([10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0])

    def test_clear_gain_is_better(self):
        cand = runs([v * 0.8 for _, v in self.base])
        self.assertEqual(run.verdict("lower", 0.1, self.base, cand), "better")

    def test_small_shift_is_no_worse(self):
        cand = runs([v * 1.02 for _, v in self.base])
        self.assertEqual(run.verdict("lower", 0.1, self.base, cand), "no worse")

    def test_large_loss_is_worse(self):
        cand = runs([v * 1.3 for _, v in self.base])
        self.assertEqual(run.verdict("lower", 0.1, self.base, cand), "worse")

    def test_higher_is_better_direction(self):
        cand = runs([v * 1.3 for _, v in self.base])
        self.assertEqual(run.verdict("higher", 0.1, self.base, cand), "better")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = runs([5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0])
        cand = runs([v * 1.05 for _, v in noisy])
        self.assertEqual(run.verdict("lower", 0.1, noisy, cand), "unresolved")

    def test_pairs_match_by_seed(self):
        # Same values, reversed seed order: paired by seed they tie.
        cand = list(reversed(self.base))
        self.assertEqual(run.verdict("lower", 0.1, self.base, cand), "no worse")


class SpecTest(unittest.TestCase):
    def test_spec_shape(self):
        spec = run.load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class SmokeTest(unittest.TestCase):
    def test_smoke(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--smoke"], capture_output=True, text=True,
                              timeout=1200)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.count(" ok\n"), 2 * len(run.WORKLOADS),
                         proc.stdout)


if __name__ == "__main__":
    unittest.main()
