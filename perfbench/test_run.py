#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_run.py

A short mode of each workload (a near-zero time budget, so each run
measures the minimum op count) runs every output check; the tests assert
that every metric named in BENCHMARK.json is printed, that runs are
deterministic per seed, and that the traced rerun reproduces the untraced
run's output.  About two minutes on a 2-core host.
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
RUN = os.path.join(HERE, "run.py")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "fvnbench.exe")
WORKLOADS = ("churn", "converge", "verify")
SHORT = "0.05"  # seconds: every run still measures the minimum op count

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_py(workload, trace, seed=1, env=None, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", SHORT, "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def exe(workload, seed, ops, *extra):
    r = subprocess.run(
        [EXE, workload, "--seed", str(seed), "--seconds", SHORT, "--ops", str(ops), *extra],
        capture_output=True, text=True, timeout=600,
    )
    return r


class Workloads(unittest.TestCase):
    def check_result(self, r, names):
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), names)
        for name in names:
            m = result["metrics"][name]
            self.assertIsInstance(m["value"], (int, float))
            self.assertIn(f"{name} = ", r.stdout)
        self.assertIn("failed_share = 0 ", r.stdout)
        return result, r.stdout

    def test_end_to_end_metrics(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = self.check_result(run_py(w, 0), names)
                for name in names:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_per_layer_metrics(self):
        # The traced rerun must reproduce the untraced run's digest
        # (verify: every per-query state count and verdict), or run.py
        # reports the run as incorrect.
        names = [m["name"] for m in SPEC["per_layer"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, out = self.check_result(run_py(w, 1), names)
                self.assertIn("traced rerun: ", out)
                self.assertGreater(result["metrics"]["trace.residual_share"]["value"], 0)

    def test_same_seed_same_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = (exe(w, 5, 1_100) for _ in range(2))
                for r in (a, b):
                    self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                da, db = (json.loads(r.stdout.strip().splitlines()[-1]) for r in (a, b))
                self.assertEqual(da["failed"], 0)
                self.assertEqual(da["digest"], db["digest"])

    def test_seed_varies_inputs(self):
        a, b = (exe("churn", s, 1_100) for s in (5, 6))
        da, db = (json.loads(r.stdout.strip().splitlines()[-1]) for r in (a, b))
        self.assertNotEqual(da["digest"], db["digest"])

    def test_too_few_samples_for_tail(self):
        r = exe("churn", 1, 100)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("samples beyond it", r.stderr)


class Refusals(unittest.TestCase):
    def test_oracle_switch_refused(self):
        env = dict(os.environ, FVN_TUPLE_IDS="0")
        r = run_py("churn", 0, env=env)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")
        self.assertIn("FVN_TUPLE_IDS", r.stderr)

    def test_no_sources_refused(self):
        scratch = os.path.join(ROOT, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(
                HERE, os.path.join(d, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            r = run_py("churn", 0, cwd=d, script=os.path.join(d, "perfbench", "run.py"))
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
