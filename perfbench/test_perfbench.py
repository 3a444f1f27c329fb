#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

  python3 perfbench/test_perfbench.py

Each workload runs briefly and passes; a planted wrong expected verdict
and a planted wrong state count each make the run fail; two runs with the
same seed print the same input fingerprint and byte-identical
approx_corpus outputs.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")
WORKLOADS = ["serve_small", "batch_large", "approx_corpus"]


def run(workload, seed=7, trace=0, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), *extra]
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else None
    return result.returncode, report, result.stderr


def fingerprint(stderr):
    for line in stderr.splitlines():
        if line.strip().startswith("inputs "):
            return line.split()[1].rstrip(",")
    return None


class WorkloadTest(unittest.TestCase):
    def test_every_workload_passes_with_all_end_to_end_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = {m["name"] for m in json.load(f)["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, report, stderr = run(workload)
                self.assertEqual(code, 0, stderr)
                self.assertTrue(report["correct"])
                self.assertEqual(report["failed"], 0)
                self.assertGreater(report["attempted"], 0)
                self.assertEqual(set(report["metrics"]), names)
                for metric in report["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_prints_every_per_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = {m["name"] for m in json.load(f)["per_layer"]}
        code, report, stderr = run("approx_corpus", trace=1)
        self.assertEqual(code, 0, stderr)
        self.assertEqual(set(report["metrics"]), names)
        metrics = report["metrics"]
        self.assertGreaterEqual(metrics["trace.approx_coverage"]["value"], 0.9)
        self.assertGreaterEqual(metrics["trace.batch_coverage"]["value"], 0.9)


class PlantedFaultTest(unittest.TestCase):
    def assert_fails(self, workload, plant):
        code, report, stderr = run(workload, extra=("--plant", plant))
        self.assertNotEqual(code, 0)
        self.assertFalse(report["correct"])
        self.assertGreater(report["failed"], 0)
        self.assertIn("FAILED", stderr)

    def test_wrong_expected_verdict_fails_serve_small(self):
        self.assert_fails("serve_small", "verdict")

    def test_wrong_expected_verdict_fails_batch_large(self):
        self.assert_fails("batch_large", "verdict")

    def test_wrong_state_count_fails_approx_corpus(self):
        self.assert_fails("approx_corpus", "states")


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_outputs(self):
        os.makedirs(SCRATCH, exist_ok=True)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                prints = []
                dumps = []
                for i in range(2):
                    dump = os.path.join(SCRATCH, f"{workload}.{i}.txt")
                    if os.path.exists(dump):
                        os.remove(dump)
                    code, _, stderr = run(workload, extra=("--dump", dump))
                    self.assertEqual(code, 0, stderr)
                    prints.append(fingerprint(stderr))
                    if os.path.exists(dump):
                        with open(dump, "rb") as f:
                            dumps.append(f.read())
                self.assertIsNotNone(prints[0])
                self.assertEqual(prints[0], prints[1])
                if workload == "approx_corpus":
                    self.assertEqual(len(dumps), 2)
                    self.assertGreater(len(dumps[0]), 0)
                    self.assertEqual(dumps[0], dumps[1])

    def test_different_seed_different_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, first = run(workload, seed=1)
                _, _, second = run(workload, seed=2)
                self.assertNotEqual(fingerprint(first), fingerprint(second))


if __name__ == "__main__":
    unittest.main()
