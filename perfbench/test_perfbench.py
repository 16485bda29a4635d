#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout (builds the benchmark first if needed):

    python3 perfbench/test_perfbench.py
"""

import json
import pathlib
import subprocess
import sys
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BINARY = None
RESULTS = {}


def binary():
    global BINARY
    if BINARY is None:
        BINARY = bench.build()
        if BINARY is None:
            raise RuntimeError("benchmark build failed")
    return BINARY


def invoke(*args):
    return subprocess.run(
        [str(binary()), *args, "--out-dir", str(bench.build_root() / "perfbench-test")],
        capture_output=True, text=True, timeout=170, cwd=str(BENCH_DIR.parent))


def result(workload, trace, *extra):
    """Last-line JSON of a short run, memoised per arguments."""
    key = (workload, trace, extra)
    if key not in RESULTS:
        proc = invoke("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), *extra)
        RESULTS[key] = (proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]))
    return RESULTS[key]


def metrics(workload, trace):
    code, out = result(workload, trace)
    if code != 0 or not out["correct"]:
        raise AssertionError(f"{workload} trace {trace} failed: {out}")
    return {name: m["value"] for name, m in out["metrics"].items()}


class GeneratorTest(unittest.TestCase):
    def dump(self, workload, seed):
        proc = invoke("--workload", workload, "--seed", str(seed), "--dump-queries", "3000")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_same_seed_same_queries_other_seed_other_queries(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.dump(workload, 7)
                self.assertEqual(len(first.splitlines()), 3000)
                self.assertEqual(first, self.dump(workload, 7))
                self.assertNotEqual(first, self.dump(workload, 8))


class MetricNamesTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, out = result(workload, trace)
                    got = {name: m["unit"] for name, m in out["metrics"].items()}
                    self.assertEqual(got, want)


class LayerStressTest(unittest.TestCase):
    def test_st_distinct_bypasses_the_caches(self):
        m = metrics("st-distinct", 1)
        self.assertEqual(m["workload.repeat_share"], 0.0)
        self.assertLess(m["engine.result_hit_share"], 0.01)
        self.assertGreater(m["engine.executed_share"], 0.99)

    def test_mixed_zipf_is_served_mostly_without_compute(self):
        m = metrics("mixed-zipf", 1)
        self.assertGreater(m["workload.repeat_share"], 0.5)
        self.assertLess(m["engine.executed_share"], 0.5)
        self.assertGreater(m["engine.result_hit_share"], 0.5)

    def test_bfs_restart_restores_and_is_prepare_bound(self):
        m = metrics("bfs-restart", 1)
        self.assertEqual(m["persist.snapshot_restored"], 1.0)
        self.assertGreater(m["persist.journal_bytes"], 0.0)
        self.assertGreater(m["reliability.prepare_busy_share"], 0.5)


class SliceTest(unittest.TestCase):
    def test_untraced_run_reports_figures_over_slices(self):
        proc = invoke("--workload", "mixed-zipf", "--seed", "3", "--seconds", "3",
                      "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        printed = {line.split()[1]: float(line.split()[2])
                   for line in proc.stdout.splitlines() if line.startswith("metric ")}
        # Slices of at least 1 s: two or three in a 3 s phase.
        self.assertIn(printed["slices"], (2.0, 3.0))
        # The slices' upper quartile sits near the whole phase's average.
        self.assertLess(abs(printed["qps"] / printed["qps_whole_phase"] - 1), 0.5)


class OracleTest(unittest.TestCase):
    def test_accurate_answers_pass(self):
        code, out = result("st-distinct", 0)
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)

    def test_biased_answers_fail_the_run(self):
        code, out = result("st-distinct", 0, "--perturb-answers", "0.05")
        self.assertNotEqual(code, 0)
        self.assertFalse(out["correct"])
        self.assertGreater(out["metrics"]["err_ratio"]["value"], 2.0)

    def test_budget_cut_fails_the_run(self):
        # The engine samples a tenth of the workload's budget; the oracle
        # still judges it at the workload's budget.
        code, out = result("st-distinct", 0, "--engine-samples", "100")
        self.assertNotEqual(code, 0)
        self.assertFalse(out["correct"])
        self.assertGreater(out["metrics"]["err_ratio"]["value"], 2.0)


if __name__ == "__main__":
    unittest.main()
