"""Tests of the benchmark itself: metric names, the host-speed scaling, the
correctness gate and its negative controls, and the traced run's exact
counts and coverage.

    python3 -m unittest perfbench/test_perfbench.py      # about 4 minutes

Kept out of the repository's pytest suite (testpaths = tests) because each
case runs whole workloads.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import speed  # noqa: E402

with open(os.path.join(HERE, "expected.json")) as f:
    EXPECTED = json.load(f)
SUITES = list(EXPECTED["sweep"])


def run_bench(*args: str, root: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=400,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


class BenchmarkFile(unittest.TestCase):
    def test_per_layer_names_match_the_tracer(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [m["name"] for m in bench["per_layer"]]
        self.assertEqual(names, layers.metric_names(SUITES))
        self.assertLessEqual(len(names), 128)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(set(bounds), {"wall_s", "setup_s", "peak_rss_mb"})
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_expected_sweep_has_29_verdicts(self):
        self.assertEqual(sum(len(v) for v in EXPECTED["sweep"].values()), 29)


class SpeedScaling(unittest.TestCase):
    def test_reference_s_takes_out_probe_time_and_scales_by_speed(self):
        ref = speed.REFERENCE_PROBE_S
        at_reference = {"probe_s": 0.5, "samples": [ref] * 20}
        self.assertAlmostEqual(speed.reference_s(10.5, at_reference, 1.0), 10.0)
        twice_as_fast = {"probe_s": 0.5, "samples": [ref / 2] * 20}
        self.assertAlmostEqual(speed.reference_s(5.5, twice_as_fast, 1.0), 10.0)
        # Half the time fast, half slow: the mean speed is the average speed.
        mixed = {"probe_s": 0.5, "samples": [ref / 2, ref] * 10}
        self.assertAlmostEqual(speed.reference_s(10.5, mixed, 1.0), 15.0)
        # A workload that follows none of the host's change is not scaled.
        self.assertAlmostEqual(speed.reference_s(5.5, twice_as_fast, 0.0), 5.0)

    def test_probe_samples_on_its_timer_until_stopped(self):
        probe = speed.Probe()
        probe.start()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        probe.stop()
        n = len(probe.summary()["samples"])
        self.assertGreaterEqual(n, 5)
        time.sleep(2 * speed.INTERVAL_S)
        self.assertEqual(len(probe.summary()["samples"]), n)


class NegativeControls(unittest.TestCase):
    def test_corrupted_map_fails_the_sweep(self):
        code, out = run_bench("--workload", "sweep", "--seed", "0", "--seconds", "1",
                              "--corrupt", "delta-alpha")
        result = last_json(out)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_tampered_enum_digest_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tampered = dict(EXPECTED, enum=dict(EXPECTED["enum"], sha256_12="0" * 64))
            path = os.path.join(tmp, "expected.json")
            with open(path, "w") as f:
                json.dump(tampered, f)
            code, out = run_bench("--workload", "enum", "--seed", "0", "--seconds", "1",
                                  "--expected", path)
        result = last_json(out)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_refuses_a_checkout_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, out = run_bench("--workload", "renorm", "--seed", "0", "--seconds", "1",
                                  root=tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(out, "")


class TracedRun(unittest.TestCase):
    def test_counts_repeat_and_self_times_sum_to_wall(self):
        for workload in ("renorm", "enum", "sweep"):
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, out = run_bench("--workload", workload, "--seed", "3",
                                          "--seconds", "1", "--trace", "1")
                    self.assertEqual(code, 0)
                    runs.append(last_json(out)["metrics"])
                first, second = runs
                self.assertEqual(list(first), layers.metric_names(SUITES))
                for name, metric in first.items():
                    if metric["unit"] == "count":
                        self.assertEqual(metric["value"], second[name]["value"], name)
                for metrics in runs:
                    wall = metrics["trace.wall_s"]["value"]
                    # other.self_s is defined as the wall time outside every
                    # wrapped call, so this sum holds by construction ...
                    total = sum(m["value"] for n, m in metrics.items() if n.endswith(".self_s"))
                    self.assertAlmostEqual(total, wall, places=6)
                    # ... and this is what shows that the wrappers cover the run.
                    other = metrics["other.self_s"]["value"]
                    self.assertGreaterEqual(other, 0.0)
                    self.assertLess(other, 0.02 * wall)


if __name__ == "__main__":
    unittest.main()
