#!/usr/bin/env python3
"""treehopf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Workloads (each iteration is a fresh process, see worker.py):
  sweep   `treehopf check all` at the default orders, serial, suite by suite
          in an order the seed permutes;
  renorm  `treehopf renorm` JSON reports over a block of consecutive
          character seeds chosen by the seed: scalar ring at order 6 and
          4x4 matrices at order 5;
  enum    `treehopf enum 12` (full listing), `treehopf enum 13 --count-only`,
          and a seeded round trip of order-12 trees through render, parse and
          tree_name.

With --trace 0 the run spawns a few set-up-only processes and one whole
iteration, again and again while the next would end within --seconds, and
reports the end-to-end metrics: median wall_s, median setup_s, median
peak_rss_mb.  wall_s and setup_s are scaled to a fixed host speed, probed
while they run (speed.py); the raw medians are printed next to them.  With
--trace 1 it runs one untraced and one traced iteration and reports the
per-layer metrics of layers.py.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 1 when any operation failed, 2 when the checkout holds no treehopf.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)

import layers  # noqa: E402  (path set above)
import speed  # noqa: E402
from worker import RINGS  # noqa: E402

# Set-up-only processes before each untraced iteration.  One spawn takes
# about 0.1 s and the machine's speed drifts within seconds, so the median
# rests on many samples spread over the whole run.
SETUP_SPAWNS = 15
RENORM_BLOCK = 4  # character seeds per renorm iteration
ROUND_TRIPS = 200  # order-12 trees per enum iteration, one from each equal stratum
DEADLINE_S = 170  # every process is stopped by then; a run must end within 180 s


def make_inputs(workload: str, seed: int, expected: dict) -> dict:
    """The generated inputs of one workload: the same seed, the same inputs."""
    rng = random.Random(seed)
    if workload == "sweep":
        suites = list(expected["sweep"])
        rng.shuffle(suites)
        return {"suites": suites}
    if workload == "renorm":
        return {"seeds": list(range(seed * RENORM_BLOCK, (seed + 1) * RENORM_BLOCK))}
    # tree_name scans the level linearly, so one index per stratum keeps the
    # work of the round trip nearly the same for every seed.
    n = expected["enum"]["count_12"]
    return {"indices": [rng.randint(i * n // ROUND_TRIPS + 1, (i + 1) * n // ROUND_TRIPS)
                        for i in range(ROUND_TRIPS)]}


def planned_ops(workload: str, inputs: dict, expected: dict) -> int:
    """Operations an iteration attempts, charged as failed when it crashes."""
    if workload == "sweep":
        return sum(len(lines) for lines in expected["sweep"].values())
    if workload == "renorm":
        return 2 * len(RINGS) * len(inputs["seeds"])
    return 3 + len(inputs["indices"])


class Spawner:
    """Runs worker processes, each waited for and killed at the deadline."""

    def __init__(self, workload: str, inputs: dict, expected_path: str, deadline: float):
        self.argv = [sys.executable, "-I", WORKER, workload,
                     "--inputs", json.dumps(inputs), "--expected", expected_path]
        self.deadline = deadline

    def __call__(self, *flags: str) -> dict | None:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(self.argv + list(flags), cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker {' '.join(flags)} stopped at the deadline", file=sys.stderr)
            return None
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            print(f"worker {' '.join(flags)} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        result["setup_raw_s"] = result["t_first"] - t_spawn
        result["setup_s"] = speed.reference_s(result["setup_raw_s"], result["setup_probe"],
                                               speed.SETUP_ELASTICITY)
        return result


def _median_line(name: str, unit: str, values: list[float]) -> str:
    return (f"  {name:<12} {statistics.median(values):.4f} {unit}"
            f"  (median of {len(values)}, min {min(values):.4f}, max {max(values):.4f})")


def measure(spawn: Spawner, seconds: float, planned: int):
    """Untraced run: end-to-end metrics, attempted and failed operations."""
    start = time.monotonic()
    setups, raw_setups, iterations, attempted, failed = [], [], [], 0, 0
    while True:
        t0 = time.monotonic()
        for _ in range(SETUP_SPAWNS):
            r = spawn("--setup-only")
            if r is None:
                return {}, attempted + planned, failed + planned
            setups.append(r["setup_s"])
            raw_setups.append(r["setup_raw_s"])
        r = spawn("--probe")
        if r is None:
            attempted, failed = attempted + planned, failed + planned
            break
        iterations.append(r)
        attempted += r["attempted"]
        failed += len(r["failures"])
        for what in r["failures"][:10]:
            print(f"FAILED {what}")
        last = time.monotonic() - t0
        now = time.monotonic()
        if now - start + last > seconds or now + last > spawn.deadline:
            break
    if not iterations:
        return {}, attempted, failed
    raw_walls = [r["wall_s"] for r in iterations]
    walls = [speed.reference_s(r["wall_s"], r["probe"], speed.WALL_ELASTICITY) for r in iterations]
    setups += [r["setup_s"] for r in iterations]
    raw_setups += [r["setup_raw_s"] for r in iterations]
    rss = [r["rss_kb"] / 1024 for r in iterations]
    print(_median_line("wall_s", "s", walls))
    print(_median_line("setup_s", "s", setups))
    print(_median_line("raw wall_s", "s", raw_walls))
    print(_median_line("raw setup_s", "s", raw_setups))
    print(_median_line("peak_rss_mb", "MB", rss))
    print(f"  caches       {json.dumps(iterations[-1]['caches'])}")
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    return metrics, attempted, failed


def trace(spawn: Spawner, suites: list[str], planned: int):
    """Traced run: one untraced and one traced iteration, per-layer metrics."""
    plain = spawn()
    traced = spawn("--trace") if plain is not None else None
    if traced is None:
        return {}, 2 * planned, 2 * planned
    runs = (plain, traced)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    for r in runs:
        for what in r["failures"][:10]:
            print(f"FAILED {what}")
    metrics, missing = layers.layer_metrics(
        traced["trace"], traced["caches"], traced["spans"], suites,
        traced["wall_s"], plain["wall_s"])
    if missing:
        print(f"  missing from this treehopf: {', '.join(missing)}")
    print(f"  spans        {json.dumps(traced['spans'])}")
    return metrics, attempted, failed


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("sweep", "renorm", "enum"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", default=None,
                   help="negative control: sweep with this structure map corrupted")
    p.add_argument("--expected", default=EXPECTED,
                   help="JSON file of expected outputs (the negative control tampers with it)")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "treehopf", "__init__.py")):
        print(f"no treehopf sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    with open(args.expected) as f:
        expected = json.load(f)
    inputs = make_inputs(args.workload, args.seed, expected)
    if args.corrupt:
        inputs["corrupt"] = args.corrupt
    planned = planned_ops(args.workload, inputs, expected)
    spawn = Spawner(args.workload, inputs, args.expected, deadline)
    if spawn("--setup-only") is None:  # warm-up: byte-compiles the sources
        return 2
    shown = {k: f"{len(v)} values" if isinstance(v, list) and len(v) > 16 else v
             for k, v in inputs.items()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(shown)}")
    if args.trace:
        metrics, attempted, failed = trace(spawn, list(expected["sweep"]), planned)
    else:
        metrics, attempted, failed = measure(spawn, args.seconds, planned)
    print(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.6g}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
