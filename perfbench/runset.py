#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the run set.

    python3 perfbench/runset.py --seeds 1-10 --out perfbench/trajectory/x.json

Every workload of BENCHMARK.json runs for its run_seconds.

Workloads are interleaved: round i runs every workload once for seed i, in an
order rotated by i, so a slow spell of the machine does not land on one
workload only.  Before each run a fixed pure-Python Fraction loop is timed
and the 1-minute load average read, as a record of machine speed; neither is
gated.  The summary gives, per workload and end-to-end metric, the median,
the quartiles of statistics.quantiles(n=4) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json, and the
fail_ratio (failed / attempted operations).  --out writes every result and
the environment (CPU count, Python, platform, commit) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fraction_loop(n: int = 50_000) -> float:
    """Seconds for a fixed exact-arithmetic loop, the kind of work treehopf does."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(n):
        acc += Fraction(i % 7 - 3, 1 + i % 5)
    return time.perf_counter() - start


def parse_seeds(text: str) -> list[int]:
    span = re.fullmatch(r"(-?\d+)-(-?\d+)", text)
    if span:
        return list(range(int(span.group(1)), int(span.group(2)) + 1))
    return [int(s) for s in text.split(",")]


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    record = {"workload": workload, "seed": seed, "loop_s": fraction_loop(),
              "load1": os.getloadavg()[0]}
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    record["run_s"] = time.monotonic() - start
    record["exit"] = proc.returncode
    try:
        record["result"] = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        record["result"] = None
        record["stderr"] = proc.stderr[-2000:]
    return record


def summarize(records: list[dict], bench: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        results = [r["result"] for r in runs if r["result"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        row = {"runs": len(runs), "attempted": attempted, "failed": failed,
               "fail_ratio": failed / attempted if attempted else None,
               "loop_s": [round(r["loop_s"], 4) for r in runs], "metrics": {}}
        names = dict.fromkeys(n for r in results for n in r["metrics"])
        print(f"{workload}: {len(runs)} runs, fail_ratio {failed}/{attempted}, "
              f"Fraction loop {min(row['loop_s']):.3f}-{max(row['loop_s']):.3f} s")
        for name in names:
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            unit = next(r["metrics"][name]["unit"] for r in results if name in r["metrics"])
            stats = {"values": values, "median": statistics.median(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                stats.update(q1=q1, q3=q3, spread=(q3 - q1) / stats["median"] if stats["median"] else None)
            row["metrics"][name] = stats
            if name in bounds and "spread" in stats:
                print(f"  {name:<12} median {stats['median']:.4f} {unit}  q1 {stats['q1']:.4f}"
                      f"  q3 {stats['q3']:.4f}  spread {stats['spread']:.4f}  bound {bounds[name]}")
        summary[workload] = row
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,9'")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the run set as JSON here")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    env = environment()
    print(f"environment: {json.dumps(env)}")
    records = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        k = i % len(workloads)
        for workload in workloads[k:] + workloads[:k]:
            r = run_one(workload, seed, seconds, args.trace)
            res = r["result"] or {}
            shown = {n: round(m["value"], 4) for n, m in res.get("metrics", {}).items()} if not args.trace else {}
            print(f"seed {seed} {workload}: exit {r['exit']} correct {res.get('correct')} "
                  f"loop {r['loop_s']:.3f} s load {r['load1']:.2f} run {r['run_s']:.1f} s {shown}",
                  flush=True)
            records.append(r)
    summary = summarize(records, bench)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"environment": env, "seconds": seconds, "trace": args.trace,
                       "runs": records, "summary": summary}, f, indent=1)
            f.write("\n")
    return 0 if all(r["exit"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
