"""One iteration of one benchmark workload, in a fresh Python process.

Every memo cache of treehopf is module-global, so each CLI user pays to fill
them on every run; a fresh process per iteration measures that cost.  The
worker imports treehopf from ``src/`` of the checkout it sits in, stamps the
monotonic clock just before its first call into treehopf (the parent stamps
the spawn, which gives the set-up time), runs the workload through the CLI
entry point with stdout captured (the order-12 listing is only hashed),
checks every output, and prints one JSON line: wall time, peak RSS,
operations attempted and failed, cache sizes, coarse spans, the host speed
probed during set-up and (with --probe) during the workload, and, when
traced, the per-layer stats.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402  (path set above)
import speed  # noqa: E402

RINGS = (("scalar", 6), ("matrix", 5))
MATRIX_DIM = 4


class Run:
    """Operations checked and coarse spans of one workload iteration."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self._open = [0]

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans) + 1, self._open[-1], name, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class DigestWriter:
    """A stdout that hashes and counts lines as they are written.

    The order-12 listing goes through it, so it is never held in memory and
    the workload's peak RSS is the program's, not the harness's.
    """

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.lines = 0

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def call_cli(argv: list[str], out=None):
    """(exit code, stdout stream, exception text or None) of one CLI call.

    Stdout goes to `out`, a new StringIO unless given.
    """
    from treehopf import cli

    out = io.StringIO() if out is None else out
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        return None, out, f"{type(exc).__name__}: {exc}"
    return code, out, None


def sweep(run: Run, inputs: dict, expected: dict) -> None:
    """`treehopf check <suite>` for every suite of `check all`, in the given order."""
    corrupt = ["--corrupt", inputs["corrupt"]] if inputs.get("corrupt") else []
    for suite in inputs["suites"]:
        if run.tracer is not None:
            run.tracer.suite = suite
        with run.span(f"suite:{suite}"):
            code, out, err = call_cli(["check", suite, *corrupt])
        want = expected["sweep"][suite]
        got = out.getvalue().splitlines()
        for i in range(max(len(want), len(got))):
            line = got[i] if i < len(got) else None
            ok = err is None and code == 0 and i < len(want) and line == want[i]
            run.check(ok, f"{suite}: {line!r} (exit {code}, {err})")


def _all_zero(value) -> bool:
    if isinstance(value, list):
        return all(_all_zero(v) for v in value)
    return value == "0"


def renorm(run: Run, inputs: dict, expected: dict) -> None:
    """`treehopf renorm` JSON reports over a block of character seeds."""
    for seed in inputs["seeds"]:
        for ring, order in RINGS:
            argv = ["renorm", "--seed", str(seed), "--ring", ring, "--order", str(order),
                    "--d", str(MATRIX_DIM), "--format", "json"]
            with run.span(f"seed:{seed}:{ring}"):
                code, out, err = call_cli(argv)
            try:
                report = json.loads(out.getvalue())
            except ValueError:
                report = {}
            for which in ("photon", "electron"):
                part = report.get(which, {})
                residuals = part.get("per_order_residuals", {})
                ok = (
                    err is None
                    and code == 0
                    and report.get("status") == "ok"
                    and part.get("status") == "ok"
                    and len(residuals) == order + 1
                    and all(_all_zero(v) for v in residuals.values())
                )
                run.check(ok, f"seed {seed} {ring} {which}: exit {code}, {err}")


def enum(run: Run, inputs: dict, expected: dict) -> None:
    """Full order-12 listing, order-13 count, and order-12 round trips."""
    want = expected["enum"]
    with run.span("enum:list"):
        code, out, err = call_cli(["enum", "12"], DigestWriter())
    ok = err is None and code == 0
    run.check(ok and out.lines == want["count_12"], f"listing line count (exit {code}, {err})")
    digest = out.sha256.hexdigest()
    run.check(ok and digest == want["sha256_12"], f"listing digest {digest}")
    with run.span("enum:count"):
        code, out, err = call_cli(["enum", "13", "--count-only"])
    text = out.getvalue()
    run.check(err is None and code == 0 and text == f"{want['count_13']}\n", f"count-only {text!r}")
    with run.span("enum:roundtrip"):
        from treehopf import trees

        level = trees.enumerate_trees(12)
        for k in inputs["indices"]:
            try:
                t = level[k - 1]
                ok = trees.parse(trees.render(t)) is t and trees.parse(trees.tree_name(t)) is t
                detail = ""
            except Exception as exc:
                ok, detail = False, f": {type(exc).__name__}: {exc}"
            run.check(ok, f"round trip of tree {k} of order 12{detail}")


WORKLOADS = {"sweep": sweep, "renorm": renorm, "enum": enum}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--inputs", required=True, help="JSON object of generated inputs")
    p.add_argument("--expected", required=True, help="JSON file of expected outputs")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true", help="stop before the first call")
    p.add_argument("--probe", action="store_true", help="probe the host speed while the workload runs")
    before = speed.burst()
    args = p.parse_args()
    inputs = json.loads(args.inputs)
    with open(args.expected) as f:
        expected = json.load(f)
    import treehopf  # noqa: F401  (import time is part of set-up)

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    after = speed.burst()
    t_first = time.monotonic()
    setup_probe = {"probe_s": before["probe_s"] + after["probe_s"],
                   "samples": before["samples"] + after["samples"]}
    if args.setup_only:
        print(json.dumps({"t_first": t_first, "setup_probe": setup_probe}))
        return 0
    run = Run(tracer)
    probe = speed.Probe() if args.probe else None
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    with run.span(args.workload):
        WORKLOADS[args.workload](run, inputs, expected)
    if probe is not None:
        probe.stop()
    wall_s = time.perf_counter() - start
    result = {
        "t_first": t_first,
        "setup_probe": setup_probe,
        "wall_s": wall_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": run.attempted,
        "failures": run.failures,
        "caches": layers.cache_sizes(),
        "spans": run.spans,
        "probe": probe.summary() if probe is not None else None,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
