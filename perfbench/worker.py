"""Benchmark worker: one process runs one workload, pass after pass.

Started by `run.py`, never by hand: the worker imports fhsim from the
`src/` directory next to this one, prepares the workload's inputs from
the seed, prints `ready` (the parent times set-up up to that line), then
runs passes until `--seconds` is spent. Its last stdout line is a JSON
object with the operation counts and what it measured. With
`--setup-only` it exits after `ready`.

`--trace 0`: untraced passes only; reports each pass's host time and
work, and its peak RSS. Before the first pass and after every pass it
prints `calibrate` and waits for the parent's `go`.
`--trace 1`: untraced and traced passes alternate; reports the per-layer
metrics, the tracing overhead, and writes the spans of every traced pass
to `.perfbench/spans-<workload>-<seed>.jsonl` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def import_fhsim():
    sys.path.insert(0, SRC)
    import fhsim

    if not os.path.abspath(fhsim.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"fhsim imported from {fhsim.__file__}, not from {SRC}")


class Runner:
    """Runs passes of one workload and keeps the correctness tally."""

    def __init__(self, name: str, seed: int):
        import workloads

        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.workload = workloads.WORKLOADS[name]
        self.expected = workloads.expected_digests(name, seed)
        self.inputs = self.workload.prepare(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self):
        """Run one pass in a fresh output directory; None if it raised."""
        out_dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT)
        gc.collect()  # start every pass from a collected heap
        try:
            result = self.workload.run_pass(self.inputs, out_dir)
        except Exception as exc:  # an fhsim failure is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.expected is None:
            # Seed without recorded digests: every pass must repeat the first.
            self.expected = result.digests
        self.attempted += result.attempted
        self.count(result.problems + self.workloads.digest_problems(self.expected, result.digests))
        return result

    def count(self, problems: list[str]) -> None:
        """Each problem is one failed operation."""
        self.failed = min(self.attempted, self.failed + len(problems))
        self.problems.extend(problems)


def measure(runner: Runner, seconds: float, trace: bool):
    """Alternate untraced (and, with trace, traced) passes for `seconds`.

    Returns (untraced results, None for a pass that raised; traced
    (result, per-layer metrics) pairs).

    Without trace, the worker asks its parent to time the calibration
    kernel before the first pass and after every pass (`calibrate` on
    stdout, then it waits for a line on stdin). The kernel runs in the
    parent so that its memory stays out of the worker's peak RSS.
    """
    untraced, traced = [], []
    tracer = None
    if trace:
        import layers
        import tracing

        tracer = tracing.Tracer(runner.name)
        spans_path = os.path.join(OUT, f"spans-{runner.name}-{runner.seed}.jsonl")
        span_rows = []
    start = perf_counter()
    longest = 0.0
    if not trace:
        calibrate()
    while True:
        begin = perf_counter()
        untraced.append(runner.one_pass())
        if tracer is not None:
            tracer.reset()
            tracer.install(layers.targets())
            try:
                origin = perf_counter()
                result = runner.one_pass()
            finally:
                tracer.remove()
            if result is not None:
                runner.count(layers.trace_problems(tracer))
                traced.append((result, layers.pass_metrics(tracer, result)))
                span_rows.extend(tracer.records(len(traced), origin))
        else:
            calibrate()
        longest = max(longest, perf_counter() - begin)
        if perf_counter() - start + longest > seconds:
            break
    if tracer is not None:
        tracing.write_jsonl(spans_path, span_rows)
    return untraced, traced


def calibrate() -> None:
    print("calibrate", flush=True)
    if sys.stdin.readline() != "go\n":
        raise SystemExit("parent stopped answering calibration requests")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_fhsim()
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    untraced, traced = measure(runner, args.seconds, bool(args.trace))
    completed = [p for p in untraced if p is not None]
    if not completed or (args.trace and not traced):
        print(f"no pass completed: {runner.problems[:3]}", file=sys.stderr)
        return 1
    out = {"attempted": runner.attempted, "failed": runner.failed}
    if args.trace:
        import layers

        out["metrics"] = layers.summarize(completed, traced)
    else:
        # Every pass is reported: a failed one leaves a gap between two calibrations.
        out["passes"] = [[p.wall_s, p.work] if p else None for p in untraced]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for problem in runner.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
