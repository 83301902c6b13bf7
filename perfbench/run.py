"""fhsim benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload tiers --seed 1 --seconds 38 --trace 0

Run from the root of a checkout that has fhsim's sources under `src/`.
Set-up is timed by starting the worker process several times and taking
the median time from process start to its `ready` line (interpreter
start, `import fhsim`, input generation and parse). The last of those
workers then runs passes for `--seconds`.

A shared virtual machine can change CPU speed by 25% and more within
minutes, so `--trace 0` times are calibrated: this process times a fixed
job (`calibration_kernel`) before the first pass and after every pass,
while the worker waits. A pass's speed factor is REF_S over the mean of
the two kernel times around it; `pass_s` is the median of pass host time
times speed factor, the pass time at the speed where the kernel takes
REF_S. `setup_s` is scaled by the kernel run right after the last
worker start got ready. No worker is started after the first kernel run:
a child started from this process would inherit its peak RSS. The kernel
does not touch fhsim, so a change to fhsim cannot move it. The last line
printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`). Exits non-zero, printing no result, when the worker
cannot run at all (for example when `src/fhsim` is missing).
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("tiers", "cells", "ctrl")
SETUP_SAMPLES = 11  # worker starts per run; the median is setup_s
RUN_LIMIT_S = 170  # a run must end within 180 s
REF_S = 0.25  # calibration-kernel seconds at the reference CPU speed
CALIBRATION_TABLE = 120_000  # entries: far larger than the CPU caches, as fhsim's heaps are


class WorkerError(Exception):
    pass


def _time_limit(signum, frame):
    raise WorkerError("the run went past its time limit")


def calibration_kernel() -> float:
    """Host seconds of a fixed pure-Python job: random reads from a large table plus heap work.

    Memory-bound code like fhsim's event loop slows most when the machine
    is busy, so the job reads a table far larger than the CPU caches.
    """
    start = perf_counter()
    rng = random.Random(7)
    table = {i: (i, float(i)) for i in range(CALIBRATION_TABLE)}
    heap = []
    for _ in range(120_000):
        heapq.heappush(heap, (rng.random(), table[rng.randrange(CALIBRATION_TABLE)]))
        if len(heap) > 5000:
            heapq.heappop(heap)
    return perf_counter() - start


def end_to_end(passes, kernel, setups, rss_mb) -> dict[str, float]:
    """The --trace 0 metrics from raw timings and the kernel times around them.

    kernel[0] was timed right after the last worker start got ready;
    passes[i] is [host seconds, work] or None (the pass raised), timed
    between kernel[i] and kernel[i + 1].
    """
    speeds = [2 * REF_S / (a + b) for a, b in zip(kernel, kernel[1:])]
    timed = [(wall * k, work) for (wall, work), k in
             ((p, k) for p, k in zip(passes, speeds) if p is not None)]
    return {
        "pass_s": statistics.median(t for t, _ in timed),
        "setup_s": statistics.median(setups) * REF_S / kernel[0],
        "peak_rss_mb": rss_mb,
        "work_per_s": statistics.median(w / t for t, w in timed),
    }


def declared(kind: str) -> dict[str, str]:
    """name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def with_units(values: dict[str, float], kind: str) -> dict:
    """The result line's metrics: exactly the ones BENCHMARK.json declares, with their units."""
    units = declared(kind)
    if set(values) != set(units):
        raise WorkerError(f"measured {kind} metrics differ from BENCHMARK.json: "
                          f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def start_worker(args, extra):
    """Start a worker and wait for `ready`; returns (process, set-up seconds)."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        stop(proc)
        raise
    setup = perf_counter() - start
    if line != "ready\n":
        stop(proc)
        raise WorkerError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def stop(proc) -> None:
    """Kill the worker if it still runs, and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def serve(proc) -> tuple[list[str], list[float]]:
    """Answer the worker's calibration requests until it exits; (other lines, kernel times)."""
    lines, kernel = [], []
    for line in proc.stdout:
        if line == "calibrate\n":
            kernel.append(calibration_kernel())
            proc.stdin.write("go\n")
            proc.stdin.flush()
        else:
            lines.append(line)
    proc.wait()
    return lines, kernel


def run(args) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1 if args.trace == 0 else 0):
        proc, setup = start_worker(args, ["--setup-only"])
        try:
            proc.communicate()
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise WorkerError(f"set-up worker exited {proc.returncode}")
        setups.append(setup)
    proc, setup = start_worker(args, [])
    setups.append(setup)
    try:
        lines, kernel = serve(proc)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1])
    if args.trace:
        metrics = with_units(result["metrics"], "per_layer")
    else:
        values = end_to_end(result["passes"], kernel, setups, result["peak_rss_mb"])
        metrics = with_units(values, "end_to_end")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fhsim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fhsim", "__init__.py")):
        print("no fhsim sources under src/ in this checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _time_limit)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run(args)
    except (WorkerError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:6} {name:30} {metric['value']:>16.6g} {metric['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{args.workload:6} {'error_rate':30} {error_rate:>16.6g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
