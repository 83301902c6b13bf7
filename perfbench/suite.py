"""Run every workload over ten seeds, summarize the spread, write the baseline.

    python3 perfbench/suite.py

For each workload and end-to-end metric it prints the median over seeds
1-10 and the quartile spread (Q3 - Q1, from statistics.quantiles with
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. It then runs seeds 1-3 traced and prints the median of
every per-layer metric. It writes all of that to perfbench/baseline.json,
but only when no operation failed and, in every traced run, the layers'
self times cover at least MIN_COVERAGE of the traced pass; otherwise it
writes nothing and exits 1. Each run is `perfbench/run.py`, one at a
time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
SEEDS = list(range(1, 11))
TRACED_SEEDS = SEEDS[:3]
MIN_COVERAGE = 0.97  # share of a traced pass the layers' self times must account for


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    summary, faults = {}, []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = [run_once(workload, seed, seconds, 1) for seed in TRACED_SEEDS]
        entry = {"seeds": SEEDS, "traced_seeds": TRACED_SEEDS,
                 "failed": sum(r["failed"] for r in runs + traced),
                 "attempted": sum(r["attempted"] for r in runs + traced), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, share = spread(values)
            entry["end_to_end"][name] = {"median": med, "spread": share, "bound": bound,
                                         "values": values}
            flag = "" if share < bound / 3 else "  <-- spread above a third of the bound"
            print(f"{workload:6} {name:14} median {med:12.6g} {units[name]:5} spread {share:7.2%}  "
                  f"bound {bound:.0%}{flag}", flush=True)
        entry["per_layer"] = {
            name: statistics.median(r["metrics"][name]["value"] for r in traced)
            for name in traced[0]["metrics"]
        }
        for name, value in entry["per_layer"].items():
            print(f"{workload:6} {name:30} {value:14.6g} {units[name]}", flush=True)
        print(f"{workload:6} error_rate {entry['failed']}/{entry['attempted']}", flush=True)
        if entry["failed"]:
            faults.append(f"{workload}: {entry['failed']} failed operations")
        coverage = min(r["metrics"]["trace.coverage"]["value"] for r in traced)
        if coverage < MIN_COVERAGE:
            faults.append(f"{workload}: layer self times cover only {coverage:.1%} "
                          f"of a traced pass (at least {MIN_COVERAGE:.0%} required)")
        summary[workload] = entry

    if faults:
        print("baseline not written:\n  " + "\n  ".join(faults), file=sys.stderr)
        return 1
    with open(BASELINE, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
