"""Record the golden output digests the benchmark checks every pass against.

    python3 perfbench/record_digests.py

Runs one untraced pass per workload and seed 0-20 on the current
sources and writes perfbench/digests.json. latency-tiers has only
constant-bit-rate sources, so its outputs do not depend on the seed: it
is recorded once, under "any", after checking that seeds 0 and 20
agree. Rerun this only for a declared change of fhsim's outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import OUT  # noqa: E402

SEEDS = list(range(0, 21))


def digests_of(name: str, seed: int) -> dict[str, str]:
    workload = workloads.WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="digests-", dir=OUT)
    try:
        result = workload.run_pass(workload.prepare(seed), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if result.problems:
        raise SystemExit(f"{name} seed {seed}: {result.problems}")
    return result.digests


def main() -> int:
    tiers = digests_of("tiers", SEEDS[0])
    if digests_of("tiers", SEEDS[-1]) != tiers:
        raise SystemExit("latency-tiers outputs depend on the seed; record them per seed")
    table = {"tiers": {workloads.ANY_SEED: tiers}}
    for name in ("cells", "ctrl"):
        table[name] = {str(seed): digests_of(name, seed) for seed in SEEDS}
        print(f"{name}: recorded seeds {SEEDS[0]}..{SEEDS[-1]}", flush=True)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
