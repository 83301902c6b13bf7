"""The benchmark's recorded outputs, checked as the benchmark checks them.

`perfbench/digests.json` holds the digest of every output a benchmark
pass writes. A change that moves one fails the benchmark's correctness
check; running one pass of `cells` at seed 0 and one of `ctrl` at each of
seeds 0-4 here makes it fail the test suite first. `cells` runs on one
usable CPU and on two, where its traces stream from a forked child. The
`ctrl` ledger and `control_log.csv` digests move with any change in the
routes the controller picks. `tiers` is pinned by `test_golden.py`.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("name, seed, n", [("cells", 0, 1), ("cells", 0, 2), *(("ctrl", seed, 1) for seed in range(5))])
def test_pass_matches_its_recorded_digests(cpus, forks, tmp_path, name, seed, n):
    cpus(n)
    workload = workloads.WORKLOADS[name]
    result = workload.run_pass(workload.prepare(seed), str(tmp_path))
    assert len(forks) == (n > 1)
    assert result.problems == []
    assert workloads.digest_problems(workloads.expected_digests(name, seed), result.digests) == []
