"""The benchmark's recorded outputs, checked as the benchmark checks them.

`perfbench/digests.json` holds the digest of every output a benchmark
pass writes. A change that moves one fails the benchmark's correctness
check; running one pass of `cells` at seed 0 and one of `ctrl` at each of
seeds 0-4 here makes it fail the test suite first. The `ctrl` ledger and
`control_log.csv` digests move with any change in the routes the
controller picks. `tiers` is pinned by `test_golden.py`.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("name, seed", [("cells", 0), *(("ctrl", seed) for seed in range(5))])
def test_pass_matches_its_recorded_digests(tmp_path, name, seed):
    workload = workloads.WORKLOADS[name]
    result = workload.run_pass(workload.prepare(seed), str(tmp_path))
    assert result.problems == []
    assert workloads.digest_problems(workloads.expected_digests(name, seed), result.digests) == []
