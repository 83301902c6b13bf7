"""The benchmark's recorded outputs, checked as the benchmark checks them.

`perfbench/digests.json` holds the digest of every output a benchmark
pass writes. A change that moves one fails the benchmark's correctness
check; running one pass of `cells` and of `ctrl` here makes it fail the
test suite first. `tiers` is pinned by `test_golden.py`.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["cells", "ctrl"])
def test_seed_0_pass_matches_its_recorded_digests(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    result = workload.run_pass(workload.prepare(0), str(tmp_path))
    assert result.problems == []
    assert workloads.digest_problems(workloads.expected_digests(name, 0), result.digests) == []
