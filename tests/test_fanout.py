"""`fan_out`: the serial loop's results, in order, from forked children.

Every test that needs the fork path forces two usable CPUs, so it runs
the same on a one-CPU machine. A function that must only run in a
child checks `os.getpid()` against the caller's pid first.
"""

import os
import sys
import threading
import time

import pytest

import fhsim.fanout
from fhsim.fanout import fan_out
from fhsim.metrics import overhead_sweep
from fhsim.scenario import build_scenario, parse_scenario

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count `fan_out` sees."""

    def force(n: int) -> None:
        monkeypatch.setattr(fhsim.fanout, "usable_cpus", lambda: n)

    return force


@pytest.mark.parametrize("n", [1, 2, 3])
def test_results_are_the_serial_loops_in_input_order(cpus, n):
    cpus(n)
    items = list(range(23))
    parent = os.getpid()
    out = fan_out(lambda x: (x * x, os.getpid()), items)
    assert [value for value, _ in out] == [x * x for x in items]
    pids = {pid for _, pid in out}
    assert len(pids) == n and parent in pids
    assert out[0][1] == parent  # the caller computes the first share


def test_results_larger_than_a_pipe_buffer_cross_whole(cpus):
    cpus(2)
    out = fan_out(lambda x: bytes([x]) * 1_000_000, [1, 2, 3])
    assert out == [bytes([x]) * 1_000_000 for x in (1, 2, 3)]


def test_twelve_cell_traces_are_the_same_serial_or_forked(cpus):
    scenario = parse_scenario(workloads.cells_text(7), name="cells")
    assert len(scenario.cells) == 12
    built = {}
    for n in (1, 2):
        cpus(n)
        built[n] = build_scenario(scenario, subframes=60).traces
    assert list(built[1]) == list(built[2])
    for node, trace in built[1].items():
        other = built[2][node]
        assert (trace.volumes, trace.prbs, trace.control_res) == (other.volumes, other.prbs, other.control_res)
        assert [type(v) for v in trace.volumes] == [type(v) for v in other.volumes]


def test_sweep_rows_are_the_same_serial_or_forked(cpus, bundled_runs):
    _, built, _, _ = bundled_runs["latency-tiers"]
    rows = {}
    for n in (1, 2):
        cpus(n)
        rows[n] = overhead_sweep(built.world, [1500, 4000, 9000], 0.002)
    assert rows[1] == rows[2]
    assert [size for size, *_ in rows[2]] == [1500, 4000, 9000]


def test_an_error_in_a_childs_share_comes_back_raised(cpus):
    cpus(2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match="bad item 2"):
        fan_out(fn, [0, 1, 2, 3])


def test_a_child_that_exits_without_a_result_names_its_status(cpus):
    cpus(2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="status 3"):
        fan_out(fn, [0, 1])


@pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
def test_an_error_in_the_callers_share_kills_and_reaps_every_child(cpus, error):
    cpus(3)
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent:
            raise error(x)
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(error):
        fan_out(fn, [0, 1, 2])
    assert time.monotonic() - start < 30  # the children were killed, not waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_caller_with_another_thread_running_gets_the_serial_path(cpus):
    cpus(2)
    release = threading.Event()
    helper = threading.Thread(target=release.wait, args=(30,))
    helper.start()
    try:
        pids = fan_out(lambda x: os.getpid(), [0, 1, 2, 3])
    finally:
        release.set()
        helper.join(30)
    assert not helper.is_alive()
    assert pids == [os.getpid()] * 4
