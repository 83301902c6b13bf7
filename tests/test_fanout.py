"""`fan_out` and `Producer`: the in-process results, in order, from forked children.

Every test that needs the fork path forces two usable CPUs, so it runs
the same on a one-CPU machine. A function that must only run in a
child checks `os.getpid()` against the caller's pid first.
"""

import itertools
import os
import sys
import threading
import time
from contextlib import closing
from dataclasses import replace

import pytest

from fhsim.fanout import Producer, fan_out
from fhsim.metrics import overhead_sweep
from fhsim.scenario import CellTraces, parse_scenario
from fhsim.traffic import generate_trace

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


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


@pytest.mark.parametrize("n", [1, 2])
def test_no_item_or_one_item_is_computed_in_the_caller(cpus, forks, n):
    cpus(n)
    assert fan_out(lambda x: os.getpid(), []) == []
    assert fan_out(lambda x: os.getpid(), ["x"]) == [os.getpid()]
    assert forks == []


def test_results_larger_than_a_pipe_buffer_cross_whole(cpus):
    cpus(2)
    out = fan_out(lambda x: bytes([x]) * 1_000_000, [1, 2, 3])
    assert out == [bytes([x]) * 1_000_000 for x in (1, 2, 3)]


def test_twelve_cell_traces_are_the_same_streamed_or_made_whole(cpus):
    cpus(2)
    scenario = parse_scenario(workloads.cells_text(7), name="cells")
    assert len(scenario.cells) == 12
    engine = replace(scenario.engine, subframes=150)  # more than two blocks, the last one short
    with closing(CellTraces(scenario, engine, fork=True)) as cells:
        streamed = cells.drain()
    assert list(streamed) == [cell.node for cell in scenario.cells]
    for index, cell in enumerate(scenario.cells):
        profiles = [cell.ues.profile()] * cell.ues.count
        whole = generate_trace(cell.cell, cell.scheme, profiles, cell.control, 150, engine.seed + index)
        trace = streamed[cell.node]
        assert (trace.volumes, trace.prbs, trace.control_res) == (whole.volumes, whole.prbs, whole.control_res)
        assert [type(v) for v in trace.volumes] == [type(v) for v in whole.volumes]


def test_a_producer_sends_every_item_in_order_from_one_child(cpus):
    cpus(2)
    parent = os.getpid()
    with Producer(lambda: ((i, os.getpid()) for i in range(500))) as items:
        got = list(items)
    assert [i for i, _ in got] == list(range(500))
    assert {pid for _, pid in got} != {parent} and len({pid for _, pid in got}) == 1


def test_a_producer_without_a_spare_cpu_makes_its_items_as_they_are_read(cpus):
    cpus(1)
    made = []

    def make():
        for i in range(3):
            made.append(i)
            yield i

    items = Producer(make)
    assert made == [] and next(items) == 0 and made == [0]
    assert list(items) == [1, 2]


def test_a_producer_relays_the_error_after_the_items_made_before_it(cpus):
    cpus(2)

    def make():
        yield from range(3)
        raise ValueError("no fourth item")

    with Producer(make) as items:
        assert [next(items) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="no fourth item"):
            next(items)


def test_closing_a_producer_mid_stream_kills_and_reaps_its_child(cpus):
    cpus(2)
    start = time.monotonic()
    with Producer(lambda: itertools.count()) as items:
        assert next(items) == 0  # the child is blocked on a full pipe from here on
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
