"""Counted growth gate: every phase of a scenario run costs time linear in its size.

The world is a ring of 8 switches with 4 BBUs and n RRHs, each RRH
holding one CBR point-to-point session to a BBU, all admitted. The
phases are parse, build (controller and traces), sync, run, report, a
controller trunk cut that reroutes every session crossing it, and a
migration of every session to the next BBU round the ring. For each
phase the test counts the lines of fhsim's own code it executes
(`sys.settrace` line events) at n = 250 and at n = 1000. Line counts
repeat from run to run, unlike wall times, and they see a loop that
grows inside a single call, so a phase that grows faster than linearly
(a scan of every earlier entry, say) shows as a ratio well above 4
between the two sizes. CSV writing is left out.

Lines executed do not show memory, so two more gates look there. The
engine's peak traced memory on one CBR session stays flat from 200 to
2,000 subframes: a run holds what is in flight, not what is still to
come. And the heap entries of the clock
tree and of the path search stay a constant size on a 1,000-switch
chain: no entry carries a path. On a 1,000-switch ring, setting up
pairs already set up once pushes nothing onto the path search's heap:
while every link of a pair's best route has room, admission reads that
route's links only, however large the topology. And once a path has been
admitted, setting up and tearing down along it looks up no link: the
hops are read from the path's route, built once per distinct path.
"""

import heapq
import os
import sys
import tracemalloc
from dataclasses import replace

import fhsim
import fhsim.control
import fhsim.sync
from fhsim.control import Controller, SessionRequest, compute_path
from fhsim.engine import CircuitFeed, RegulatorPolicy, SwitchState, World, run
from fhsim.metrics import assemble_report
from fhsim.scenario import build_scenario, parse_scenario
from fhsim.sync import ClockSource, build_sync_tree, propagate_sync
from fhsim.topology import (
    Chain,
    LogicalPattern,
    Node,
    NodeKind,
    PhysicalTopology,
    PhysLink,
    PointToPoint,
    Ring,
    build_topology,
)

PACKAGE = os.path.dirname(fhsim.__file__) + os.sep
SMALL, LARGE = 250, 1000
MAX_RATIO = 4.5  # per 4x step in n


def ring_world(n: int) -> str:
    out = ["[topology]"]
    out += [f"node = s{i} switch" for i in range(8)]
    out += [f"node = b{j} bbu" for j in range(4)]
    out += [f"node = r{i} rrh" for i in range(n)]
    out += [f"link = s{i} s{(i + 1) % 8}" for i in range(8)]
    out += [f"link = b{j} s{2 * j}" for j in range(4)]
    out += [f"link = r{i} s{i % 8}" for i in range(n)]
    out += ["", "[sync]", "source = b0"]
    out += ["", "[sessions]"]
    out += [
        f"session = f{i} src=r{i} dst=b{i % 8 // 2} class=3 mean=1e6 peak=2e6 bound=1e-2 traffic=cbr rate=1e6"
        for i in range(n)
    ]
    out += ["", "[engine]", "horizon = 0.01", "subframes = 10", ""]
    return "\n".join(out)


def counted(fn, *args):
    """fn(*args), and the number of lines of fhsim's code it executed."""
    lines = 0

    def line(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, lines


def sync(built):
    sources = [ClockSource(built.node_id[s.node], s.quality, s.offset_ppb) for s in built.scenario.sources]
    tree = build_sync_tree(built.world.topology, sources)
    return propagate_sync(tree, built.world.topology, built.scenario.regen_factor)


def phase_lines(n: int) -> dict[str, int]:
    lines = {}
    scenario, lines["parse"] = counted(parse_scenario, ring_world(n))
    built, lines["build"] = counted(build_scenario, scenario)
    assert not built.infeasible
    _, lines["sync"] = counted(sync, built)
    result, lines["run"] = counted(run, built.world, scenario.engine.horizon)
    report, lines["report"] = counted(assemble_report, result, built.bounds)
    assert len(report.sessions) == n and all(record.delivered > 0 for record in report.sessions)
    # cut the trunk s0-s1: the sessions of the RRHs at s1 go round the ring to b0
    trunk = (built.node_id["s0"], built.node_id["s1"])
    outcomes, lines["cut"] = counted(built.controller.reroute_on_failure, trunk)
    assert list(outcomes.values()) == ["rerouted"] * len(range(1, n, 8))
    bbus = [built.node_id[f"b{j}"] for j in range(4)]
    _, lines["migrate"] = counted(migrate_all, built.controller, bbus)
    return lines


def migrate_all(controller, bbus):
    """Move every session from its BBU to the next one round the ring."""
    for session in list(controller.sessions.values()):
        pattern = session.request.pattern
        shape = pattern.shape
        bbu = bbus[(bbus.index(shape.bbu) + 1) % len(bbus)]
        controller.migrate(session, replace(pattern, shape=PointToPoint(shape.rrh, bbu)))
        assert session.circuits[0].egress == bbu


def test_every_phase_grows_linearly():
    small, large = phase_lines(SMALL), phase_lines(LARGE)
    ratios = {phase: round(large[phase] / small[phase], 2) for phase in small}
    assert all(ratio <= MAX_RATIO for ratio in ratios.values()), (ratios, small, large)


def cbr_world(subframes: int) -> World:
    """r1 - s1 - b1, one session offering one 500-byte frame every 1 ms subframe."""
    nodes = [Node(0, NodeKind.RRH, 1, "r1"), Node(1, NodeKind.FH_SWITCH, 2, "s1"), Node(2, NodeKind.BBU, 1, "b1")]
    links = [PhysLink(0, 0, 1, 0, 1e9, 1e-5), PhysLink(1, 1, 2, 0, 1e9, 1e-5)]
    switch = SwitchState()
    switch.install(0, 1, ((1, 1),))
    feed = CircuitFeed("f", 0, 0, 0, 1, 0, RegulatorPolicy(500, 1e-3), [500 * 8.0] * subframes, 1e-3)
    return World(PhysicalTopology(nodes, links), {1: switch}, [feed], {(2, 0, 1): ("f", 0)})


def run_peak_bytes(subframes: int) -> int:
    """The peak traced memory of `run` on `cbr_world(subframes)`, its input built beforehand."""
    world = cbr_world(subframes)
    tracemalloc.start()
    try:
        result = run(world, subframes * 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.total().delivered == subframes
    return peak


def test_engine_memory_does_not_grow_with_the_run():
    # building every offer before the first event read 77 KB at 200
    # subframes and 317 KB at 2,000 (ratio 4.1)
    small, large = run_peak_bytes(200), run_peak_bytes(2000)
    assert large / small <= 1.2, (small, large)


def record_heap_entries(monkeypatch, module) -> list:
    """Every entry `module` puts in a heap through its `heapq`, from now on."""
    entries = []

    class RecordingHeapq:
        @staticmethod
        def heapify(heap):
            entries.extend(heap)
            heapq.heapify(heap)

        @staticmethod
        def heappush(heap, item):
            entries.append(item)
            heapq.heappush(heap, item)

        heappop = staticmethod(heapq.heappop)

    monkeypatch.setattr(module, "heapq", RecordingHeapq)
    return entries


def longest_tuple(entries: list) -> int:
    """The length of the longest tuple among the entries and their parts."""
    return max(len(part) for entry in entries for part in (entry, *entry) if isinstance(part, tuple))


def test_clock_tree_heap_entries_stay_small_on_a_deep_chain(monkeypatch):
    entries = record_heap_entries(monkeypatch, fhsim.sync)
    # switches 0..999 in a line, the source at 999 and an RRH (node 1000) at 0
    tree = build_sync_tree(build_topology(Chain(1000, ((0, NodeKind.RRH),))), [ClockSource(999)])
    assert not tree.unsynchronized and tree.parent[1000][0] == 0
    assert len(entries) == 1001  # the source, then each node once, from its one upstream neighbour
    # a path tuple would reach 1,001 nodes here
    assert longest_tuple(entries) <= 8


def test_path_search_heap_entries_stay_small_on_a_deep_chain(monkeypatch):
    entries = record_heap_entries(monkeypatch, fhsim.control)
    # switches 0..999 in a line, an RRH (node 1000) at 0 and a BBU (node 1001) at 999
    topology = build_topology(Chain(1000, ((0, NodeKind.RRH), (999, NodeKind.BBU))))
    path, _ = compute_path(topology, 1000, 1001, 1e6, 1.0, 1008, 1e-6, lambda key: 1e9)
    assert path == (1000, *range(1000), 1001)
    assert len(entries) == 1001  # each switch once, then the BBU
    # a path tuple would reach 1,002 nodes here
    assert longest_tuple(entries) <= 8


def big_ring_controller() -> tuple[Controller, list[tuple[int, int]]]:
    """A controller on a 1,000-switch ring, and its (RRH, BBU) pairs.

    Switches 0..999 are in a cycle; RRHs 1000..1003 at switches 0, 250,
    500 and 750, BBUs 1004 and 1005 at switches 100 and 600.
    """
    rrhs = tuple((pos, NodeKind.RRH) for pos in (0, 250, 500, 750))
    topology = build_topology(Ring(1000, rrhs + ((100, NodeKind.BBU), (600, NodeKind.BBU))))
    return Controller(topology), [(rrh, bbu) for rrh in range(1000, 1004) for bbu in (1004, 1005)]


def p2p(rrh: int, bbu: int) -> SessionRequest:
    return SessionRequest(LogicalPattern(PointToPoint(rrh, bbu)), 1e6, 2e6, 3, 1.0)


def test_setups_along_free_remembered_routes_push_nothing_on_the_search_heap(monkeypatch):
    controller, pairs = big_ring_controller()

    def setup_all():
        for rrh, bbu in pairs:
            controller.setup(p2p(rrh, bbu))

    entries = record_heap_entries(monkeypatch, fhsim.control)
    setup_all()
    assert len(entries) > 1000  # each pair's first setup searched the ring
    entries.clear()
    for _ in range(3):
        setup_all()
    assert entries == []
    assert len(controller.sessions) == 4 * len(pairs)


def test_warm_setup_and_teardown_look_up_no_link(monkeypatch):
    controller, pairs = big_ring_controller()
    lookups = []
    link_between = PhysicalTopology.link_between

    def counted(topology, a, b):
        lookups.append((a, b))
        return link_between(topology, a, b)

    monkeypatch.setattr(PhysicalTopology, "link_between", counted)
    admitted = set()
    for round_ in range(4):
        sessions = [controller.setup(p2p(rrh, bbu)) for rrh, bbu in pairs]
        admitted.update(c.nodes for session in sessions for c in session.circuits)
        for session in sessions:
            controller.teardown(session)
        assert not controller.egress
        if round_ == 0:
            assert len(lookups) > 1000  # the first round built each admitted path's route
            lookups.clear()
    # admission reads each path's hops from its route, built once
    assert lookups == []
    assert 0 < len(controller.topology.routes) <= len(admitted)
