"""The event heap holds only what can be due next, and nothing else changes.

`fhsim.engine.run` keeps one offer or regulator timeout per circuit in
the heap, pushes the end of a transmission only when a packet waits
behind it, delivers to end equipment at transmit start, and pushes the
processing end at a direct switch port from the transmit step.
`engine_oracle.run` pushes every event; on random small worlds both
must give the same result, and so must the engine with no port direct.
All times in these worlds are dyadic, so events at equal times are
common and the (time, cause, tie) rule decides their order.
"""

import heapq
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import fhsim.engine
from engine_oracle import run as reference_run
from fhsim.cli import load_scenario_text
from fhsim.engine import (
    N_CLASSES,
    CircuitFeed,
    RegulatorPolicy,
    Scheduler,
    SwitchConfig,
    SwitchState,
    World,
    run,
)
from fhsim.scenario import build_scenario, parse_scenario
from fhsim.topology import MAX_CAPACITY, Node, NodeKind, PhysLink, PhysicalTopology

# Hosts 0 and 1 reach switch 3, host 2 has a direct link to BBU 8.
# Switch 3 serves BBU 5 and switch 4, which serves BBUs 6 and 7; a
# link from switch 4 to BBU 8, which no circuit uses, keeps the
# topology connected.
NODES = [
    Node(0, NodeKind.RRH, 1),
    Node(1, NodeKind.RRH, 1),
    Node(2, NodeKind.RRH, 1),
    Node(3, NodeKind.FH_SWITCH, 4),
    Node(4, NodeKind.FH_SWITCH, 4),
    Node(5, NodeKind.BBU, 1),
    Node(6, NodeKind.BBU, 1),
    Node(7, NodeKind.BBU, 1),
    Node(8, NodeKind.BBU, 2),
]
WIRING = [
    (0, 0, 3, 0),
    (1, 0, 3, 1),
    (3, 2, 5, 0),
    (3, 3, 4, 0),
    (4, 1, 6, 0),
    (4, 2, 7, 0),
    (2, 0, 8, 0),
    (4, 3, 8, 1),
]
# a 16..128-byte frame takes 1/8 s to 8 s on these links
CAPACITIES = [128.0, 256.0, 512.0, 1024.0]
# a circuit from host 0 or 1 ends at BBU 5, BBU 6, all three (a tree),
# or nowhere: unroutable at switch 3, or at the BBU it reaches
ROUTES = ["near", "far", "tree", "no-entry", "no-egress"]


# one configuration for every port of a world
CONFIGS = st.builds(
    SwitchConfig,
    scheduler=st.sampled_from(list(Scheduler)),
    wrr_weights=st.lists(st.integers(1, 3), min_size=N_CLASSES, max_size=N_CLASSES).map(tuple),
    queue_bytes=st.sampled_from([40, 130, 200, 1 << 20]),
    input_buffer_bytes=st.sampled_from([70, 300, 1 << 20]),
    header_processing_delay=st.sampled_from([0.0, 0.0, 0.25, 0.5]),
)


@st.composite
def small_worlds(draw):
    """A world of up to six circuits and a horizon that may cut packets in flight."""
    links = [
        PhysLink(*ends, draw(st.sampled_from(CAPACITIES)), draw(st.sampled_from([0.0, 0.0, 0.25, 1.0])))
        for ends in WIRING
    ]
    first, second = SwitchState(), SwitchState()
    feeds, egress = [], {}
    for cid, host in enumerate(draw(st.lists(st.sampled_from([0, 0, 1, 1, 2]), min_size=1, max_size=6))):
        label = 1 + cid
        sid = draw(st.sampled_from([f"c{cid}", "shared"]))
        volumes = draw(
            st.lists(
                st.one_of(st.just(0.0), st.just(5e-6), st.integers(1, 900).map(float)),
                min_size=1,
                max_size=8,
            )
        )
        latency_class = draw(st.sampled_from([0, 1, 3, 7]))
        frame = draw(st.sampled_from([8, 24, 56, 120]))
        timeout = draw(st.sampled_from([0.25, 0.5, 1.5]))
        duration = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        policy = RegulatorPolicy(frame, timeout)
        feeds.append(CircuitFeed(sid, cid, host, 0, label, latency_class, policy, volumes, duration))
        if host == 2:
            egress[(8, 0, label)] = (sid, cid)
            continue
        route = draw(st.sampled_from(ROUTES))
        if route == "near":
            first.install(host, label, ((2, label + 100),))
            egress[(5, 0, label + 100)] = (sid, cid)
        elif route == "far":
            first.install(host, label, ((3, label + 100),))
            second.install(0, label + 100, ((1, label + 200),))
            egress[(6, 0, label + 200)] = (sid, cid)
        elif route == "tree":
            first.install(host, label, ((2, label + 100), (3, label + 100)))
            second.install(0, label + 100, ((1, label + 200), (2, label + 200)))
            egress[(5, 0, label + 100)] = (sid, cid)
            egress[(6, 0, label + 200)] = (sid, 100 + cid)
            egress[(7, 0, label + 200)] = (sid, 200 + cid)
        elif route == "no-egress":
            first.install(host, label, ((2, label + 100),))
    world = World(PhysicalTopology(NODES, links), {3: first, 4: second}, feeds, egress, draw(CONFIGS))
    return world, draw(st.integers(0, 48)) * 0.25


class TestMatchesEveryEventInTheHeap:
    @given(small_worlds())
    @settings(max_examples=400, deadline=None)
    def test_same_result_as_the_reference(self, case):
        world, horizon = case
        got, want = run(world, horizon), reference_run(world, horizon)
        assert got.ports == want.ports
        assert got.residual_packets == want.residual_packets
        assert got.regulator_backlog_bits == want.regulator_backlog_bits
        assert got.regulator_peak_bits == want.regulator_peak_bits
        assert list(got.sessions) == list(want.sessions)
        for sid, stats in want.sessions.items():
            mine = got.sessions[sid]
            # the reference keeps a list of samples; the engine counts each value
            assert mine.latencies.counts == Counter(stats.latencies)
            assert replace(mine, latencies=None) == replace(stats, latencies=None)


def chain_world(up: float, down: float, feeds: list[tuple], config: SwitchConfig) -> World:
    """Host 0 sends into switch 3's port 0 at `up` b/s, and its port 2 sends to BBU 5 at `down` b/s.

    `feeds` are (latency class, frame bytes, volumes, subframe duration);
    circuit i enters with label i + 1 and ends at BBU 5 as session ci.
    No link has a propagation delay.
    """
    nodes = [Node(0, NodeKind.RRH, 1), Node(3, NodeKind.FH_SWITCH, 4), Node(5, NodeKind.BBU, 1)]
    links = [PhysLink(0, 0, 3, 0, up, 0.0), PhysLink(3, 2, 5, 0, down, 0.0)]
    switch, circuits, egress = SwitchState(), [], {}
    for cid, (latency_class, frame, volumes, step) in enumerate(feeds):
        label = cid + 1
        policy = RegulatorPolicy(frame, 1.0)
        circuits.append(CircuitFeed(f"c{cid}", cid, 0, 0, label, latency_class, policy, volumes, step))
        switch.install(0, label, ((2, label + 100),))
        egress[(5, 0, label + 100)] = (f"c{cid}", cid)
    return World(PhysicalTopology(nodes, links), {3: switch}, circuits, egress, config)


class TestProcessingEndSortsByItsArrival:
    def test_a_processing_end_goes_before_what_its_arrival_instant_scheduled(self):
        """Events at one time sort by the time of what scheduled them, and a processing end by its arrival's.

        Every frame is 16 wire bytes: 0.5 s up, 1 s down, and 1 s of
        processing. Host 0 sends P (c0, class 7) at 0, W (c1, class 7)
        at 0.5 and A (c2, class 0) at 1, arriving at 0.5, 1 and 1.5. At
        1.5 P's processing end starts P down, to end at 2.5, and then A
        arrives, to be processed by 2.5; W queues behind P at 2. Under
        (time, tie) P's transmit end, scheduled first, went first at 2.5
        and sent W (latencies c1 3.0, c2 3.5, one packet queued at a
        time). Under (time, cause, tie) A's processing end sorts by its
        arrival, at 1.5 before P's transmit end was scheduled, so A joins
        the queue first and strict priority sends it ahead of W.
        """
        feeds = [(7, 8, [64.0], 0.5), (7, 8, [0.0, 64.0], 0.5), (0, 8, [0.0, 0.0, 64.0], 0.5)]
        result = run(chain_world(256.0, 128.0, feeds, SwitchConfig(header_processing_delay=1.0)), 8.0)
        latencies = {sid: stats.latencies.counts for sid, stats in result.sessions.items()}
        assert latencies == {"c0": {2.5: 1}, "c1": {4.0: 1}, "c2": {2.5: 1}}
        assert [port.peak_queue_bytes for port in result.ports] == [16, 0, 32, 0]


def every_arrival_an_event(world: World, horizon: float):
    """`run` with no port direct: every switch arrival is an event that checks the input buffer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fhsim.engine, "_direct", lambda *_: False)
        return run(world, horizon)


# a burst of 32-byte frames into a 1 s processing delay at 1024 b/s: 128
# bytes in processing, two frames and a fraction of a byte of slack
AT_BOUND = 193
# the same burst at 1e15 b/s, offered at 2**19 s, where a frame's 2.56e-13 s
# is far below half an ulp: the frames all arrive at one instant. Without the
# slack, 2**-30 s of processing would make the port direct at this buffer,
# yet the burst overflows it.
ROUNDED_BOUND = math.ceil(MAX_CAPACITY * 2**-30 / 8) + 64


class TestDirectPortsNeedNoArrival:
    @given(small_worlds())
    @settings(max_examples=200, deadline=None)
    def test_same_result_with_every_arrival_an_event(self, case):
        world, horizon = case
        assert run(world, horizon) == every_arrival_an_event(world, horizon)

    @pytest.mark.parametrize(
        "capacity, delay, buffer, step, horizon, direct, overflows",
        [
            (1024.0, 1.0, AT_BOUND, 0.0, 12.0, True, False),
            (1024.0, 1.0, AT_BOUND - 1, 0.0, 12.0, False, False),
            (MAX_CAPACITY, 2**-30, ROUNDED_BOUND, 2.0**19, 2.0**20, False, True),
        ],
        ids=["at-the-bound", "a-byte-below", "max-capacity-long-horizon"],
    )
    def test_edge_of_the_bound(self, capacity, delay, buffer, step, horizon, direct, overflows):
        config = SwitchConfig(queue_bytes=1 << 20, input_buffer_bytes=buffer, header_processing_delay=delay)
        assert fhsim.engine._direct(capacity, 32, config, horizon) is direct
        feeds = [(0, 24, [0.0, 10_000 * 24 * 8.0], step)]  # 10,000 frames offered at `step`
        world = chain_world(capacity, capacity, feeds, config)
        result = run(world, horizon)
        assert result == every_arrival_an_event(world, horizon)
        assert result.total().injected == 10_000
        assert (result.total().dropped_overflow > 0) is overflows


class TestHeapHoldsOnlyWhatIsDue:
    def test_latency_tiers_heap_stays_small(self, monkeypatch):
        pushes, peak, timeouts, flushes, pending = 0, 0, 0, 0, set()
        handled = Counter()  # events popped, by code
        regulated = (fhsim.engine._OFFER, fhsim.engine._REG_TIMEOUT)

        def counted_push(item):
            nonlocal pushes, timeouts
            if item[3] in regulated:
                assert item[4] not in pending  # one offer or timeout per circuit
                pending.add(item[4])
                timeouts += item[3] == fhsim.engine._REG_TIMEOUT
            pushes += 1

        def counted_pop(item):
            handled[item[3]] += 1
            if item[3] in regulated:
                pending.remove(item[4])

        class CountingHeapq:
            @staticmethod
            def heappush(heap, item):
                nonlocal peak
                counted_push(item)
                heapq.heappush(heap, item)
                peak = max(peak, len(heap))

            @staticmethod
            def heappop(heap):
                item = heapq.heappop(heap)
                counted_pop(item)
                return item

            @staticmethod
            def heapreplace(heap, item):
                # the pop of the root, then one push
                counted_pop(heap[0])
                counted_push(item)
                return heapq.heapreplace(heap, item)

        flush = fhsim.engine.Regulator.flush

        def counting_flush(reg):
            nonlocal flushes
            flushes += 1
            return flush(reg)

        monkeypatch.setattr(fhsim.engine, "heapq", CountingHeapq)
        monkeypatch.setattr(fhsim.engine.Regulator, "flush", counting_flush)
        text, _ = load_scenario_text("latency-tiers")
        scenario = parse_scenario(text, name="latency-tiers")
        world = build_scenario(scenario).world
        result = run(world, scenario.engine.horizon)
        assert result.total().delivered == 162_688
        # pushing every event came to 1,310,594 pushes and a heap of 5,080;
        # a timeout after every offer, to 1,079,156 pushes and 4,040 timeouts
        assert pushes <= 749_764
        assert peak < 64
        # no timeout is superseded: each one pushed pops and flushes
        assert timeouts == flushes == 24
        # a missing code counts as 0: every switch input port here is direct
        assert handled == Counter(
            {
                fhsim.engine._OFFER: 5_050,
                fhsim.engine._REG_TIMEOUT: 24,
                fhsim.engine._ARRIVAL: 0,
                fhsim.engine._PROC_DONE: 325_376,
                fhsim.engine._TX_DONE: 419_314,
            }
        )
