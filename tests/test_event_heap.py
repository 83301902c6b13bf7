"""The event heap holds only what can be due next, and nothing else changes.

`fhsim.engine.run` keeps one offer or regulator timeout per circuit in
the heap, pushes the end of a transmission only when a packet waits
behind it, and delivers to end equipment at transmit start.
`engine_oracle.run` pushes every event; on random small worlds both
must give the same result. All times in these worlds are dyadic, so
events at equal times are common and the tie rule decides their order.
"""

import heapq
from collections import Counter
from dataclasses import replace

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
from fhsim.topology import Node, NodeKind, PhysLink, PhysicalTopology

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


class TestHeapHoldsOnlyWhatIsDue:
    def test_latency_tiers_heap_stays_small(self, monkeypatch):
        pushes, peak, timeouts, flushes, pending = 0, 0, 0, 0, set()
        handled = Counter()  # events popped, by code
        regulated = (fhsim.engine._OFFER, fhsim.engine._REG_TIMEOUT)

        def counted_push(item):
            nonlocal pushes, timeouts
            if item[2] in regulated:
                assert item[3] not in pending  # one offer or timeout per circuit
                pending.add(item[3])
                timeouts += item[2] == fhsim.engine._REG_TIMEOUT
            pushes += 1

        def counted_pop(item):
            handled[item[2]] += 1
            if item[2] in regulated:
                pending.remove(item[3])

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
        assert pushes <= 1_075_140
        assert peak < 64
        # no timeout is superseded: each one pushed pops and flushes
        assert timeouts == flushes == 24
        assert handled == {
            fhsim.engine._OFFER: 5_050,
            fhsim.engine._REG_TIMEOUT: 24,
            fhsim.engine._ARRIVAL: 325_376,
            fhsim.engine._PROC_DONE: 325_376,
            fhsim.engine._TX_DONE: 419_314,
        }
