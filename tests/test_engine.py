import math
from collections import deque
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from fhsim.engine import (
    N_CLASSES,
    CircuitFeed,
    CircuitStats,
    RegulatorPolicy,
    Scheduler,
    SwitchConfig,
    SwitchState,
    World,
    _Port,
    run,
)
import fhsim.engine
from fhsim.metrics import assemble_report
from fhsim.packet import MAX_LABEL
from fhsim.topology import Node, NodeKind, PhysLink, PhysicalTopology
from metrics_oracle import percentile
from regulator_oracle import regulate
from scheduler_oracle import SteppingWrr, oldest_first_pick, strict_priority_pick


def policy(frame=1000, timeout=1e-3):
    return RegulatorPolicy(max_frame_bytes=frame, frame_timeout=timeout)


class TestRegulate:
    def test_constant_full_frames(self):
        # 8,000 bits/subframe at 1,000-byte frames: one full packet per subframe
        emissions = regulate([8000.0] * 5, 1e-3, policy(), label=3, latency_class=1)
        assert len(emissions) == 5
        for k, (t, pkt) in enumerate(emissions):
            assert t == k * 1e-3
            assert pkt.header.payload_len == 1000
            assert pkt.header.label == 3
            assert pkt.header.seq == k

    def test_zero_volume_no_packets(self):
        assert regulate([0.0] * 10, 1e-3, policy(), 1, 0) == []

    def test_timeout_rounds_up_to_whole_bytes(self):
        emissions = regulate([100.0], 1e-3, policy(frame=1000, timeout=2e-3), 1, 0)
        assert len(emissions) == 1
        t, pkt = emissions[0]
        assert t == 2e-3
        assert pkt.header.payload_len == 13  # ceil(100 / 8)

    def test_no_bit_lost_or_duplicated(self):
        volumes = [12345.0, 0.0, 777.0, 65536.0]
        emissions = regulate(volumes, 1e-3, policy(frame=512), 1, 0)
        emitted_payload = sum(p.header.payload_len * 8 for _, p in emissions)
        offered = sum(volumes)
        assert offered <= emitted_payload < offered + 8 * len(emissions)

    def test_seq_wraps_mod_2_16(self):
        emissions = regulate([8000.0 * 70000], 1e-3, policy(), 1, 0)
        seqs = [p.header.seq for _, p in emissions]
        assert len(seqs) == 70000
        assert seqs[65535] == 65535
        assert seqs[65536] == 0

    def test_dust_remainder_emits_no_frame(self):
        # 5e-6 bits pass the offer's dust gate but round to 0 bytes at the timeout
        assert regulate([5e-6], 1e-3, RegulatorPolicy(1000, 1e-3), 1, 0) == []

    def test_dust_remainder_leaves_no_backlog_in_a_run(self):
        feed = CircuitFeed("s", 0, 0, 0, 5, 0, RegulatorPolicy(1000, 1e-3), [5e-6], 1e-3)
        res = run(World(direct_link_topo(), {}, [feed], {(1, 0, 5): ("s", 0)}), horizon=0.1)
        assert res.total().injected == 0
        assert res.regulator_backlog_bits == {"s/0": 0.0}

    def test_dust_kept_from_popped_chunks_does_not_crash_a_run(self):
        # the second offer's chunk is popped with dust left that stays
        # buffered, so the third offer's frame finds its chunks short
        volumes = [524279.999999, 2e-06, 524279.999999]
        feed = CircuitFeed("s", 0, 0, 0, 5, 0, RegulatorPolicy(0xFFFF, 1e-3), volumes, 1e-3)
        res = run(World(direct_link_topo(), {}, [feed], {(1, 0, 5): ("s", 0)}), horizon=0.1)
        assert res.total().delivered == 2
        assert res.regulator_backlog_bits == {"s/0": 0.0}

    def test_created_at_is_first_bit_arrival(self):
        # 4,000 bits at t=0 and 4,000 at t=1ms fill one 1,000-byte frame
        emissions = regulate([4000.0, 4000.0], 1e-3, policy(frame=1000, timeout=5e-3), 1, 0)
        assert len(emissions) == 1
        t, pkt = emissions[0]
        assert t == 1e-3
        assert pkt.created_at == 0.0


def direct_link_topo(capacity=1e9, prop=1e-5):
    nodes = [Node(0, NodeKind.RRH, 1, "rrh"), Node(1, NodeKind.BBU, 1, "bbu")]
    return PhysicalTopology(nodes, [PhysLink(0, 0, 1, 0, capacity, prop)])


def one_switch_topo(capacity=1e9, prop=0.0):
    nodes = [
        Node(0, NodeKind.RRH, 1, "rrh0"),
        Node(1, NodeKind.RRH, 1, "rrh1"),
        Node(2, NodeKind.FH_SWITCH, 3, "s"),
        Node(3, NodeKind.BBU, 1, "bbu"),
    ]
    links = [
        PhysLink(0, 0, 2, 0, capacity, prop),
        PhysLink(1, 0, 2, 1, capacity, prop),
        PhysLink(2, 2, 3, 0, capacity, prop),
    ]
    return PhysicalTopology(nodes, links)


class TestRun:
    def test_single_packet_latency_identity(self):
        topo = direct_link_topo()
        feed = CircuitFeed("s", 0, 0, 0, 5, 0, policy(), [8000.0], 1e-3)
        world = World(topo, {}, [feed], {(1, 0, 5): ("s", 0)})
        res = run(world, horizon=0.1)
        assert list(res.sessions["s"].latencies) == [(1008 * 8) / 1e9 + 1e-5]

    def test_back_to_back_adds_serialization(self):
        topo = direct_link_topo()
        feed = CircuitFeed("s", 0, 0, 0, 5, 0, policy(), [16000.0], 1e-3)
        world = World(topo, {}, [feed], {(1, 0, 5): ("s", 0)})
        res = run(world, horizon=0.1)
        first, second = res.sessions["s"].latencies
        assert second == pytest.approx(first + (1008 * 8) / 1e9, rel=1e-12)

    def test_empty_world_empty_report(self):
        topo = direct_link_topo()
        world = World(topo, {}, [], {})
        res = run(world, horizon=0.1)
        assert res.sessions == {}
        assert res.total().injected == 0
        report = assemble_report(res)
        assert report.sessions == []
        assert report.total_bits_carried == 0

    def test_label_swap_through_switch(self):
        topo = one_switch_topo()
        switch = SwitchState()
        switch.install(0, 7, ((2, 9),))
        feed = CircuitFeed("s", 0, 0, 0, 7, 0, policy(), [8000.0], 1e-3)
        world = World(topo, {2: switch}, [feed], {(3, 0, 9): ("s", 0)})
        res = run(world, horizon=0.1)
        assert res.sessions["s"].totals().delivered == 1
        assert {(p.src, p.dst) for p in res.ports if p.utilization > 0} == {(0, 2), (2, 3)}

    def test_egress_bound_to_a_session_without_feed_is_refused(self):
        topo = one_switch_topo()
        switch = SwitchState()
        switch.install(0, 7, ((2, 9),))
        feed = CircuitFeed("s", 0, 0, 0, 7, 0, policy(), [8000.0], 1e-3)
        world = World(topo, {2: switch}, [feed], {(3, 0, 9): ("other", 0)})
        with pytest.raises(ValueError, match=r"egress binds sessions with no circuit feed: \['other'\]"):
            run(world, horizon=0.1)

    def test_missing_entry_counts_unroutable(self):
        topo = one_switch_topo()
        switch = SwitchState()  # no entries installed
        feed = CircuitFeed("s", 0, 0, 0, 7, 0, policy(), [8000.0], 1e-3)
        world = World(topo, {2: switch}, [feed], {})
        res = run(world, horizon=0.1)
        totals = res.sessions["s"].totals()
        assert totals.dropped_unroutable == 1
        assert totals.delivered == 0

    def test_strict_priority_beats_lower_class(self):
        # both RRHs burst at t=0 into the shared switch->bbu port
        topo = one_switch_topo(capacity=1e8)
        switch = SwitchState()
        switch.install(0, 1, ((2, 10),))
        switch.install(1, 1, ((2, 11),))
        urgent = CircuitFeed("hi", 0, 0, 0, 1, 0, policy(), [80000.0] * 3, 1e-3)
        bulk = CircuitFeed("lo", 0, 1, 0, 1, 3, policy(), [80000.0] * 3, 1e-3)
        egress = {(3, 0, 10): ("hi", 0), (3, 0, 11): ("lo", 0)}
        config = SwitchConfig(scheduler=Scheduler.STRICT_PRIORITY)
        world = World(topo, {2: switch}, [bulk, urgent], egress, config)
        res = run(world, horizon=0.1)
        assert max(res.sessions["hi"].latencies) < max(res.sessions["lo"].latencies)

    def test_fifo_serves_in_arrival_order(self):
        topo = one_switch_topo(capacity=1e8)
        switch = SwitchState()
        switch.install(0, 1, ((2, 10),))
        switch.install(1, 1, ((2, 11),))
        # bulk (class 3) injected first; FIFO must not let class 0 overtake
        bulk = CircuitFeed("lo", 0, 1, 0, 1, 3, policy(), [80000.0], 1e-3)
        urgent = CircuitFeed("hi", 0, 0, 0, 1, 0, policy(), [80000.0], 1e-3)
        egress = {(3, 0, 10): ("hi", 0), (3, 0, 11): ("lo", 0)}
        world = World(topo, {2: switch}, [bulk, urgent], egress, SwitchConfig(scheduler=Scheduler.FIFO))
        res = run(world, horizon=0.1)
        assert min(res.sessions["lo"].latencies) < min(res.sessions["hi"].latencies)

    def test_wrr_shares_by_weight(self):
        # sustained backlog: class 0 weighted 3x over class 3
        weights = list((1,) * 16)
        weights[0] = 3
        topo = one_switch_topo(capacity=8e6)  # 1,008-byte frame per ms, always busy
        config = SwitchConfig(scheduler=Scheduler.WRR, wrr_weights=tuple(weights), queue_bytes=10**7)
        switch = SwitchState()
        switch.install(0, 1, ((2, 10),))
        switch.install(1, 1, ((2, 11),))
        a = CircuitFeed("a", 0, 0, 0, 1, 0, policy(), [64000.0] * 50, 1e-3)
        b = CircuitFeed("b", 0, 1, 0, 1, 3, policy(), [64000.0] * 50, 1e-3)
        world = World(topo, {2: switch}, [a, b], {(3, 0, 10): ("a", 0), (3, 0, 11): ("b", 0)}, config)
        res = run(world, horizon=0.05)
        da = res.sessions["a"].totals().delivered
        db = res.sessions["b"].totals().delivered
        assert da > 1.5 * db  # close to 3x modulo edge effects

    def test_overflow_counted_never_silent(self):
        # fast ingress feeding a slow egress link behind a tiny queue
        nodes = [
            Node(0, NodeKind.RRH, 1),
            Node(1, NodeKind.FH_SWITCH, 2),
            Node(2, NodeKind.BBU, 1),
        ]
        links = [PhysLink(0, 0, 1, 0, 1e8), PhysLink(1, 1, 2, 0, 1e6)]
        topo = PhysicalTopology(nodes, links)
        switch = SwitchState()
        switch.install(0, 1, ((1, 10),))
        # a frame a subframe: the host sends each before the next, while
        # the switch's 8 ms per frame falls behind
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(), [8000.0] * 10, 1e-3)
        config = SwitchConfig(queue_bytes=2000)  # fits one 1,008B frame
        world = World(topo, {1: switch}, [feed], {(2, 0, 10): ("s", 0)}, config)
        res = run(world, horizon=2.0)
        totals = res.sessions["s"].totals()
        assert totals.injected == 10
        assert totals.dropped_overflow > 0
        # the host sent all ten frames, so the drops are at the switch
        sent = next(p.utilization for p in res.ports if p.src == 0) * 2.0
        assert sent == pytest.approx(10 * 1008 * 8 / 1e8, rel=1e-12)
        assert totals.injected == totals.delivered + totals.dropped_overflow + totals.in_flight

    def test_conservation_with_in_flight(self):
        topo = one_switch_topo(capacity=1e6, prop=1e-3)
        switch = SwitchState()
        switch.install(0, 1, ((2, 10),))
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(), [80000.0] * 20, 1e-3)
        world = World(topo, {2: switch}, [feed], {(3, 0, 10): ("s", 0)}, SwitchConfig(queue_bytes=10**6))
        res = run(world, horizon=0.012)  # cut mid-stream
        totals = res.sessions["s"].totals()
        assert totals.in_flight > 0
        assert totals.in_flight == res.residual_packets
        assert (
            totals.injected
            == totals.delivered + totals.dropped_unroutable + totals.dropped_overflow + totals.in_flight
        )

    def test_per_label_ordering_preserved(self):
        topo = one_switch_topo(capacity=1e8)
        switch = SwitchState()
        switch.install(0, 1, ((2, 10),))
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(frame=100), [80000.0] * 30, 1e-3)
        world = World(topo, {2: switch}, [feed], {(3, 0, 10): ("s", 0)})
        res = run(world, horizon=0.5)
        assert res.sessions["s"].totals().out_of_order == 0
        assert res.sessions["s"].totals().delivered == 3000  # 100 frames x 30 subframes

    def test_regulator_depth_reported(self):
        # big frames and a lazy timeout: five subframes pool per emission
        topo = direct_link_topo()
        feed = CircuitFeed(
            "s", 0, 0, 0, 5, 0, policy(frame=5000, timeout=10e-3), [8000.0] * 10, 1e-3
        )
        world = World(topo, {}, [feed], {(1, 0, 5): ("s", 0)})
        res = run(world, horizon=0.1)
        assert res.regulator_peak_bits["s/0"] == 40000.0  # 5 x 8,000 bits = one frame
        assert res.regulator_backlog_bits["s/0"] == 0.0

    def test_work_conservation_on_saturated_link(self):
        # offered exactly fills the horizon: the link must never idle
        topo = direct_link_topo(capacity=8.064e6, prop=0.0)  # 1 frame per ms
        feed = CircuitFeed("s", 0, 0, 0, 5, 0, policy(), [8000.0] * 100, 1e-3)
        world = World(topo, {}, [feed], {(1, 0, 5): ("s", 0)})
        res = run(world, horizon=0.1)
        out_port = next(p for p in res.ports if p.src == 0)
        assert out_port.utilization == pytest.approx(1.0, abs=1e-9)

    def test_header_processing_delay_added(self):
        topo = one_switch_topo(capacity=1e9, prop=0.0)
        switch = SwitchState()
        switch.install(0, 1, ((2, 10),))
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(), [8000.0], 1e-3)
        config = SwitchConfig(header_processing_delay=7e-6)
        world = World(topo, {2: switch}, [feed], {(3, 0, 10): ("s", 0)}, config)
        res = run(world, horizon=0.1)
        assert list(res.sessions["s"].latencies) == [2 * (1008 * 8) / 1e9 + 7e-6]

    def test_replication_at_branch_switch(self):
        nodes = [
            Node(0, NodeKind.RRH, 1),
            Node(1, NodeKind.FH_SWITCH, 3),
            Node(2, NodeKind.BBU, 1),
            Node(3, NodeKind.BBU, 1),
        ]
        links = [
            PhysLink(0, 0, 1, 0, 1e9),
            PhysLink(1, 1, 2, 0, 1e9),
            PhysLink(1, 2, 3, 0, 1e9),
        ]
        topo = PhysicalTopology(nodes, links)
        switch = SwitchState()
        switch.install(0, 1, ((1, 10), (2, 11)))
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(), [8000.0] * 3, 1e-3)
        world = World(topo, {1: switch}, [feed], {(2, 0, 10): ("s", 0), (3, 0, 11): ("s", 1)})
        res = run(world, horizon=0.1)
        totals = res.sessions["s"].totals()
        assert totals.injected == 3
        assert totals.replicated == 3
        assert totals.delivered == 6
        assert totals.injected + totals.replicated == totals.delivered

    def test_hand_computed_contention_timeline(self):
        # Two hosts fire one 1,000-byte frame each at t=0 through one
        # switch (2 us header processing) onto a shared 1 Gbps egress,
        # 1 us propagation per link. Hand timeline, all times in us:
        #   host tx 8.064, arrive switch 9.064, lookup done 11.064;
        #   first frame departs 11.064..19.128, delivered 20.128;
        #   second frame waits, departs 19.128..27.192, delivered 28.192.
        # Injection order breaks the tie, so session a wins the port.
        topo = one_switch_topo(capacity=1e9, prop=1e-6)
        switch = SwitchState()
        switch.install(0, 1, ((2, 10),))
        switch.install(1, 1, ((2, 11),))
        feeds = [
            CircuitFeed("a", 0, 0, 0, 1, 0, policy(), [8000.0], 1e-3),
            CircuitFeed("b", 0, 1, 0, 1, 0, policy(), [8000.0], 1e-3),
        ]
        egress = {(3, 0, 10): ("a", 0), (3, 0, 11): ("b", 0)}
        world = World(topo, {2: switch}, feeds, egress, SwitchConfig(header_processing_delay=2e-6))
        res = run(world, horizon=0.01)
        ser = 1008 * 8 / 1e9
        assert list(res.sessions["a"].latencies) == [pytest.approx(2 * ser + 2e-6 + 2e-6, rel=1e-12)]
        assert list(res.sessions["b"].latencies) == [pytest.approx(3 * ser + 2e-6 + 2e-6, rel=1e-12)]

    def test_determinism_identical_runs(self):
        topo = one_switch_topo(capacity=1e8)
        def build():
            switch = SwitchState()
            switch.install(0, 1, ((2, 10),))
            switch.install(1, 1, ((2, 11),))
            feeds = [
                CircuitFeed("a", 0, 0, 0, 1, 0, policy(frame=300), [50000.0] * 40, 1e-3),
                CircuitFeed("b", 0, 1, 0, 1, 2, policy(frame=700), [30000.0] * 40, 1e-3),
            ]
            return World(topo, {2: switch}, feeds, {(3, 0, 10): ("a", 0), (3, 0, 11): ("b", 0)})

        r1 = run(build(), horizon=0.1)
        r2 = run(build(), horizon=0.1)
        assert r1.sessions["a"].latencies.counts == r2.sessions["a"].latencies.counts
        assert r1.sessions["b"].latencies.counts == r2.sessions["b"].latencies.counts
        assert [p.__dict__ for p in r1.ports] == [p.__dict__ for p in r2.ports]


    def test_two_level_tree_branches_keep_own_label_and_path(self):
        # rrh 0 - switch 1 -+- bbu 3
        #                   +- switch 2 -+- bbu 4
        #                                +- bbu 5
        world = two_level_tree_world()
        res = run(world, horizon=0.1)
        stats = res.sessions["s"]
        busy = {(p.src, p.dst) for p in res.ports if p.utilization > 0}
        assert busy == {(0, 1), (1, 3), (1, 2), (2, 4), (2, 5)}
        for cid in (0, 1, 2):  # each leaf got every frame under its own label
            assert stats.circuits[cid].delivered == 5
            assert stats.circuits[cid].out_of_order == 0
        totals = stats.totals()
        assert (totals.injected, totals.replicated, totals.dropped_unroutable) == (5, 10, 0)

    def test_rerun_of_one_world_is_identical(self):
        world = two_level_tree_world(capacity=1e8, volume=90000.0)
        r1 = run(world, horizon=0.02)
        r2 = run(world, horizon=0.02)
        assert r1.total().delivered > 0
        assert [p.__dict__ for p in r1.ports] == [p.__dict__ for p in r2.ports]
        assert r1.sessions["s"].latencies.counts == r2.sessions["s"].latencies.counts
        assert r1.total() == r2.total()


class RecordedVolumes(Sequence):
    """A feed's volumes that record the highest index read."""

    def __init__(self, values):
        self.values, self.highest = values, -1

    def __len__(self):
        return len(self.values)

    def __getitem__(self, sf):
        self.highest = max(self.highest, sf)
        return self.values[sf]


class TestVolumesReadLazily:
    def test_no_feed_is_read_past_its_first_offer_before_the_first_event(self, monkeypatch):
        # feed 0 offers from subframe 2 on, feed 1 from subframe 0; both run past the horizon
        volumes = [RecordedVolumes([0.0, 0.0] + [8000.0] * 48), RecordedVolumes([8000.0] * 50)]
        feeds = [CircuitFeed("s", cid, 0, 0, 5 + cid, 0, policy(), v, 1e-3) for cid, v in enumerate(volumes)]
        world = World(direct_link_topo(), {}, feeds, {(1, 0, 5): ("s", 0), (1, 0, 6): ("s", 1)})
        read_at_first_event = []
        real_offer = fhsim.engine.Regulator.offer

        def offer(reg, now, bits):
            if not read_at_first_event:
                read_at_first_event.extend(v.highest for v in volumes)
            return real_offer(reg, now, bits)

        monkeypatch.setattr(fhsim.engine.Regulator, "offer", offer)
        result = run(world, horizon=0.0105)
        assert read_at_first_event == [2, 0]
        assert [v.highest for v in volumes] == [10, 10]  # subframe 10 is the last within the horizon
        monkeypatch.undo()
        plain = [CircuitFeed("s", cid, 0, 0, 5 + cid, 0, policy(), v.values, 1e-3) for cid, v in enumerate(volumes)]
        assert run(World(world.topology, {}, plain, world.egress), horizon=0.0105) == result


def two_level_tree_world(capacity=1e9, volume=8000.0):
    nodes = [
        Node(0, NodeKind.RRH, 1),
        Node(1, NodeKind.FH_SWITCH, 3),
        Node(2, NodeKind.FH_SWITCH, 3),
        Node(3, NodeKind.BBU, 1),
        Node(4, NodeKind.BBU, 1),
        Node(5, NodeKind.BBU, 1),
    ]
    links = [
        PhysLink(0, 0, 1, 0, capacity, 1e-6),
        PhysLink(1, 1, 2, 0, capacity, 1e-6),
        PhysLink(1, 2, 3, 0, capacity, 1e-6),
        PhysLink(2, 1, 4, 0, capacity, 1e-6),
        PhysLink(2, 2, 5, 0, capacity, 1e-6),
    ]
    first, second = SwitchState(), SwitchState()
    first.install(0, 1, ((1, 20), (2, 30)))
    second.install(0, 20, ((1, 40), (2, 50)))
    feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(), [volume] * 5, 1e-3)
    egress = {(3, 0, 30): ("s", 0), (4, 0, 40): ("s", 1), (5, 0, 50): ("s", 2)}
    return World(PhysicalTopology(nodes, links), {1: first, 2: second}, [feed], egress)


def link(**fields):
    return PhysLink(0, 0, 1, 0, **{"capacity": 1e9, **fields})


def rrh_switch_bbu_world(ingress_port=0, out_port=1):
    """rrh 0 -> switch 1 (ports 0 and 1 linked, of 8) -> bbu 2, one circuit."""
    nodes = [Node(0, NodeKind.RRH, 1, "r"), Node(1, NodeKind.FH_SWITCH, 8, "s"), Node(2, NodeKind.BBU, 1, "b")]
    links = [PhysLink(0, 0, 1, 0, 1e9), PhysLink(1, 1, 2, 0, 1e9)]
    switch = SwitchState()
    switch.install(0, 7, ((out_port, 9),))
    feed = CircuitFeed("s", 0, 0, ingress_port, 7, 0, policy(), [8000.0], 1e-3)
    return World(PhysicalTopology(nodes, links), {1: switch}, [feed], {(2, 0, 9): ("s", 0)})


class TestHandBuiltWorldIsChecked:
    @pytest.mark.parametrize("bits", [math.inf, -math.inf, math.nan])
    def test_feed_refuses_non_finite_volumes(self, bits):
        # an infinite offer would keep the regulator framing forever
        with pytest.raises(ValueError, match="volumes must be finite"):
            CircuitFeed("s", 0, 0, 0, 5, 0, policy(), [8000.0, bits], 1e-3)

    @pytest.mark.parametrize("duration", [-1e-3, math.inf, math.nan])
    def test_feed_refuses_a_subframe_duration_out_of_time_order(self, duration):
        with pytest.raises(ValueError, match="subframe_duration"):
            CircuitFeed("s", 0, 0, 0, 5, 0, policy(), [8000.0], duration)

    @pytest.mark.parametrize("horizon", [-1.0, math.inf, math.nan])
    def test_run_refuses_a_horizon_that_is_not_finite_and_non_negative(self, horizon):
        # an infinite horizon reads every utilization as 0, and nan runs nothing
        world = World(direct_link_topo(), {}, [], {})
        with pytest.raises(ValueError, match="horizon must be finite"):
            run(world, horizon)

    @pytest.mark.parametrize(
        "make, field",
        [
            (RegulatorPolicy, "frame_timeout"),
            (SwitchConfig, "header_processing_delay"),
            (link, "capacity"),
            (link, "propagation_delay"),
            (link, "jitter_std"),
        ],
    )
    def test_config_refuses_nan(self, make, field):
        # a NaN deadline or arrival time fails `<= horizon` and ends the run early
        with pytest.raises(ValueError, match=field):
            make(**{field: math.nan})

    def test_run_refuses_a_feed_whose_ingress_has_no_link(self):
        assert run(rrh_switch_bbu_world(), 0.1).total().delivered == 1
        with pytest.raises(ValueError, match=r"feed s/0: ingress \(node, port\) \(0, 5\) has no link"):
            run(rrh_switch_bbu_world(ingress_port=5), 0.1)

    def test_run_refuses_two_feeds_that_inject_one_label_at_one_port(self):
        # both streams would reach the one binding of that label: a read as all in
        # flight and b as twice delivered, with a negative count in flight
        feeds = [CircuitFeed(sid, 0, 0, 0, 5, 0, policy(), [8000.0] * 3, 1e-3) for sid in ("a", "b")]
        world = World(direct_link_topo(), {}, feeds, {(1, 0, 5): ("a", 0), (1, 0, 6): ("b", 0)})
        with pytest.raises(ValueError, match=r"feeds a/0 and b/0 both inject label 5 at \(node, port\) \(0, 0\)"):
            run(world, 0.1)
        feeds[1].label = 6
        result = run(world, 0.1)
        assert [result.sessions[sid].totals().delivered for sid in ("a", "b")] == [3, 3]

    def test_run_refuses_an_entry_that_forwards_to_a_port_with_no_link(self):
        with pytest.raises(ValueError, match=r"node 1's entry \(0, 7\) forwards to port 7, which has no link"):
            run(rrh_switch_bbu_world(out_port=7), 0.1)

    def test_run_refuses_an_entry_at_a_port_with_no_link(self):
        # no packet can reach port 5, so the entry could never be used
        world = rrh_switch_bbu_world()
        world.switches[1].install(5, 7, ((1, 9),))
        with pytest.raises(ValueError, match=r"node 1's entry \(5, 7\) is at port 5, which has no link"):
            run(world, 0.1)

    def test_run_refuses_an_egress_binding_at_a_port_with_no_link(self):
        world = rrh_switch_bbu_world()
        world.egress[(2, 3, 9)] = ("s", 0)
        message = r"egress binding \(2, 3, 9\) of s/0: \(node, port\) \(2, 3\) has no link"
        with pytest.raises(ValueError, match=message):
            run(world, 0.1)

    def test_run_refuses_an_egress_binding_at_a_switch(self):
        # a switch relays every arrival, so the binding could never deliver
        world = rrh_switch_bbu_world()
        world.egress[(1, 0, 7)] = ("s", 3)
        with pytest.raises(ValueError, match=r"egress binding \(1, 0, 7\) of s/3: node 1 is a switch"):
            run(world, 0.1)

    def test_run_refuses_an_egress_binding_added_for_a_session_with_no_feed(self):
        world = rrh_switch_bbu_world()
        world.egress[(2, 0, 10)] = ("other", 0)
        with pytest.raises(ValueError, match=r"egress binds sessions with no circuit feed: \['other'\]"):
            run(world, 0.1)

    def test_every_bound_circuit_has_stats_from_the_start(self):
        # a leg that delivers nothing reads zeros rather than being absent
        world = rrh_switch_bbu_world()
        world.egress[(2, 0, 10)] = ("s", 1)
        circuits = run(world, 0.1).sessions["s"].circuits
        assert circuits[0].delivered == 1
        assert circuits[1] == CircuitStats()

    @pytest.mark.parametrize("weights", [(0,) + (1,) * (N_CLASSES - 1), (1,) * (N_CLASSES - 1)])
    def test_config_refuses_wrr_weights_that_miss_a_class(self, weights):
        with pytest.raises(ValueError, match="wrr_weights"):
            SwitchConfig(wrr_weights=weights)

    def test_config_refuses_an_infinite_header_processing_delay(self):
        # every admission would be latency-unreachable
        with pytest.raises(ValueError, match="header_processing_delay"):
            SwitchConfig(header_processing_delay=math.inf)


class TestLabelRange:
    @pytest.mark.parametrize(
        "label, outputs",
        [
            (MAX_LABEL + 1, ((2, 9),)),
            (-1, ((2, 9),)),
            (7, ((2, MAX_LABEL + 1),)),
            (7, ((2, 9), (1, -1))),
        ],
    )
    def test_install_rejects_out_of_range_labels(self, label, outputs):
        switch = SwitchState()
        with pytest.raises(ValueError, match="label out of range"):
            switch.install(0, label, outputs)
        assert switch.table == {}

    def test_install_rejects_an_entry_with_no_output(self):
        # a packet matching it would have nowhere to go
        switch = SwitchState()
        with pytest.raises(ValueError, match=r"entry \(0, 7\) has no output"):
            switch.install(0, 7, ())
        assert switch.table == {}

    def test_install_accepts_full_range(self):
        switch = SwitchState()
        switch.install(0, 0, ((2, MAX_LABEL),))
        switch.install(0, MAX_LABEL, ((2, 0),))
        assert len(switch.table) == 2

    def test_feed_label_checked_at_construction(self):
        with pytest.raises(ValueError, match="label out of range"):
            CircuitFeed("s", 0, 0, 0, MAX_LABEL + 1, 0, policy(), [8000.0], 1e-3)


class TestStrictPriorityDominance:
    def test_class0_p99_under_sp_not_worse_than_fifo(self):
        def world_with(scheduler):
            topo = one_switch_topo(capacity=1e8)
            switch = SwitchState()
            switch.install(0, 1, ((2, 10),))
            switch.install(1, 1, ((2, 11),))
            urgent = CircuitFeed("hi", 0, 0, 0, 1, 0, policy(frame=500), [40000.0] * 60, 1e-3)
            bulk = CircuitFeed("lo", 0, 1, 0, 1, 7, policy(frame=1400), [48000.0] * 60, 1e-3)
            egress = {(3, 0, 10): ("hi", 0), (3, 0, 11): ("lo", 0)}
            return World(topo, {2: switch}, [bulk, urgent], egress, SwitchConfig(scheduler, queue_bytes=10**7))

        sp = run(world_with(Scheduler.STRICT_PRIORITY), horizon=0.1)
        fifo = run(world_with(Scheduler.FIFO), horizon=0.1)
        assert percentile(sp.sessions["hi"].latencies, 99) <= percentile(
            fifo.sessions["hi"].latencies, 99
        )


class TestPickMatchesSteppingReference:
    """`_Port.pick` jumps over empty lanes; the reference steps through the
    classes. A FIFO port queues every class in one lane; its reference
    serves the oldest packet across the classes."""

    # Each op is (class, n): enqueue n packets in that class, or with
    # None, pick n times. A few classes per example, in bursts, so that
    # one class is often alone and its credit runs out and wraps round.
    ops = st.lists(st.integers(0, N_CLASSES - 1), min_size=1, max_size=4, unique=True).flatmap(
        lambda classes: st.lists(
            st.tuples(st.one_of(st.sampled_from(classes), st.none()), st.integers(1, 8)), max_size=60
        )
    )

    @staticmethod
    def replay(scheduler, weights, reference_pick, ops):
        config = SwitchConfig(scheduler, weights)
        port = _Port(0, 0, PhysLink(0, 0, 1, 0, capacity=1e9), None)
        shadow = [deque() for _ in range(N_CLASSES)]
        steps = [cls for cls, n in ops for _ in range(n)]
        for tag, cls in enumerate(steps):
            if cls is not None:
                lane = cls & config.lane_mask  # as the engine's enqueue does
                port.queues[lane].append((cls, tag))  # stands in for a packet
                port.nonempty |= 1 << lane
                shadow[cls].append((cls, tag))
            elif any(shadow):
                assert port.pick(config.wrr_credits) == reference_pick(shadow)
        assert port.nonempty == sum({1 << (cls & config.lane_mask) for cls, q in enumerate(shadow) if q})

    @given(weights=st.lists(st.integers(1, 4), min_size=N_CLASSES, max_size=N_CLASSES), ops=ops)
    @settings(max_examples=300, deadline=None)
    def test_wrr(self, weights, ops):
        self.replay(Scheduler.WRR, tuple(weights), SteppingWrr(tuple(weights)).pick, ops)

    @given(ops=ops)
    @settings(max_examples=100, deadline=None)
    def test_strict_priority(self, ops):
        self.replay(Scheduler.STRICT_PRIORITY, (1,) * N_CLASSES, strict_priority_pick, ops)

    @given(ops=ops)
    @settings(max_examples=100, deadline=None)
    def test_fifo(self, ops):
        self.replay(Scheduler.FIFO, (1,) * N_CLASSES, oldest_first_pick, ops)
