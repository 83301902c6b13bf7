import pytest

from fhsim.engine import (
    CircuitFeed,
    RegulatorPolicy,
    Scheduler,
    SwitchConfig,
    SwitchState,
    World,
    regulate,
    run,
)
from fhsim.metrics import assemble_report
from fhsim.packet import MAX_LABEL
from fhsim.topology import Node, NodeKind, PhysLink, PhysicalTopology


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
        assert res.sessions["s"].latencies == [(1008 * 8) / 1e9 + 1e-5]

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
        switch = SwitchState(SwitchConfig())
        switch.install(0, 7, ((2, 9),))
        feed = CircuitFeed("s", 0, 0, 0, 7, 0, policy(), [8000.0], 1e-3)
        world = World(topo, {2: switch}, [feed], {(3, 0, 9): ("s", 0)})
        res = run(world, horizon=0.1)
        assert res.sessions["s"].totals().delivered == 1
        assert res.sessions["s"].delivered_paths == {(0, 2, 3)}

    def test_missing_entry_counts_unroutable(self):
        topo = one_switch_topo()
        switch = SwitchState(SwitchConfig())  # no entries installed
        feed = CircuitFeed("s", 0, 0, 0, 7, 0, policy(), [8000.0], 1e-3)
        world = World(topo, {2: switch}, [feed], {})
        res = run(world, horizon=0.1)
        totals = res.sessions["s"].totals()
        assert totals.dropped_unroutable == 1
        assert totals.delivered == 0

    def test_strict_priority_beats_lower_class(self):
        # both RRHs burst at t=0 into the shared switch->bbu port
        topo = one_switch_topo(capacity=1e8)
        switch = SwitchState(SwitchConfig(scheduler=Scheduler.STRICT_PRIORITY))
        switch.install(0, 1, ((2, 10),))
        switch.install(1, 1, ((2, 11),))
        urgent = CircuitFeed("hi", 0, 0, 0, 1, 0, policy(), [80000.0] * 3, 1e-3)
        bulk = CircuitFeed("lo", 0, 1, 0, 1, 3, policy(), [80000.0] * 3, 1e-3)
        world = World(topo, {2: switch}, [bulk, urgent], {(3, 0, 10): ("hi", 0), (3, 0, 11): ("lo", 0)})
        res = run(world, horizon=0.1)
        assert max(res.sessions["hi"].latencies) < max(res.sessions["lo"].latencies)

    def test_fifo_serves_in_arrival_order(self):
        topo = one_switch_topo(capacity=1e8)
        switch = SwitchState(SwitchConfig(scheduler=Scheduler.FIFO))
        switch.install(0, 1, ((2, 10),))
        switch.install(1, 1, ((2, 11),))
        # bulk (class 3) injected first; FIFO must not let class 0 overtake
        bulk = CircuitFeed("lo", 0, 1, 0, 1, 3, policy(), [80000.0], 1e-3)
        urgent = CircuitFeed("hi", 0, 0, 0, 1, 0, policy(), [80000.0], 1e-3)
        world = World(topo, {2: switch}, [bulk, urgent], {(3, 0, 10): ("hi", 0), (3, 0, 11): ("lo", 0)})
        res = run(world, horizon=0.1)
        assert min(res.sessions["lo"].latencies) < min(res.sessions["hi"].latencies)

    def test_wrr_shares_by_weight(self):
        # sustained backlog: class 0 weighted 3x over class 3
        weights = list((1,) * 16)
        weights[0] = 3
        topo = one_switch_topo(capacity=8e6)  # 1,008-byte frame per ms, always busy
        switch = SwitchState(
            SwitchConfig(scheduler=Scheduler.WRR, wrr_weights=tuple(weights), queue_bytes=10**7)
        )
        switch.install(0, 1, ((2, 10),))
        switch.install(1, 1, ((2, 11),))
        a = CircuitFeed("a", 0, 0, 0, 1, 0, policy(), [64000.0] * 50, 1e-3)
        b = CircuitFeed("b", 0, 1, 0, 1, 3, policy(), [64000.0] * 50, 1e-3)
        world = World(topo, {2: switch}, [a, b], {(3, 0, 10): ("a", 0), (3, 0, 11): ("b", 0)})
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
        switch = SwitchState(SwitchConfig(queue_bytes=2000))  # fits one 1,008B frame
        switch.install(0, 1, ((1, 10),))
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(), [80000.0], 1e-3)
        world = World(topo, {1: switch}, [feed], {(2, 0, 10): ("s", 0)})
        res = run(world, horizon=2.0)
        totals = res.sessions["s"].totals()
        assert totals.injected == 10
        assert totals.dropped_overflow > 0
        assert totals.injected == totals.delivered + totals.dropped_overflow + totals.in_flight

    def test_conservation_with_in_flight(self):
        topo = one_switch_topo(capacity=1e6, prop=1e-3)
        switch = SwitchState(SwitchConfig(queue_bytes=10**6))
        switch.install(0, 1, ((2, 10),))
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(), [80000.0] * 20, 1e-3)
        world = World(topo, {2: switch}, [feed], {(3, 0, 10): ("s", 0)})
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
        switch = SwitchState(SwitchConfig())
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
        switch = SwitchState(SwitchConfig(header_processing_delay=7e-6))
        switch.install(0, 1, ((2, 10),))
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(), [8000.0], 1e-3)
        world = World(topo, {2: switch}, [feed], {(3, 0, 10): ("s", 0)})
        res = run(world, horizon=0.1)
        assert res.sessions["s"].latencies == [2 * (1008 * 8) / 1e9 + 7e-6]

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
        switch = SwitchState(SwitchConfig())
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
        switch = SwitchState(SwitchConfig(header_processing_delay=2e-6))
        switch.install(0, 1, ((2, 10),))
        switch.install(1, 1, ((2, 11),))
        feeds = [
            CircuitFeed("a", 0, 0, 0, 1, 0, policy(), [8000.0], 1e-3),
            CircuitFeed("b", 0, 1, 0, 1, 0, policy(), [8000.0], 1e-3),
        ]
        world = World(topo, {2: switch}, feeds, {(3, 0, 10): ("a", 0), (3, 0, 11): ("b", 0)})
        res = run(world, horizon=0.01)
        ser = 1008 * 8 / 1e9
        assert res.sessions["a"].latencies == [pytest.approx(2 * ser + 2e-6 + 2e-6, rel=1e-12)]
        assert res.sessions["b"].latencies == [pytest.approx(3 * ser + 2e-6 + 2e-6, rel=1e-12)]

    def test_determinism_identical_runs(self):
        topo = one_switch_topo(capacity=1e8)
        def build():
            switch = SwitchState(SwitchConfig())
            switch.install(0, 1, ((2, 10),))
            switch.install(1, 1, ((2, 11),))
            feeds = [
                CircuitFeed("a", 0, 0, 0, 1, 0, policy(frame=300), [50000.0] * 40, 1e-3),
                CircuitFeed("b", 0, 1, 0, 1, 2, policy(frame=700), [30000.0] * 40, 1e-3),
            ]
            return World(topo, {2: switch}, feeds, {(3, 0, 10): ("a", 0), (3, 0, 11): ("b", 0)})

        r1 = run(build(), horizon=0.1, seed=9)
        r2 = run(build(), horizon=0.1, seed=9)
        assert r1.sessions["a"].latencies == r2.sessions["a"].latencies
        assert r1.sessions["b"].latencies == r2.sessions["b"].latencies
        assert [p.__dict__ for p in r1.ports] == [p.__dict__ for p in r2.ports]


    def test_two_level_tree_branches_keep_own_label_and_path(self):
        # rrh 0 - switch 1 -+- bbu 3
        #                   +- switch 2 -+- bbu 4
        #                                +- bbu 5
        world = two_level_tree_world()
        res = run(world, horizon=0.1)
        stats = res.sessions["s"]
        assert stats.delivered_paths == {(0, 1, 3), (0, 1, 2, 4), (0, 1, 2, 5)}
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
        assert r1.sessions["s"].delivered_paths == r2.sessions["s"].delivered_paths
        assert r1.sessions["s"].latencies == r2.sessions["s"].latencies
        assert r1.total() == r2.total()


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
    first, second = SwitchState(SwitchConfig()), SwitchState(SwitchConfig())
    first.install(0, 1, ((1, 20), (2, 30)))
    second.install(0, 20, ((1, 40), (2, 50)))
    feed = CircuitFeed("s", 0, 0, 0, 1, 0, policy(), [volume] * 5, 1e-3)
    egress = {(3, 0, 30): ("s", 0), (4, 0, 40): ("s", 1), (5, 0, 50): ("s", 2)}
    return World(PhysicalTopology(nodes, links), {1: first, 2: second}, [feed], egress)


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
        switch = SwitchState(SwitchConfig())
        with pytest.raises(ValueError, match="label out of range"):
            switch.install(0, label, outputs)
        assert switch.table == {}

    def test_install_accepts_full_range(self):
        switch = SwitchState(SwitchConfig())
        switch.install(0, 0, ((2, MAX_LABEL),))
        switch.install(0, MAX_LABEL, ((2, 0),))
        assert len(switch.table) == 2

    def test_feed_label_checked_at_construction(self):
        with pytest.raises(ValueError, match="label out of range"):
            CircuitFeed("s", 0, 0, 0, MAX_LABEL + 1, 0, policy(), [8000.0], 1e-3)


class TestStrictPriorityDominance:
    def test_class0_p99_under_sp_not_worse_than_fifo(self):
        from fhsim.metrics import percentile

        def world_with(scheduler):
            topo = one_switch_topo(capacity=1e8)
            switch = SwitchState(SwitchConfig(scheduler=scheduler, queue_bytes=10**7))
            switch.install(0, 1, ((2, 10),))
            switch.install(1, 1, ((2, 11),))
            urgent = CircuitFeed("hi", 0, 0, 0, 1, 0, policy(frame=500), [40000.0] * 60, 1e-3)
            bulk = CircuitFeed("lo", 0, 1, 0, 1, 7, policy(frame=1400), [48000.0] * 60, 1e-3)
            return World(topo, {2: switch}, [bulk, urgent], {(3, 0, 10): ("hi", 0), (3, 0, 11): ("lo", 0)})

        sp = run(world_with(Scheduler.STRICT_PRIORITY), horizon=0.1)
        fifo = run(world_with(Scheduler.FIFO), horizon=0.1)
        assert percentile(sp.sessions["hi"].latencies, 99) <= percentile(
            fifo.sessions["hi"].latencies, 99
        )
