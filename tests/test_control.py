import random

import pytest

from fhsim.control import (
    LABEL_EXHAUSTED,
    LATENCY_UNREACHABLE,
    NO_BANDWIDTH,
    Controller,
    Infeasible,
    SessionRequest,
    compute_path,
)
from fhsim.engine import CircuitFeed, RegulatorPolicy, World, run
from fhsim.packet import MAX_LABEL
from fhsim.sync import ClockSource, build_sync_tree
from fhsim.topology import (
    AggregationToOneBbu,
    BbuToBbu,
    LogicalPattern,
    Node,
    NodeKind,
    PhysLink,
    PhysicalTopology,
    PointToPoint,
    Ring,
    RrhToMultiBbu,
    Star,
    build_topology,
)


def p2p(rrh, bbu, ue=None):
    return LogicalPattern(PointToPoint(rrh, bbu), ue_id=ue)


def request(pattern, peak=1e9, bound=1e-2, cls=1, frame=1000):
    return SessionRequest(
        pattern=pattern,
        mean_rate=peak / 2,
        peak_rate=peak,
        latency_class=cls,
        latency_bound=bound,
        policy=RegulatorPolicy(max_frame_bytes=frame),
    )


def star4():
    # hub 0; leaves: rrh 1, rrh 2, rrh 3, bbu 4
    return build_topology(Star(leaves=(NodeKind.RRH, NodeKind.RRH, NodeKind.RRH, NodeKind.BBU)))


def ring_topo():
    # switches 0..3; rrh 4 at switch 0, bbu 5 at switch 2
    return build_topology(
        Ring(n_switches=4, attachments=((0, NodeKind.RRH), (2, NodeKind.BBU)))
    )


class TestComputePathOracle:
    def test_matches_brute_force_on_1000_random_graphs(self):
        from routing_oracle import brute_force_route, random_reserved_graph

        rng = random.Random(20250809)
        checked = 0
        causes = {NO_BANDWIDTH: 0, LATENCY_UNREACHABLE: 0, None: 0}
        while checked < 1000:
            topo, reserved, hosts = random_reserved_graph(rng)
            if len(hosts) < 2:
                continue
            src, dst = rng.sample(hosts, 2)
            peak = rng.choice([1e8, 9e8, 3e9, 2e10])
            bound = rng.choice([2e-6, 2e-5, 1e-4, 1e-2])
            frame_wire = 1008

            def residual_of(key):
                return topo.link_between(*key).capacity - reserved[key]

            def proc_of(node):
                return 1e-6 if topo.nodes[node].kind is NodeKind.FH_SWITCH else 0.0

            expected_cause, expected_best = brute_force_route(
                topo, src, dst, peak, bound, frame_wire, proc_of, residual_of
            )
            try:
                path, cost = compute_path(
                    topo, src, dst, peak, bound, frame_wire, proc_of, residual_of
                )
                assert expected_cause is None
                assert (cost, path) == expected_best
            except Infeasible as exc:
                assert exc.cause == expected_cause
            causes[expected_cause] += 1
            checked += 1
        # the sweep must actually exercise all three outcomes
        assert all(count > 0 for count in causes.values())

    def test_direct_link_with_slack(self):
        topo = star4()
        path, cost = compute_path(
            topo, 1, 4, 1e9, 1.0, 1008, lambda n: 0.0, lambda k: 10e9
        )
        assert path == (1, 0, 4)

    def test_peak_above_all_capacities_is_no_bandwidth(self):
        topo = star4()
        with pytest.raises(Infeasible) as exc:
            compute_path(topo, 1, 4, 99e9, 1.0, 1008, lambda n: 0.0, lambda k: 10e9)
        assert exc.value.cause == NO_BANDWIDTH

    def test_propagation_alone_breaking_bound(self):
        # 150 us of propagation against a 100 us bound
        nodes = [Node(0, NodeKind.RRH, 1), Node(1, NodeKind.BBU, 1)]
        links = [PhysLink(0, 0, 1, 0, 10e9, propagation_delay=150e-6)]
        topo = PhysicalTopology(nodes, links)
        with pytest.raises(Infeasible) as exc:
            compute_path(topo, 0, 1, 1e9, 100e-6, 1008, lambda n: 0.0, lambda k: 10e9)
        assert exc.value.cause == LATENCY_UNREACHABLE


class TestSetupTeardown:
    def test_p2p_on_idle_star(self):
        controller = Controller(star4())
        session = controller.setup(request(p2p(1, 4)), name="p2p")
        assert [c.nodes for c in session.circuits] == [(1, 0, 4)]
        assert session.state == "active"
        # entry installed on the hub, egress bound at the bbu
        assert controller.switches[0].lookup(0, session.circuits[0].ingress_label) is not None
        assert (4, 0, session.circuits[0].egress_label) in controller.egress

    def test_aggregation_debits_sum_on_trunk(self):
        controller = Controller(star4())
        pattern = LogicalPattern(AggregationToOneBbu((1, 2, 3), 4))
        session = controller.setup(request(pattern, peak=2e9), name="agg")
        assert len(session.circuits) == 3
        trunk = (0, 4)
        assert controller.ledger.reserved(trunk) == 3 * 2e9
        for leaf in ((0, 1), (0, 2), (0, 3)):
            assert controller.ledger.reserved(leaf) == 2e9

    def test_aggregation_infeasible_when_trunk_exhausted(self):
        controller = Controller(star4())
        pattern = LogicalPattern(AggregationToOneBbu((1, 2, 3), 4))
        before = controller.ledger.snapshot()
        with pytest.raises(Infeasible) as exc:
            controller.setup(request(pattern, peak=9.8304e9), name="agg")
        assert exc.value.cause == NO_BANDWIDTH
        assert controller.ledger.snapshot() == before  # atomic: nothing charged
        assert all(not s.table for s in controller.switches.values())

    def test_multi_bbu_tree_debits_shared_link_once(self):
        # rrh 0 - switch 1 - {bbu 2, switch 3 - bbu 4}: branch at switch 1
        nodes = [
            Node(0, NodeKind.RRH, 1),
            Node(1, NodeKind.FH_SWITCH, 3),
            Node(2, NodeKind.BBU, 1),
            Node(3, NodeKind.FH_SWITCH, 2),
            Node(4, NodeKind.BBU, 1),
        ]
        links = [
            PhysLink(0, 0, 1, 0, 10e9),
            PhysLink(1, 1, 2, 0, 10e9),
            PhysLink(1, 2, 3, 0, 10e9),
            PhysLink(3, 1, 4, 0, 10e9),
        ]
        topo = PhysicalTopology(nodes, links)
        controller = Controller(topo)
        pattern = LogicalPattern(RrhToMultiBbu(0, (2, 4)))
        session = controller.setup(request(pattern, peak=3e9), name="tree")
        shared = (0, 1)
        assert controller.ledger.reserved(shared) == 3e9  # once, not per leg
        # one branch point: entry at switch 1 fans out to two outputs
        fan = [
            outs
            for (port, label), outs in controller.switches[1].table.items()
            if len(outs) == 2
        ]
        assert len(fan) == 1
        assert len(session.circuits) == 2

    def test_teardown_restores_ledger_exactly(self):
        controller = Controller(star4())
        initial = controller.ledger.snapshot()
        session = controller.setup(request(p2p(1, 4), peak=7e9), name="x")
        assert controller.ledger.snapshot() != initial
        controller.teardown(session)
        assert controller.ledger.snapshot() == initial
        assert session.state == "torn_down"
        assert all(not s.table for s in controller.switches.values())
        assert not controller.egress

    def test_tree_teardown_restores_control_state(self):
        # the legs share the entry and label on the rrh-to-switch link
        controller = Controller(two_bbu_branch())
        before = control_state(controller)
        session = controller.setup(request(LogicalPattern(RrhToMultiBbu(0, (2, 4)))), name="tree")
        assert control_state(controller) != before
        controller.teardown(session)
        assert control_state(controller) == before

    def test_teardown_idempotent(self):
        controller = Controller(star4())
        session = controller.setup(request(p2p(1, 4)), name="x")
        controller.teardown(session)
        snap = controller.ledger.snapshot()
        controller.teardown(session)  # second is a no-op
        assert controller.ledger.snapshot() == snap

    def test_random_interleavings_restore_initial_ledger(self):
        rng = random.Random(7)
        for trial in range(100):
            controller = Controller(star4())
            initial = controller.ledger.snapshot()
            live = []
            for step in range(rng.randint(1, 12)):
                if live and rng.random() < 0.4:
                    controller.teardown(live.pop(rng.randrange(len(live))))
                else:
                    rrh = rng.choice([1, 2, 3])
                    peak = rng.choice([1e9, 2e9, 3e9])
                    try:
                        live.append(
                            controller.setup(request(p2p(rrh, 4), peak=peak))
                        )
                    except Infeasible:
                        pass
                for key in controller.ledger.link_keys():
                    assert controller.ledger.residual(key) >= 0
            for session in live:
                controller.teardown(session)
            assert controller.ledger.snapshot() == initial

    def test_labels_unique_per_node_port(self):
        controller = Controller(star4())
        for rrh in (1, 2, 3):
            controller.setup(request(p2p(rrh, 4), peak=1e9))
        seen = set()
        for (node, in_port, label), _ in controller.egress.items():
            key = (node, in_port, label)
            assert key not in seen
            seen.add(key)
        hub = controller.switches[0]
        assert len(hub.table) == 3  # one entry per circuit, distinct keys


class TestEgressBindings:
    def test_same_label_on_two_ports_of_one_bbu(self):
        controller = Controller(two_port_bbu())
        first = controller.setup(request(p2p(0, 4)), name="s0")
        second = controller.setup(request(p2p(1, 4)), name="s1")
        # labels are scoped per arrival port, so both legs arrive with label 0
        assert first.circuits[0].egress_label == second.circuits[0].egress_label == 0
        # one full 1,000-byte frame per subframe: 10 packets per session
        feeds = [
            CircuitFeed(
                s.id, 0, c.ingress, c.ingress_port, c.ingress_label, 1, RegulatorPolicy(), [8000.0] * 10, 1e-3
            )
            for s in (first, second)
            for c in s.circuits
        ]
        world = World(controller.topology, controller.switches, feeds, dict(controller.egress))
        result = run(world, 0.1)
        for sid in ("s0", "s1"):
            totals = result.sessions[sid].totals()
            assert (totals.injected, totals.delivered, totals.out_of_order) == (10, 10, 0)
        controller.teardown(first)
        assert list(controller.egress.values()) == [("s1", 0)]


def control_state(controller):
    """Ledger, forwarding tables, egress bindings and labels in use."""
    return (
        controller.ledger.snapshot(),
        {node: dict(s.table) for node, s in controller.switches.items()},
        dict(controller.egress),
        {key: set(used) for key, used in controller._labels_in_use.items() if used},
    )


def two_bbu_branch():
    # rrh 0 - switch 1 - {bbu 2, switch 3 - bbu 4}: branch at switch 1
    nodes = [
        Node(0, NodeKind.RRH, 1),
        Node(1, NodeKind.FH_SWITCH, 3),
        Node(2, NodeKind.BBU, 1),
        Node(3, NodeKind.FH_SWITCH, 2),
        Node(4, NodeKind.BBU, 1),
    ]
    links = [
        PhysLink(0, 0, 1, 0, 10e9),
        PhysLink(1, 1, 2, 0, 10e9),
        PhysLink(1, 2, 3, 0, 10e9),
        PhysLink(3, 1, 4, 0, 10e9),
    ]
    return PhysicalTopology(nodes, links)


def two_port_bbu():
    # rrh 0 - switch 2 - bbu 4 port 0; rrh 1 - switch 3 - bbu 4 port 1
    nodes = [
        Node(0, NodeKind.RRH, 1),
        Node(1, NodeKind.RRH, 1),
        Node(2, NodeKind.FH_SWITCH, 2),
        Node(3, NodeKind.FH_SWITCH, 2),
        Node(4, NodeKind.BBU, 2),
    ]
    links = [
        PhysLink(0, 0, 2, 0, 10e9),
        PhysLink(2, 1, 4, 0, 10e9),
        PhysLink(1, 0, 3, 0, 10e9),
        PhysLink(3, 1, 4, 1, 10e9),
    ]
    return PhysicalTopology(nodes, links)


class TestLabelExhaustion:
    @pytest.mark.parametrize(
        "topology, old, new, free",
        [
            # three circuits end on the bbu's one port: the first two take
            # its last two labels and are installed, then the third fails
            (star4, p2p(1, 4), LogicalPattern(AggregationToOneBbu((1, 2, 3), 4)), 2),
            # the tree allocates its first three labels, then fails on its last leg
            (two_bbu_branch, p2p(0, 2), LogicalPattern(RrhToMultiBbu(0, (2, 4))), 0),
        ],
    )
    def test_refused_setup_leaves_state_untouched(self, topology, old, new, free):
        controller = Controller(topology())
        controller.setup(request(old, peak=1e8), name="old")
        # bbu 4 receives on its port 0; all but `free` of its labels in use
        controller._labels_in_use.setdefault((4, 0), set()).update(range(MAX_LABEL + 1 - free))
        before = control_state(controller)
        log_len = len(controller.log)
        with pytest.raises(Infeasible) as exc:
            controller.setup(request(new, peak=1e8), name="new")
        assert exc.value.cause == LABEL_EXHAUSTED
        assert control_state(controller) == before
        assert "new" not in controller.sessions
        assert [e.outcome for e in controller.log[log_len:]] == [f"infeasible({LABEL_EXHAUSTED})"]

    def test_refused_migration_leaves_session_untouched(self):
        controller = Controller(star4())
        session = controller.setup(request(p2p(1, 4)), name="m")
        # the new path enters the hub from rrh 2, where no label is free
        hub_port = controller.topology.link_between(2, 0).port_of(0)
        controller._labels_in_use[(0, hub_port)] = set(range(MAX_LABEL + 1))
        before = control_state(controller)
        circuits = session.circuits
        with pytest.raises(Infeasible) as exc:
            controller.migrate(session, p2p(2, 4))
        assert exc.value.cause == LABEL_EXHAUSTED
        assert control_state(controller) == before
        assert session.circuits == circuits
        assert session.request.pattern == p2p(1, 4)

    def test_last_free_label_is_the_smallest_free_one(self):
        controller = Controller(star4())
        controller._labels_in_use[(4, 0)] = set(range(MAX_LABEL + 1)) - {7}
        session = controller.setup(request(p2p(1, 4)), name="x")
        assert session.circuits[0].egress_label == 7
        with pytest.raises(Infeasible) as exc:
            controller.setup(request(p2p(2, 4)), name="y")
        assert exc.value.cause == LABEL_EXHAUSTED


class TestReroute:
    def test_ring_cut_reroutes_all_the_long_way(self):
        controller = Controller(ring_topo())
        session = controller.setup(request(p2p(4, 5), bound=1.0), name="r")
        assert [c.nodes for c in session.circuits] == [(4, 0, 1, 2, 5)]
        outcomes = controller.reroute_on_failure((0, 1))
        assert outcomes == {"r": "rerouted"}
        assert [c.nodes for c in session.circuits] == [(4, 0, 3, 2, 5)]
        assert session.state == "active"

    def test_star_leaf_cut_victims_attached_sessions(self):
        controller = Controller(star4())
        hit = controller.setup(request(p2p(1, 4)), name="hit")
        safe = controller.setup(request(p2p(2, 4)), name="safe")
        safe_circuits_before = [c for c in safe.circuits]
        outcomes = controller.reroute_on_failure((0, 1))
        assert outcomes == {"hit": "victim"}
        assert hit.state == "torn_down"
        assert safe.circuits == safe_circuits_before  # untouched entries

    def test_unaffected_sessions_not_recomputed(self):
        controller = Controller(ring_topo())
        session = controller.setup(request(p2p(4, 5), bound=1.0), name="r")
        entries_before = [tuple(c.hops) for c in session.circuits]
        controller.reroute_on_failure((2, 3))  # not on the (4,0,1,2,5) path
        assert [tuple(c.hops) for c in session.circuits] == entries_before

    def test_victim_resources_released(self):
        controller = Controller(star4())
        initial = controller.ledger.snapshot()
        controller.setup(request(p2p(1, 4)), name="hit")
        controller.reroute_on_failure((0, 1))
        assert controller.ledger.snapshot() == initial


class TestMigrate:
    def test_move_to_other_rrh(self):
        controller = Controller(star4())
        session = controller.setup(request(p2p(1, 4, ue=7), peak=2e9), name="m")
        controller.migrate(session, p2p(2, 4, ue=7))
        assert [c.nodes for c in session.circuits] == [(2, 0, 4)]
        assert controller.ledger.reserved((0, 1)) == 0.0
        assert controller.ledger.reserved((0, 2)) == 2e9
        assert controller.ledger.reserved((0, 4)) == 2e9

    def test_migrate_to_identical_pattern_is_noop(self):
        controller = Controller(star4())
        session = controller.setup(request(p2p(1, 4, ue=7), peak=9e9), name="m")
        before = [c for c in session.circuits]
        controller.migrate(session, p2p(1, 4, ue=7))
        assert session.circuits == before  # same objects, entries untouched

    def test_migrate_saturated_target_leaves_original(self):
        # fat trunk so only the target leaf is the bottleneck
        nodes = [
            Node(0, NodeKind.FH_SWITCH, 3),
            Node(1, NodeKind.RRH, 1),
            Node(2, NodeKind.RRH, 1),
            Node(3, NodeKind.BBU, 1),
        ]
        links = [
            PhysLink(0, 0, 1, 0, 10e9),
            PhysLink(0, 1, 2, 0, 10e9),
            PhysLink(0, 2, 3, 0, 40e9),
        ]
        controller = Controller(PhysicalTopology(nodes, links))
        controller.setup(request(p2p(2, 3), peak=10e9), name="blocker")  # fills leaf (0,2)
        session = controller.setup(request(p2p(1, 3, ue=1), peak=1e9), name="m")
        before = [c for c in session.circuits]
        with pytest.raises(Infeasible):
            controller.migrate(session, p2p(2, 3, ue=1))
        assert session.circuits == before
        assert session.request.pattern == p2p(1, 3, ue=1)
        assert controller.ledger.reserved((0, 1)) == 1e9

    def test_migrate_never_overdraws_shared_trunk(self):
        # trunk holds peak once during migration because the session's own
        # reservation is discounted while the new path is computed
        controller = Controller(star4())
        session = controller.setup(request(p2p(1, 4), peak=6e9), name="m")
        controller.migrate(session, p2p(2, 4))  # 6e9 would not fit twice on the trunk
        assert controller.ledger.reserved((0, 4)) == 6e9
        for key in controller.ledger.link_keys():
            assert controller.ledger.residual(key) >= 0

    def test_granularity_must_match(self):
        controller = Controller(star4())
        session = controller.setup(request(p2p(1, 4, ue=3)), name="m")
        with pytest.raises(ValueError):
            controller.migrate(session, p2p(2, 4))  # cell-level vs per-UE


class TestControlSyncSeparation:
    def test_hundred_random_ops_leave_clock_tree_identical(self):
        topo = ring_topo()
        sources = [ClockSource(node=2, quality_rank=0)]
        baseline = build_sync_tree(topo, sources).canonical_hash()
        controller = Controller(topo)
        rng = random.Random(99)
        live = []
        for _ in range(100):
            op = rng.random()
            try:
                if op < 0.4 or not live:
                    live.append(
                        controller.setup(request(p2p(4, 5), peak=rng.choice([1e8, 1e9]), bound=1.0))
                    )
                elif op < 0.6:
                    controller.teardown(live.pop(0))
                elif op < 0.8 and live:
                    controller.migrate(live[0], p2p(4, 5, None))
                else:
                    controller.reroute_on_failure((1, 2))
                    controller.failed_links.clear()  # repair for the next round
            except Infeasible:
                pass
            assert build_sync_tree(topo, sources).canonical_hash() == baseline


class TestBbuToBbu:
    def test_bbu_exchange_session(self):
        topo = build_topology(
            Ring(n_switches=3, attachments=((0, NodeKind.BBU), (1, NodeKind.BBU)))
        )
        controller = Controller(topo)
        session = controller.setup(
            request(LogicalPattern(BbuToBbu(3, 4)), peak=1e9, bound=1.0), name="x2"
        )
        assert session.circuits[0].nodes == (3, 0, 1, 4)
