import heapq
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import fhsim.control
from fhsim.control import (
    LABEL_EXHAUSTED,
    LATENCY_UNREACHABLE,
    NO_BANDWIDTH,
    Controller,
    Infeasible,
    ReservationLedger,
    Session,
    SessionRequest,
    compute_path,
)
from fhsim.engine import CircuitFeed, RegulatorPolicy, World, run
from fhsim.packet import HEADER_BYTES, MAX_LABEL
from fhsim.sync import ClockSource, build_sync_tree
from fhsim.topology import (
    AggregationToOneBbu,
    BbuToBbu,
    LinkParams,
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

from routing_oracle import brute_force_route, random_reserved_graph
from test_control_golden import entries
from test_growth import record_heap_entries


def labels_in_use(controller):
    """The labels held at each (node, in_port) that holds any."""
    return {key: frozenset(pool.used) for key, pool in controller._labels.items() if pool.used}


def hold_labels(controller, node, in_port, labels):
    """Take `labels` at (node, in_port) through the controller's allocator, as circuits would.

    Labels are allocated in smallest-free order until every one of
    `labels` is held; the others taken on the way are freed again.
    """
    missing = set(labels)
    if any(not 0 <= label <= MAX_LABEL for label in missing):
        raise ValueError(f"labels must be in 0..{MAX_LABEL}")
    pool = controller._labels.get((node, in_port))
    if pool is not None:
        missing -= pool.used
    spare = []
    while missing:
        label = controller._alloc_label(node, in_port)
        if label in missing:
            missing.remove(label)
        else:
            spare.append(label)
    for label in spare:
        controller._free_label(node, in_port, label)


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


def count_searches(monkeypatch) -> list[bool]:
    """Record every path search `compute_path` runs from now on: True if it
    filters links by residual, False for the search with every link usable."""
    searches = []
    search = fhsim.control._search

    def counted(*args):
        searches.append(args[-1] is not fhsim.control._unlimited)
        return search(*args)

    monkeypatch.setattr(fhsim.control, "_search", counted)
    return searches


def star4():
    # hub 0; leaves: rrh 1, rrh 2, rrh 3, bbu 4
    return build_topology(Star(leaves=(NodeKind.RRH, NodeKind.RRH, NodeKind.RRH, NodeKind.BBU)))


def ring_topo():
    # switches 0..3; rrh 4 at switch 0, bbu 5 at switch 2
    return build_topology(
        Ring(n_switches=4, attachments=((0, NodeKind.RRH), (2, NodeKind.BBU)))
    )


class TestComputePathOracle:
    def test_remembered_routes_match_brute_force_over_300_ledger_states(self, monkeypatch):
        # one topology per round, so its remembered routes are reused
        # across every reservation state drawn on it
        searches = count_searches(monkeypatch)
        rng = random.Random(20261020)
        rounds = 0
        causes = {NO_BANDWIDTH: 0, LATENCY_UNREACHABLE: 0, None: 0}
        while rounds < 4:
            topo, _, hosts = random_reserved_graph(rng)
            if len(hosts) < 2:
                continue
            rounds += 1
            calls = len(searches)
            for _ in range(300):
                reserved = {l.key: rng.choice([0.0, 0.0, 0.4, 0.9, 1.0]) * l.capacity for l in topo.links}

                def residual_of(key):
                    return topo.link_between(*key).capacity - reserved[key]

                args = (
                    rng.choice([1e8, 9e8, 3e9]),
                    rng.choice([2e-5, 1e-4, 1e-2]),
                    rng.choice([508, 1008]),
                    rng.choice([0.0, 1e-6]),
                    residual_of,
                )
                src, dst = rng.sample(hosts, 2)
                cause, best = brute_force_route(topo, src, dst, *args)
                try:
                    path, cost = compute_path(topo, src, dst, *args)
                except Infeasible as exc:
                    assert exc.cause == cause
                else:
                    assert cause is None and (cost, path) == best
                causes[cause] += 1
            # some calls were answered by a remembered route, some searched the usable links
            assert 0 < sum(searches[calls:]) < 300
        assert all(count > 0 for count in causes.values())

    def test_blocked_remembered_route_detours_and_returns_once_freed(self, monkeypatch):
        searches = count_searches(monkeypatch)
        topo = ring_topo()
        reserved = dict.fromkeys((l.key for l in topo.links), 0.0)

        def route():
            def residual_of(key):
                return topo.link_between(*key).capacity - reserved[key]

            args = (1e9, 1e-2, 1008, 1e-6, residual_of)
            cause, best = brute_force_route(topo, 4, 5, *args)
            path, cost = compute_path(topo, 4, 5, *args)
            assert cause is None and (cost, path) == best
            return path

        # both ways round the ring cost the same: the smaller node sequence wins
        assert route() == (4, 0, 1, 2, 5)
        assert searches == [False]  # the one search with every link usable
        assert route() == (4, 0, 1, 2, 5)
        assert searches == [False]
        reserved[(1, 2)] = 9.5e9  # 0.5e9 left for a 1e9 peak
        assert route() == (4, 0, 3, 2, 5)
        assert searches == [False, True]
        reserved[(1, 2)] = 0.0
        assert route() == (4, 0, 1, 2, 5)
        assert searches == [False, True]

    def test_cut_off_destination_is_refused_without_a_second_search(self, monkeypatch):
        # without 0-1 and 2-3 the ring splits into {0, 3, rrh 4} and {1, 2, bbu 5}
        topo = ring_topo().without_links({(0, 1), (2, 3)})
        entries = record_heap_entries(monkeypatch, fhsim.control)
        refusals = []
        for pushed in (True, False):  # only the first call searches
            with pytest.raises(Infeasible) as exc:
                compute_path(topo, 4, 5, 1e9, 1e-2, 1008, 1e-6, lambda key: 10e9)
            refusals.append((exc.value.cause, str(exc.value)))
            assert bool(entries) is pushed
            entries.clear()
        assert refusals == [(NO_BANDWIDTH, "no-bandwidth: no path with 1e+09 bits/s from 4 to 5")] * 2
        assert topo.best_routes == {(4, 5, 1008, 1e-6): None}

    def test_direct_link_with_slack(self):
        topo = star4()
        path, cost = compute_path(
            topo, 1, 4, 1e9, 1.0, 1008, 0.0, lambda k: 10e9
        )
        assert path == (1, 0, 4)

    def test_peak_above_all_capacities_is_no_bandwidth(self):
        topo = star4()
        with pytest.raises(Infeasible) as exc:
            compute_path(topo, 1, 4, 99e9, 1.0, 1008, 0.0, lambda k: 10e9)
        assert exc.value.cause == NO_BANDWIDTH

    def test_propagation_alone_breaking_bound(self):
        # 150 us of propagation against a 100 us bound
        nodes = [Node(0, NodeKind.RRH, 1), Node(1, NodeKind.BBU, 1)]
        links = [PhysLink(0, 0, 1, 0, 10e9, propagation_delay=150e-6)]
        topo = PhysicalTopology(nodes, links)
        with pytest.raises(Infeasible) as exc:
            compute_path(topo, 0, 1, 1e9, 100e-6, 1008, 0.0, lambda k: 10e9)
        assert exc.value.cause == LATENCY_UNREACHABLE


class TestSetupTeardown:
    def test_p2p_on_idle_star(self):
        controller = Controller(star4())
        session = controller.setup(request(p2p(1, 4)), name="p2p")
        assert [c.nodes for c in session.circuits] == [(1, 0, 4)]
        assert session.state == "active"
        # entry installed on the hub, egress bound at the bbu
        assert (0, session.circuits[0].ingress_label) in controller.switches[0].table
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
        assert (session.circuits, session.debits) == ([], {})
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

    def test_sessions_holds_active_sessions_only(self):
        controller = Controller(star4())
        a = controller.setup(request(p2p(1, 4)), name="a")
        b = controller.setup(request(p2p(2, 4)), name="b")
        with pytest.raises(ValueError, match="already active"):
            controller.setup(request(p2p(3, 4)), name="a")
        controller.teardown(a)
        assert controller.sessions == {"b": b}
        controller.teardown(a)  # no-op: b stays
        assert controller.sessions == {"b": b}
        again = controller.setup(request(p2p(3, 4)), name="a")
        # a reused name takes a new slot at the end
        assert list(controller.sessions.items()) == [("b", b), ("a", again)]

    @pytest.mark.parametrize(
        "shape",
        [
            PointToPoint(4, 1),  # bbu to rrh
            BbuToBbu(1, 4),  # rrh as a source
            AggregationToOneBbu((), 4),
            RrhToMultiBbu(1, ()),
            PointToPoint(1, 99),  # no such node
        ],
    )
    def test_malformed_pattern_is_refused_and_changes_nothing(self, shape):
        controller = Controller(star4())
        controller.setup(request(p2p(2, 4)), name="old")
        before = control_state(controller)
        log_len = len(controller.log)
        with pytest.raises(ValueError):
            controller.setup(request(LogicalPattern(shape)), name="new")
        assert control_state(controller) == before
        assert list(controller.sessions) == ["old"]
        assert len(controller.log) == log_len

    @pytest.mark.parametrize(
        "shape, node",
        [
            (AggregationToOneBbu((1, 1, 2), 4), 1),
            (RrhToMultiBbu(1, (4, 4)), 4),
            (BbuToBbu(4, 4), 4),
        ],
    )
    def test_pattern_naming_an_endpoint_twice_is_refused(self, shape, node):
        controller = Controller(star4())
        before = control_state(controller)
        with pytest.raises(ValueError, match=f"node {node} is named twice"):
            controller.setup(request(LogicalPattern(shape)), name="dup")
        assert control_state(controller) == before
        assert not controller.sessions and not controller.log

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


# (op, link index, session index, rate, credit the whole holding)
LEDGER_OPS = st.lists(
    st.tuples(
        st.sampled_from(["debit", "credit", "release"]),
        st.integers(0, 3),
        st.integers(0, 39),
        st.floats(5e6, 4e7),
        st.booleans(),
    ),
    max_size=150,
)


class _Untouchable(dict):
    """Holdings that refuse to be walked or read one by one."""

    def __iter__(self):
        raise AssertionError("holdings iterated")

    def values(self):
        raise AssertionError("holdings summed")

    def items(self):
        raise AssertionError("holdings summed")

    def __getitem__(self, key):
        raise AssertionError("holding read")


class TestReservationLedger:
    @settings(max_examples=150, deadline=None)
    @given(LEDGER_OPS)
    def test_reserved_is_the_exact_sum_of_holdings(self, ops):
        ledger = ReservationLedger(star4())
        keys = ledger.link_keys()
        capacity = {key: ledger.residual(key) for key in keys}
        for op, link, sid, rate, full in ops:
            key, name = keys[link], f"s{sid}"
            held = ledger.snapshot().get(key, {})
            if op == "debit":
                ledger.debit(key, name, rate)
            elif name not in held:
                continue
            elif op == "credit":
                ledger.credit(key, name, held[name] if full else rate)
            else:
                assert ledger.release_session(key, name) == held[name]
            snapshot = ledger.snapshot()
            for k in keys:
                assert ledger.reserved(k) == math.fsum(snapshot.get(k, {}).values())
                assert ledger.residual(k) == capacity[k] - ledger.reserved(k)
        for key, held in ledger.snapshot().items():
            for name in held:
                ledger.release_session(key, name)
        for key in keys:
            assert ledger.reserved(key) == 0.0
            assert ledger.residual(key).hex() == capacity[key].hex()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(5e6, 4e7), min_size=2, max_size=60),
        st.randoms(use_true_random=False),
    )
    def test_reserved_does_not_depend_on_arrival_order(self, rates, rng):
        key = (0, 4)
        ledgers = [ReservationLedger(star4()) for _ in range(2)]
        order = list(enumerate(rates))
        for ledger in ledgers:
            for sid, rate in order:
                ledger.debit(key, f"s{sid}", rate)
            rng.shuffle(order)
        assert ledgers[0].snapshot() == ledgers[1].snapshot()
        assert ledgers[0].reserved(key) == ledgers[1].reserved(key) == math.fsum(rates)

    def test_reads_do_not_walk_the_holdings(self):
        ledger = ReservationLedger(star4())
        key = (0, 4)
        for i in range(20_000):
            ledger.debit(key, f"s{i}", 1e5 + i)
        before = (ledger.reserved(key), ledger.residual(key))
        assert before[0] == math.fsum(ledger.snapshot()[key].values())
        ledger._held[key] = _Untouchable(ledger._held[key])
        assert (ledger.reserved(key), ledger.residual(key)) == before

    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan, -1.0])
    def test_bad_rate_is_refused_and_changes_nothing(self, rate):
        ledger = ReservationLedger(star4())
        ledger.debit((0, 4), "s", 1e6)
        before = ledger.snapshot(), ledger.reserved((0, 4))
        for write in (ledger.debit, ledger.credit):
            with pytest.raises(ValueError, match="rate"):
                write((0, 4), "s", rate)
        assert (ledger.snapshot(), ledger.reserved((0, 4))) == before

    @pytest.mark.parametrize("mean, peak", [(1e6, math.inf), (math.inf, math.inf), (1e6, math.nan)])
    def test_non_finite_request_rate_is_refused(self, mean, peak):
        with pytest.raises(ValueError, match="finite"):
            SessionRequest(
                p2p(1, 4), mean_rate=mean, peak_rate=peak, latency_class=1, latency_bound=1e-2
            )

    @pytest.mark.parametrize("bound", [math.nan, 0.0, -1e-3])
    def test_latency_bound_that_is_not_positive_is_refused(self, bound):
        with pytest.raises(ValueError, match="latency_bound"):
            request(p2p(1, 4), bound=bound)


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
        labels_in_use(controller),
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
        hold_labels(controller, 4, 0, range(MAX_LABEL + 1 - free))
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
        hold_labels(controller, 0, hub_port, range(MAX_LABEL + 1))
        before = control_state(controller)
        circuits = session.circuits
        with pytest.raises(Infeasible) as exc:
            controller.migrate(session, p2p(2, 4))
        assert exc.value.cause == LABEL_EXHAUSTED
        assert control_state(controller) == before
        assert session.circuits == circuits
        assert session.request.pattern == p2p(1, 4)

    def test_freed_label_is_taken_back_with_one_heap_operation(self, monkeypatch):
        controller = Controller(star4())
        hold_labels(controller, 4, 0, range(60_000))
        ops = []

        class CountingHeapq:
            @staticmethod
            def heappush(heap, item):
                ops.append(("push", len(heap)))
                heapq.heappush(heap, item)

            @staticmethod
            def heappop(heap):
                ops.append(("pop", len(heap)))
                return heapq.heappop(heap)

        monkeypatch.setattr(fhsim.control, "heapq", CountingHeapq)
        controller._free_label(4, 0, 30_000)
        assert ops == [("push", 0)]
        # one pop from the freed-label heap, O(log n) by heapq's bound; no scan
        assert controller._alloc_label(4, 0) == 30_000
        assert ops == [("push", 0), ("pop", 1)]
        assert controller._alloc_label(4, 0) == 60_000  # the high-water mark: no heap work
        assert len(ops) == 2
        assert labels_in_use(controller)[(4, 0)] == frozenset(range(60_001))

    def test_smallest_free_label_first_after_any_frees(self):
        controller = Controller(star4())
        rng = random.Random(3)
        held = set(range(500))
        hold_labels(controller, 4, 0, held)
        for _ in range(2000):
            if held and rng.random() < 0.5:
                label = rng.choice(sorted(held))
                controller._free_label(4, 0, label)
                with pytest.raises(KeyError):  # a double free is a fault, not a no-op
                    controller._free_label(4, 0, label)
                held.discard(label)
            else:
                label = controller._alloc_label(4, 0)
                assert label == next(n for n in range(MAX_LABEL + 1) if n not in held)
                held.add(label)
            assert labels_in_use(controller).get((4, 0), frozenset()) == held

    def test_last_free_label_is_the_smallest_free_one(self):
        controller = Controller(star4())
        hold_labels(controller, 4, 0, set(range(MAX_LABEL + 1)) - {7})
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
        assert controller.sessions == {"safe": safe}  # a victim leaves the table
        assert safe.circuits == safe_circuits_before  # untouched entries

    def test_cut_plans_once_per_active_session_on_the_link(self, monkeypatch):
        # switches 0..3; rrh 4 at switch 0, bbu 5 at switch 2, bbu 6 at switch 3
        topo = build_topology(
            Ring(4, ((0, NodeKind.RRH), (2, NodeKind.BBU), (3, NodeKind.BBU)))
        )
        controller = Controller(topo)
        on = [controller.setup(request(p2p(4, 5), peak=1e8, bound=1.0)) for _ in range(4)]
        off = [controller.setup(request(p2p(4, 6), peak=1e8, bound=1.0)) for _ in range(3)]
        assert {c.nodes for s in on for c in s.circuits} == {(4, 0, 1, 2, 5)}
        assert {c.nodes for s in off for c in s.circuits} == {(4, 0, 3, 6)}
        for session in (on[1], off[0]):
            controller.teardown(session)
        live = [on[0], on[2], on[3], off[1], off[2]]
        assert list(controller.sessions) == [s.id for s in live]
        visited, plans = [], []
        uses_link, plan = Session.uses_link, fhsim.control.compute_path

        def counted_uses_link(session, key):
            visited.append(session.id)
            return uses_link(session, key)

        def counted_plan(*args, **kwargs):
            plans.append(args[1:3])
            return plan(*args, **kwargs)

        monkeypatch.setattr(Session, "uses_link", counted_uses_link)
        monkeypatch.setattr(fhsim.control, "compute_path", counted_plan)
        outcomes = controller.reroute_on_failure((0, 1))
        assert outcomes == dict.fromkeys([s.id for s in live[:3]], "rerouted")
        assert plans == [(4, 5)] * 3  # one plan per active session on the cut link
        # sessions torn down earlier are not visited at all
        assert visited == [s.id for s in live]

    def test_unaffected_sessions_not_recomputed(self):
        controller = Controller(ring_topo())
        session = controller.setup(request(p2p(4, 5), bound=1.0), name="r")
        arrivals_before = [c.arrivals for c in session.circuits]
        controller.reroute_on_failure((2, 3))  # not on the (4,0,1,2,5) path
        assert [c.arrivals for c in session.circuits] == arrivals_before

    def test_surviving_topology_follows_failed_links(self, monkeypatch):
        builds = []
        without_links = PhysicalTopology.without_links

        def counted(topo, links):
            builds.append(set(links))
            return without_links(topo, links)

        monkeypatch.setattr(PhysicalTopology, "without_links", counted)
        controller = Controller(ring_topo())
        controller.reroute_on_failure((0, 1))
        for _ in range(3):
            session = controller.setup(request(p2p(4, 5), peak=1e8, bound=1.0))
            assert [c.nodes for c in session.circuits] == [(4, 0, 3, 2, 5)]
        assert builds == [{(0, 1)}]  # built once for the cut, reused by every plan after it
        controller.failed_links.clear()  # repaired
        session = controller.setup(request(p2p(4, 5), peak=1e8, bound=1.0))
        assert [c.nodes for c in session.circuits] == [(4, 0, 1, 2, 5)]
        controller.reroute_on_failure((2, 3))
        assert builds == [{(0, 1)}, {(2, 3)}]

    def test_victim_resources_released(self):
        controller = Controller(star4())
        initial = controller.ledger.snapshot()
        controller.setup(request(p2p(1, 4)), name="hit")
        controller.reroute_on_failure((0, 1))
        assert controller.ledger.snapshot() == initial


def random_ring(rng):
    """A ring of 3-6 switches with per-link capacity and propagation, RRHs and BBUs on it."""
    n = rng.randint(3, 6)
    leaves = [NodeKind.RRH, NodeKind.BBU] + [
        rng.choice([NodeKind.RRH, NodeKind.BBU]) for _ in range(rng.randint(0, n))
    ]
    at = [rng.randrange(n) for _ in leaves]
    ports = [2 + at.count(i) for i in range(n)]
    nodes = [Node(i, NodeKind.FH_SWITCH, ports[i]) for i in range(n)]
    nodes += [Node(n + j, kind, 1) for j, kind in enumerate(leaves)]
    used = [0] * n

    def port(i):
        used[i] += 1
        return used[i] - 1

    def params():
        return dict(
            capacity=rng.choice([1e9, 2.5e9, 10e9, 40e9]),
            propagation_delay=rng.choice([0.0, 0.5e-6, 2e-6, 5e-6]),
        )

    links = [PhysLink(i, port(i), (i + 1) % n, port((i + 1) % n), **params()) for i in range(n)]
    links += [PhysLink(a, port(a), n + j, 0, **params()) for j, a in enumerate(at)]
    return PhysicalTopology(nodes, links), n


class TestHopRowCache:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_plan_matches_a_fresh_search_on_uncached_rows(self, seed):
        rng = random.Random(seed)
        topo, n = random_ring(rng)
        rrhs = [x.id for x in topo.nodes_of_kind(NodeKind.RRH)]
        bbus = [x.id for x in topo.nodes_of_kind(NodeKind.BBU)]
        controller = Controller(topo)
        frames, planned = set(), []  # frame wire bytes searched for, paths found

        def checked_plan(topology, src, dst, *args):
            # every path on the same ledger state, over the topology built
            # afresh for the live failure set, with nothing cached or remembered
            frames.add(args[2])
            fresh = controller.topology.without_links(set(controller.failed_links))
            cause, best = brute_force_route(fresh, src, dst, *args)
            try:
                found = compute_path(topology, src, dst, *args)
            except Infeasible as exc:
                assert exc.cause == cause
                raise
            path, cost = found
            assert cause is None and (cost, path) == best
            planned.append(path)
            return found

        def setups(count):
            for _ in range(count):
                req = request(
                    p2p(rng.choice(rrhs), rng.choice(bbus)),
                    peak=rng.choice([1e8, 4e8, 9e8]),
                    bound=rng.choice([2e-6, 1.0]),
                    frame=rng.choice([500, 1000, 1500]),
                )
                try:
                    session = controller.setup(req)
                except Infeasible:
                    continue
                assert [c.nodes for c in session.circuits] == [planned[-1]]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fhsim.control, "compute_path", checked_plan)
            setups(10)
            controller.reroute_on_failure((0, 1))
            setups(10)
            controller.failed_links.clear()  # repaired
            setups(10)
            controller.reroute_on_failure((0, n - 1))
            setups(10)
        assert {frame - HEADER_BYTES for frame in frames} == {500, 1000, 1500}
        assert not any(s.uses_link((0, n - 1)) for s in controller.sessions.values())


def holdings_by_session(ledger):
    """What the ledger holds, per session id and then per link."""
    held = {}
    for key, holders in ledger.snapshot().items():
        for session_id, rate in holders.items():
            held.setdefault(session_id, {})[key] = rate
    return held


def assert_installed_state_is_the_arrivals(controller):
    """Every entry, binding and holding is an active session's, and nothing else is installed or held.

    Entries and bindings are keyed by the circuits' arrivals, and the
    ledger holds exactly each session's debits.
    """
    assert holdings_by_session(controller.ledger) == {s.id: s.debits for s in controller.sessions.values()}
    arrivals, outputs = set(), {}
    for session in controller.sessions.values():
        for c in session.circuits:
            arrivals.update(c.arrivals)
            assert controller.egress[c.arrivals[-1]] == (session.id, c.circuit_id)
            for node, in_port, label_in, out_port, label_out in entries(controller.topology, c):
                outputs.setdefault((node, in_port, label_in), set()).add((out_port, label_out))
    installed = {
        (node, *key): outs for node, switch in controller.switches.items() for key, outs in switch.table.items()
    }
    assert installed.keys().isdisjoint(controller.egress)
    assert installed.keys() | controller.egress.keys() == arrivals
    for at, outs in installed.items():
        assert len(set(outs)) == len(outs)
        assert set(outs) == outputs[at]


class TestInstalledStateFollowsTheArrivals:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_operations_on_a_ring(self, seed):
        rng = random.Random(seed)
        # switches 0..4; rrhs 5, 6, 7 and bbus 8, 9, 10 around them
        kinds = (NodeKind.RRH,) * 3 + (NodeKind.BBU,) * 3
        topo = build_topology(Ring(n_switches=5, attachments=tuple(zip((0, 1, 3, 2, 3, 4), kinds))))
        controller = Controller(topo)
        rrhs, bbus = [5, 6, 7], [8, 9, 10]

        def pattern(shape):
            if shape is RrhToMultiBbu:
                return LogicalPattern(RrhToMultiBbu(rng.choice(rrhs), tuple(rng.sample(bbus, rng.randint(2, 3)))))
            if shape is AggregationToOneBbu:
                return LogicalPattern(AggregationToOneBbu(tuple(rng.sample(rrhs, rng.randint(2, 3))), rng.choice(bbus)))
            return p2p(rng.choice(rrhs), rng.choice(bbus))

        for _ in range(60):
            live = list(controller.sessions.values())
            op = rng.random()
            try:
                if op < 0.45 or not live:
                    shape = rng.choice([PointToPoint, PointToPoint, RrhToMultiBbu, AggregationToOneBbu])
                    controller.setup(request(pattern(shape), peak=rng.choice([1e9, 3e9, 6e9])))
                elif op < 0.7:
                    controller.teardown(rng.choice(live))
                elif op < 0.85:
                    session = rng.choice(live)
                    controller.migrate(session, pattern(type(session.request.pattern.shape)))
                else:
                    controller.failed_links.clear()  # the last cut is repaired
                    a = rng.randrange(5)
                    controller.reroute_on_failure((a, (a + 1) % 5))
            except Infeasible:
                pass
            assert_installed_state_is_the_arrivals(controller)
        for session in list(controller.sessions.values()):
            controller.teardown(session)
            assert_installed_state_is_the_arrivals(controller)
        assert all(not switch.table for switch in controller.switches.values())
        assert not controller.egress
        assert not labels_in_use(controller)
        assert not controller.ledger.snapshot()


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

    def test_tree_migration_credits_its_own_holding_and_its_earlier_legs(self):
        # two_bbu_branch plus bbu 5 behind switch 3. The new tree 0 -> {2, 5}
        # crosses (0,1) on both legs, where the old tree holds 6e9 of 10e9:
        # the second leg fits only with the session's own holding and the
        # first leg's charge both credited back.
        base = two_bbu_branch()
        nodes = [Node(3, NodeKind.FH_SWITCH, 3) if n.id == 3 else n for n in base.nodes.values()]
        nodes.append(Node(5, NodeKind.BBU, 1))
        topology = PhysicalTopology(nodes, [*base.links, PhysLink(3, 2, 5, 0, 10e9)])
        controller = Controller(topology)
        session = controller.setup(request(LogicalPattern(RrhToMultiBbu(0, (2, 4))), peak=6e9), name="m")
        new = LogicalPattern(RrhToMultiBbu(0, (2, 5)))
        controller.migrate(session, new)
        fresh = Controller(topology)
        fresh.setup(request(new, peak=6e9), name="m")
        assert controller.ledger.snapshot() == fresh.ledger.snapshot()
        assert [c.nodes for c in session.circuits] == [(0, 1, 2), (0, 1, 3, 5)]
        assert all(controller.ledger.residual(key) >= 0 for key in controller.ledger.link_keys())
        assert not any(node == 4 for node, _ in labels_in_use(controller))

    def test_ledger_holds_exactly_the_debits_after_every_migration(self):
        # Aggregations of random peaks moved between random RRH subsets. The
        # trunk's debit is a float sum of the legs' peaks, so a holding moved
        # by differences (debit new - old, credit old - new) can end a
        # rounding away from it, as it did in 57 of these 200 trials.
        topology = build_topology(Star(leaves=(NodeKind.RRH,) * 6 + (NodeKind.BBU,), link=LinkParams(capacity=1e12)))
        rrhs = range(1, 7)  # hub 0, bbu 7
        rng = random.Random(0)

        def aggregation():
            return LogicalPattern(AggregationToOneBbu(tuple(sorted(rng.sample(rrhs, rng.randint(1, 6)))), 7))

        for _ in range(200):
            controller = Controller(topology)
            session = controller.setup(request(aggregation(), peak=rng.uniform(1e6, 1e9)), name="m")
            for _ in range(3):
                controller.migrate(session, aggregation())
                assert holdings_by_session(controller.ledger) == {"m": session.debits}
                fresh = Controller(topology)
                fresh.setup(session.request, name="m")
                assert controller.ledger == fresh.ledger

    def test_granularity_must_match(self):
        controller = Controller(star4())
        session = controller.setup(request(p2p(1, 4, ue=3)), name="m")
        with pytest.raises(ValueError):
            controller.migrate(session, p2p(2, 4))  # cell-level vs per-UE


class TestControlSyncSeparation:
    def test_hundred_random_ops_leave_clock_tree_identical(self):
        topo = ring_topo()
        sources = [ClockSource(node=2, quality_rank=0)]
        baseline = build_sync_tree(topo, sources)
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
            assert build_sync_tree(topo, sources) == baseline


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
