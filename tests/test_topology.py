import itertools
import math
from dataclasses import astuple

import pytest

from fhsim.topology import (
    AggregationToOneBbu,
    BbuToBbu,
    Chain,
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
    pattern_legs,
    pattern_shape,
)
from routing_oracle import enumerate_simple_paths


def star_3rrh_1bbu():
    return build_topology(
        Star(leaves=(NodeKind.RRH, NodeKind.RRH, NodeKind.RRH, NodeKind.BBU))
    )


class TestGenerators:
    def test_star_counts(self):
        topo = star_3rrh_1bbu()
        assert len(topo.nodes) == 5
        assert len(topo.links) == 4
        kinds = sorted(n.kind.value for n in topo.nodes.values())
        assert kinds.count("rrh") == 3
        assert kinds.count("bbu") == 1
        assert kinds.count("switch") == 1

    def test_ring_counts(self):
        attach = tuple((i, NodeKind.RRH) for i in range(4)) + ((0, NodeKind.BBU),)
        topo = build_topology(Ring(n_switches=4, attachments=attach))
        assert len(topo.nodes) == 9
        assert len(topo.links) == 4 + 5  # ring links plus attachments

    def test_chain_counts(self):
        topo = build_topology(
            Chain(n_switches=3, attachments=((0, NodeKind.RRH), (2, NodeKind.BBU)))
        )
        assert len(topo.nodes) == 5
        assert len(topo.links) == 2 + 2

    def test_chain_without_attachments_rejected(self):
        with pytest.raises(ValueError):
            build_topology(Chain(n_switches=1, attachments=()))

    def test_dangling_attachment_rejected(self):
        with pytest.raises(ValueError):
            build_topology(Chain(n_switches=2, attachments=((5, NodeKind.RRH),)))

    def test_short_ring_rejected(self):
        with pytest.raises(ValueError):
            build_topology(Ring(n_switches=2, attachments=((0, NodeKind.RRH),)))

    def test_deterministic_construction(self):
        spec = Ring(n_switches=4, attachments=((0, NodeKind.RRH), (2, NodeKind.BBU)))
        a, b = build_topology(spec), build_topology(spec)
        assert [(n.id, n.kind, n.ports) for n in a.nodes.values()] == [
            (n.id, n.kind, n.ports) for n in b.nodes.values()
        ]
        assert a.links == b.links

    def test_ring_survives_any_single_trunk_cut(self):
        attach = tuple((i, NodeKind.RRH) for i in range(4))
        topo = build_topology(Ring(n_switches=4, attachments=attach))
        trunk = [l for l in topo.links if l.node_a < 4 and l.node_b < 4]
        assert len(trunk) == 4
        for link in trunk:
            survivors = [l for l in topo.links if l is not link]
            PhysicalTopology(list(topo.nodes.values()), survivors)  # stays connected

    def test_custom_link_params(self):
        params = LinkParams(capacity=1e9, propagation_delay=2e-6, jitter_std=5e-9)
        topo = build_topology(Star(leaves=(NodeKind.RRH, NodeKind.BBU), link=params))
        assert all(l.capacity == 1e9 for l in topo.links)
        assert all(l.jitter_std == 5e-9 for l in topo.links)


R, B = NodeKind.RRH, NodeKind.BBU
DEFAULTS = (10e9, 5e-6, 1e-9)  # the fields of LinkParams()

# Every node (id, kind, ports, name) and link (ends, ports, params) of a
# few generated topologies, as the generators have always wired them.
WIRING = [
    (
        Star((R, B, R)),
        [(0, "switch", 3, "hub"), (1, "rrh", 1, "rrh0"), (2, "bbu", 1, "bbu1"), (3, "rrh", 1, "rrh2")],
        [(0, 0, 1, 0, *DEFAULTS), (0, 1, 2, 0, *DEFAULTS), (0, 2, 3, 0, *DEFAULTS)],
    ),
    (
        Star((R,), LinkParams(capacity=1e9, jitter_std=2e-9)),
        [(0, "switch", 2, "hub"), (1, "rrh", 1, "rrh0")],
        [(0, 0, 1, 0, 1e9, 5e-6, 2e-9)],
    ),
    (
        Ring(4, ((0, R), (2, B), (0, B)), attach_link=LinkParams(capacity=40e9, propagation_delay=1e-6)),
        [
            (0, "switch", 4, "s0"),
            (1, "switch", 2, "s1"),
            (2, "switch", 3, "s2"),
            (3, "switch", 2, "s3"),
            (4, "rrh", 1, "rrh0"),
            (5, "bbu", 1, "bbu1"),
            (6, "bbu", 1, "bbu2"),
        ],
        [
            (0, 0, 1, 0, *DEFAULTS),
            (1, 1, 2, 0, *DEFAULTS),
            (2, 1, 3, 0, *DEFAULTS),
            (3, 1, 0, 1, *DEFAULTS),
            (0, 2, 4, 0, 40e9, 1e-6, 1e-9),
            (2, 2, 5, 0, 40e9, 1e-6, 1e-9),
            (0, 3, 6, 0, 40e9, 1e-6, 1e-9),
        ],
    ),
    (
        Ring(3, ()),
        [(0, "switch", 2, "s0"), (1, "switch", 2, "s1"), (2, "switch", 2, "s2")],
        [(0, 0, 1, 0, *DEFAULTS), (1, 1, 2, 0, *DEFAULTS), (2, 1, 0, 1, *DEFAULTS)],
    ),
    (
        Chain(3, ((2, R), (0, B), (2, R)), link=LinkParams(propagation_delay=7e-6)),
        [
            (0, "switch", 2, "s0"),
            (1, "switch", 2, "s1"),
            (2, "switch", 3, "s2"),
            (3, "rrh", 1, "rrh0"),
            (4, "bbu", 1, "bbu1"),
            (5, "rrh", 1, "rrh2"),
        ],
        [(a, pa, b, pb, 10e9, 7e-6, 1e-9) for a, pa, b, pb in
         [(0, 0, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0), (0, 1, 4, 0), (2, 2, 5, 0)]],
    ),
    (
        Chain(1, ((0, R),)),
        [(0, "switch", 2, "s0"), (1, "rrh", 1, "rrh0")],
        [(0, 0, 1, 0, *DEFAULTS)],
    ),
]


class TestGeneratorWiring:
    @pytest.mark.parametrize("spec, nodes, links", WIRING)
    def test_nodes_and_links_pinned(self, spec, nodes, links):
        topo = build_topology(spec)
        assert [(n.id, n.kind.value, n.ports, n.name) for n in topo.nodes.values()] == nodes
        assert [astuple(link) for link in topo.links] == links

    @pytest.mark.parametrize(
        "spec",
        [
            Star((NodeKind.FH_SWITCH,)),
            Star((R, NodeKind.FH_SWITCH)),
            Ring(3, ((1, NodeKind.FH_SWITCH),)),
            Chain(2, ((1, R), (0, NodeKind.FH_SWITCH))),
        ],
    )
    def test_a_switch_leaf_gets_two_ports(self, spec):
        # a switch takes at least two ports wherever it is wired, as a
        # one-link switch in a scenario file always did
        topo = build_topology(spec)
        leaf = topo.nodes[max(topo.nodes)]
        assert leaf.kind is NodeKind.FH_SWITCH
        assert leaf.ports == 2
        assert [link.port_of(leaf.id) for link in topo.links if leaf.id in link.key] == [0]


class TestHopRows:
    def test_one_row_per_neighbor_cached_per_topology_and_frame_size(self):
        topo = build_topology(
            Ring(3, ((0, NodeKind.RRH), (1, NodeKind.BBU)), attach_link=LinkParams(capacity=40e9))
        )
        rows = topo.hop_rows(1008)
        for node in topo.nodes:
            assert rows[node] == tuple(
                (
                    peer,
                    link.key,
                    link.propagation_delay + 1008 * 8 / link.capacity,
                    topo.nodes[peer].kind is NodeKind.FH_SWITCH,
                )
                for peer, link in topo.neighbors(node)
            )
        assert topo.hop_rows(1008) is rows
        assert topo.hop_rows(508)[0] != rows[0]
        cut = topo.without_links({(0, 1)})
        assert cut.hop_rows(1008) is not rows
        assert [peer for peer, *_ in cut.hop_rows(1008)[0]] == [2, 3]


class TestRoutes:
    @pytest.mark.parametrize(
        "topo, path, texts",
        [
            # switches 0..3; rrh 4 at switch 0, bbu 5 at switch 2
            (
                build_topology(Ring(4, ((0, NodeKind.RRH), (2, NodeKind.BBU)))),
                (4, 0, 1, 2, 5),
                ("4-0-1-2-5", "5-2-1-0-4"),
            ),
            (star_3rrh_1bbu(), (1, 0, 4), ("1-0-4", "4-0-1")),
        ],
    )
    def test_route_holds_each_hops_link_and_ports_both_ways(self, topo, path, texts):
        for nodes, text in zip((path, path[::-1]), texts):
            route = topo.route(nodes)
            hops = [(a, b, topo.link_between(a, b)) for a, b in zip(nodes, nodes[1:])]
            assert route.nodes == nodes and route.text == text
            assert route.keys == tuple(link.key for _, _, link in hops)
            assert route.ingress_port == hops[0][2].port_of(nodes[0])
            assert route.ends == tuple((b, link.port_of(b)) for _, b, link in hops)
            # the port each arrival sends the next hop out of
            assert route.outs == tuple(link.port_of(a) for a, _, link in hops[1:])
            assert topo.route(nodes) is route
        assert len(topo.routes) == 2


class TestValidation:
    def test_disconnected_rejected(self):
        nodes = [
            Node(0, NodeKind.RRH, 1),
            Node(1, NodeKind.BBU, 1),
            Node(2, NodeKind.RRH, 1),
            Node(3, NodeKind.BBU, 1),
        ]
        links = [PhysLink(0, 0, 1, 0, 1e9), PhysLink(2, 0, 3, 0, 1e9)]
        with pytest.raises(ValueError, match="disconnected"):
            PhysicalTopology(nodes, links)

    def test_double_booked_port_rejected(self):
        nodes = [Node(0, NodeKind.FH_SWITCH, 2), Node(1, NodeKind.RRH, 1), Node(2, NodeKind.BBU, 1)]
        links = [PhysLink(0, 0, 1, 0, 1e9), PhysLink(0, 0, 2, 0, 1e9)]
        with pytest.raises(ValueError, match="used twice"):
            PhysicalTopology(nodes, links)

    def test_parallel_links_rejected(self):
        nodes = [Node(0, NodeKind.FH_SWITCH, 2), Node(1, NodeKind.FH_SWITCH, 2)]
        links = [PhysLink(0, 0, 1, 0, 1e9), PhysLink(0, 1, 1, 1, 1e9)]
        with pytest.raises(ValueError, match="parallel"):
            PhysicalTopology(nodes, links)


def two_node_topo():
    return PhysicalTopology(
        [Node(0, NodeKind.RRH, 1), Node(1, NodeKind.BBU, 1)],
        [PhysLink(0, 0, 1, 0, 1e9)],
    )


class TestEnumeratePaths:
    def test_single_link(self):
        assert enumerate_simple_paths(two_node_topo(), 0, 1, 4) == [(0, 1)]

    def test_max_hops_zero_is_empty(self):
        assert enumerate_simple_paths(two_node_topo(), 0, 1, 0) == []

    def test_ring_opposite_nodes_two_paths(self):
        topo = build_topology(Ring(n_switches=4, attachments=()))
        paths = enumerate_simple_paths(topo, 0, 2, 4)
        assert paths == [(0, 1, 2), (0, 3, 2)]

    def test_no_repeated_nodes(self):
        attach = tuple((i, NodeKind.RRH) for i in range(4))
        topo = build_topology(Ring(n_switches=4, attachments=attach))
        for src, dst in itertools.combinations(topo.nodes, 2):
            for path in enumerate_simple_paths(topo, src, dst, 8):
                assert len(path) == len(set(path))

    def test_exhaustive_on_complete_graph(self):
        # K4 of switches: path counts from one node to another are known:
        # direct, 2 via one intermediate, 2 via both intermediates = 5.
        nodes = [Node(i, NodeKind.FH_SWITCH, 3) for i in range(4)]
        links = []
        ports = {i: 0 for i in range(4)}
        for a, b in itertools.combinations(range(4), 2):
            links.append(PhysLink(a, ports[a], b, ports[b], 1e9))
            ports[a] += 1
            ports[b] += 1
        topo = PhysicalTopology(nodes, links)
        paths = enumerate_simple_paths(topo, 0, 3, 4)
        assert len(paths) == 5
        assert paths == sorted(paths)  # canonical lexicographic order

    def test_hop_budget_respected(self):
        topo = build_topology(Ring(n_switches=6, attachments=()))
        short = enumerate_simple_paths(topo, 0, 2, 2)
        assert short == [(0, 1, 2)]  # the long way needs 4 hops
        both = enumerate_simple_paths(topo, 0, 2, 6)
        assert both == [(0, 1, 2), (0, 5, 4, 3, 2)]

    def test_same_src_dst_rejected(self):
        with pytest.raises(ValueError):
            enumerate_simple_paths(two_node_topo(), 0, 0, 3)


class TestPatternShapes:
    @pytest.mark.parametrize(
        "cls, srcs, dsts, shape, legs, tree",
        [
            (PointToPoint, (1,), (4,), PointToPoint(1, 4), [(1, 4)], False),
            (AggregationToOneBbu, (1, 2), (4,), AggregationToOneBbu((1, 2), 4), [(1, 4), (2, 4)], False),
            (RrhToMultiBbu, (1,), (4, 5), RrhToMultiBbu(1, (4, 5)), [(1, 4), (1, 5)], True),
            (BbuToBbu, (4,), (5,), BbuToBbu(4, 5), [(4, 5)], False),
        ],
    )
    def test_shape_from_ends_and_its_legs(self, cls, srcs, dsts, shape, legs, tree):
        assert pattern_shape(cls, srcs, dsts) == shape
        assert pattern_legs(LogicalPattern(shape)) == (legs, tree)

    @pytest.mark.parametrize(
        "cls, srcs, dsts, message",
        [
            (PointToPoint, (1, 2), (4,), "takes one source, got 2"),
            (AggregationToOneBbu, (1,), (), "takes one destination, got 0"),
            (RrhToMultiBbu, (), (4,), "takes one source, got 0"),
        ],
    )
    def test_an_end_that_holds_one_refuses_other_counts(self, cls, srcs, dsts, message):
        with pytest.raises(ValueError, match=message):
            pattern_shape(cls, srcs, dsts)

    def test_unknown_shape_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown pattern shape"):
            pattern_legs(LogicalPattern((1, 4)))


@pytest.mark.parametrize(
    "params", [{"capacity": math.inf}, {"propagation_delay": math.inf}, {"jitter_std": math.inf}]
)
def test_link_refuses_infinite_parameters(params):
    with pytest.raises(ValueError, match="must be finite"):
        PhysLink(0, 0, 1, 0, **{"capacity": 1e9, **params})
