import itertools

import pytest

from fhsim.topology import (
    Chain,
    LinkParams,
    Node,
    NodeKind,
    PhysLink,
    PhysicalTopology,
    Ring,
    Star,
    build_topology,
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
