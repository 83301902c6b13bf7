import math

import pytest
from hypothesis import given, settings, strategies as st

import sync_oracle
from fhsim.scenario import parse_scenario, run_scenario
from fhsim.sync import ClockSource, build_sync_tree, propagate_sync, write_sync_csv
from fhsim.topology import (
    Chain,
    LinkParams,
    Node,
    NodeKind,
    PhysLink,
    PhysicalTopology,
    Star,
    build_topology,
    wire,
)


def star_with_bbu():
    return build_topology(Star(leaves=(NodeKind.RRH, NodeKind.RRH, NodeKind.BBU)))


class TestBuildTree:
    def test_source_at_hub_gives_one_hop_leaves(self):
        topo = star_with_bbu()
        tree = build_sync_tree(topo, [ClockSource(node=0)])
        status = propagate_sync(tree, topo)
        for leaf in (1, 2, 3):
            assert status[leaf].hops_from_source == 1
        assert status[0].hops_from_source == 0
        assert not tree.unsynchronized

    def test_equal_quality_tie_breaks_to_lower_source_id(self):
        # chain of 3 switches, sources at both end switches
        topo = build_topology(Chain(n_switches=3, attachments=((1, NodeKind.RRH),)))
        tree = build_sync_tree(topo, [ClockSource(node=0), ClockSource(node=2)])
        assert tree.source_of[1].node == 0  # midpoint goes to the lower id

    def test_equal_hop_tie_breaks_to_lexicographic_branch(self):
        # two 3-hop branches reach rrh 5: 0-1-4-5 and 0-2-3-5; the first
        # is less node by node from the source, though its last relay is not
        links = [(0, 1), (0, 2), (1, 4), (2, 3), (4, 5), (3, 5)]
        topo = wire(
            [(NodeKind.FH_SWITCH, "")] * 5 + [(NodeKind.RRH, "")], [(a, b, LinkParams()) for a, b in links]
        )
        tree = build_sync_tree(topo, [ClockSource(node=0)])
        assert tree.parent[5][0] == 4
        assert tree.parent[4][0] == 1

    def test_quality_rank_dominates_distance(self):
        topo = build_topology(Chain(n_switches=3, attachments=()))
        tree = build_sync_tree(
            topo, [ClockSource(node=0, quality_rank=1), ClockSource(node=2, quality_rank=0)]
        )
        # node 0 itself locks to the remote better source, two hops away
        assert tree.source_of[0].node == 2
        assert tree.source_of[1].node == 2

    def test_no_sources_reports_all_unsynchronized(self):
        topo = star_with_bbu()
        tree = build_sync_tree(topo, [])
        assert tree.unsynchronized == set(topo.nodes)
        rrhs = {n.id for n in topo.nodes_of_kind(NodeKind.RRH)}
        assert rrhs <= tree.unsynchronized

    def test_rrh_never_a_parent(self):
        # rrh 3 sits between the source switch and a far switch physically,
        # but timing must not flow through it
        nodes = [
            Node(0, NodeKind.FH_SWITCH, 2),
            Node(1, NodeKind.RRH, 2),
            Node(2, NodeKind.FH_SWITCH, 2),
            Node(3, NodeKind.BBU, 1),
        ]
        links = [
            PhysLink(0, 0, 1, 0, 1e9),
            PhysLink(1, 1, 2, 0, 1e9),
            PhysLink(2, 1, 3, 0, 1e9),
        ]
        topo = PhysicalTopology(nodes, links)
        tree = build_sync_tree(topo, [ClockSource(node=0)])
        parents = {up for up, _ in tree.parent.values()}
        assert 1 not in parents
        assert tree.unsynchronized == {2, 3}  # only path crosses the RRH

    def test_source_must_sit_on_bbu_or_switch(self):
        topo = star_with_bbu()
        with pytest.raises(ValueError):
            build_sync_tree(topo, [ClockSource(node=1)])  # node 1 is an RRH

    def test_partition_reported(self):
        topo = star_with_bbu()
        cut = topo.without_links({(0, 1)})
        tree = build_sync_tree(cut, [ClockSource(node=0)])
        assert tree.unsynchronized == {1}


class TestPropagate:
    def test_single_hop_base_case(self):
        topo = build_topology(
            Star(leaves=(NodeKind.RRH,), link=LinkParams(jitter_std=5e-9))
        )
        tree = build_sync_tree(topo, [ClockSource(node=0)])
        status = propagate_sync(tree, topo)
        assert status[1].accumulated_jitter == 5e-9

    def test_two_hop_rms_through_non_switch_relay(self):
        # source bbu -> relay bbu -> rrh, jitters 3 then 4, no regeneration
        nodes = [
            Node(0, NodeKind.BBU, 1),
            Node(1, NodeKind.BBU, 2),
            Node(2, NodeKind.RRH, 1),
        ]
        links = [
            PhysLink(0, 0, 1, 0, 1e9, jitter_std=3e-9),
            PhysLink(1, 1, 2, 0, 1e9, jitter_std=4e-9),
        ]
        topo = PhysicalTopology(nodes, links)
        tree = build_sync_tree(topo, [ClockSource(node=0)])
        status = propagate_sync(tree, topo, regen_factor=1.0)
        assert status[2].accumulated_jitter == math.sqrt((3e-9) ** 2 + (4e-9) ** 2)
        assert status[2].accumulated_jitter == 5e-9
        assert status[2].hops_from_source == 2

    def test_full_regeneration_keeps_only_last_hop(self):
        nodes = [
            Node(0, NodeKind.BBU, 1),
            Node(1, NodeKind.FH_SWITCH, 2),
            Node(2, NodeKind.RRH, 1),
        ]
        links = [
            PhysLink(0, 0, 1, 0, 1e9, jitter_std=3e-9),
            PhysLink(1, 1, 2, 0, 1e9, jitter_std=4e-9),
        ]
        topo = PhysicalTopology(nodes, links)
        tree = build_sync_tree(topo, [ClockSource(node=0)])
        status = propagate_sync(tree, topo, regen_factor=0.0)
        assert status[2].accumulated_jitter == 4e-9

    def test_offset_inherited_from_root(self):
        topo = star_with_bbu()
        tree = build_sync_tree(topo, [ClockSource(node=0, frequency_offset=12.5)])
        status = propagate_sync(tree, topo)
        assert all(st.effective_offset == 12.5 for st in status.values())

    def test_jitter_nondecreasing_along_branch_without_regen(self):
        topo = build_topology(
            Chain(
                n_switches=5,
                attachments=((4, NodeKind.RRH),),
                link=LinkParams(jitter_std=2e-9),
            )
        )
        tree = build_sync_tree(topo, [ClockSource(node=0)])
        status = propagate_sync(tree, topo, regen_factor=1.0)
        node = 5  # the attached RRH
        while node in tree.parent:
            parent = tree.parent[node][0]
            assert status[node].accumulated_jitter >= status[parent].accumulated_jitter
            node = parent


class TestDecoupling:
    def test_tree_pure_function_of_topology_and_sources(self):
        topo = star_with_bbu()
        sources = [ClockSource(node=0, quality_rank=1)]
        assert build_sync_tree(topo, sources) == build_sync_tree(topo, sources)

    def test_tree_sensitive_to_sources(self):
        topo = star_with_bbu()
        a = build_sync_tree(topo, [ClockSource(node=0)])
        b = build_sync_tree(topo, [ClockSource(node=3)])
        assert a != b


def test_sync_csv_export(tmp_path):
    topo = star_with_bbu()
    tree = build_sync_tree(topo, [ClockSource(node=0, frequency_offset=3.0)])
    status = propagate_sync(tree, topo, regen_factor=0.5)
    out = tmp_path / "sync.csv"
    write_sync_csv(tree, status, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id,source_id,hops,jitter_ns,offset_ppb"
    assert len(lines) == 1 + len(topo.nodes)


@st.composite
def clocked_graphs(draw):
    """A random connected graph of 2-9 nodes of any kind, and 0-4 sources on its BBUs and switches."""
    n = draw(st.integers(2, 9))
    kinds = draw(st.lists(st.sampled_from(list(NodeKind)), min_size=n, max_size=n))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # a spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2))
    pairs |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    links = []
    for a, b in draw(st.permutations(sorted(pairs))):
        ends = (b, a) if draw(st.booleans()) else (a, b)
        links.append((*ends, LinkParams(jitter_std=draw(st.sampled_from([0.0, 1e-9, 3e-9])))))
    topo = wire([(kind, "") for kind in kinds], links)
    hosts = [i for i, kind in enumerate(kinds) if kind in (NodeKind.BBU, NodeKind.FH_SWITCH)]
    nodes = draw(st.lists(st.sampled_from(hosts), unique=True, max_size=4)) if hosts else []
    sources = [
        ClockSource(node, draw(st.integers(0, 1)), draw(st.sampled_from([0.0, 1.5, -2.0]))) for node in nodes
    ]
    return topo, sources


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(clocked_graphs())
    def test_one_search_picks_what_a_search_per_source_picks(self, graph):
        topo, sources = graph
        tree = build_sync_tree(topo, sources)
        reference = sync_oracle.build_sync_tree(topo, sources)
        assert tree == reference
        for regen in (0.0, 0.5, 1.0):
            assert propagate_sync(tree, topo, regen) == sync_oracle.propagate_sync(reference, topo, regen)

    def test_source_at_the_far_end_of_a_long_chain(self):
        # 1,200 hops from the source: a recursive pass would exceed
        # Python's recursion limit here
        topo = build_topology(Chain(1200, ((0, NodeKind.RRH),)))
        tree = build_sync_tree(topo, [ClockSource(node=1199)])
        status = propagate_sync(tree, topo)
        assert status[1200].hops_from_source == 1200
        assert status[1200].accumulated_jitter == pytest.approx(math.sqrt(1200) * 1e-9)

    def test_scenario_chain_of_over_a_thousand_switches_runs(self, tmp_path):
        n = 1001
        text = "\n".join(
            ["[topology]", "node = r rrh", "node = b bbu"]
            + [f"node = s{i} switch" for i in range(n)]
            + ["link = r s0"]
            + [f"link = s{i} s{i + 1}" for i in range(n - 1)]
            + [f"link = s{n - 1} b", "[sync]", "source = b"]
        )
        assert run_scenario(parse_scenario(text), str(tmp_path)) == 0
        row = (tmp_path / "sync.csv").read_text().splitlines()[1]
        assert row.split(",")[:3] == ["0", "1", str(n + 1)]  # r locks to b, n + 1 hops away


@pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan])
def test_clock_source_refuses_an_offset_that_is_not_finite(offset):
    with pytest.raises(ValueError, match="frequency_offset must be finite"):
        ClockSource(node=0, frequency_offset=offset)
