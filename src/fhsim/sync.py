"""Decoupled clock-distribution layer.

Timing is distributed over the physical graph independently of payload
routing: each switch and radio unit locks to the best reachable timing
source over a shortest-hop branch, switches regenerate (attenuate) the
accumulated jitter, and radio units are always leaves. One search,
seeded with every source and ordered by the key that ranks a node's
branches, grows the whole tree. Session setup, teardown, reroute, and
migration never touch this tree.
"""

from __future__ import annotations

import heapq
import csv
import math
from dataclasses import dataclass

from .topology import NodeId, NodeKind, PhysLink, PhysicalTopology


@dataclass(frozen=True)
class ClockSource:
    """External timing reference feeding the tree at a BBU or switch."""

    node: NodeId
    quality_rank: int = 0  # lower is better
    frequency_offset: float = 0.0  # parts-per-billion

    def __post_init__(self) -> None:
        if not -math.inf < self.frequency_offset < math.inf:  # NaN fails too
            raise ValueError("frequency_offset must be finite")


@dataclass(frozen=True)
class SyncStatus:
    node: NodeId
    accumulated_jitter: float  # seconds, RMS
    effective_offset: float  # ppb, inherited from the root source
    hops_from_source: int

    def __post_init__(self) -> None:
        if self.accumulated_jitter < 0:
            raise ValueError("accumulated_jitter must be >= 0")


@dataclass
class ClockTree:
    """Forest of timing branches: parent pointers plus per-node root source."""

    parent: dict[NodeId, tuple[NodeId, PhysLink]]
    source_of: dict[NodeId, ClockSource]  # every synchronized node, roots included; parents first
    unsynchronized: set[NodeId]


def build_sync_tree(topology: PhysicalTopology, sources: list[ClockSource]) -> ClockTree:
    """Assign every node a timing parent toward the best reachable source.

    A node takes the branch least in (source quality rank, hop count,
    source node id, lexicographic branch path). One search seeded with
    every source finds them all: it pops branches in that order, and
    extending two branches by the same hop keeps their order, so the
    first branch to reach a node is its least, and any branch through
    the node loses to the same hop off that first one. A node settles
    at its first pop; radio units settle but never relay. No entry
    carries its path: within one (rank, hops, source) group two paths
    compare first by their parents' paths, and parents settle in path
    order, so the key (rank, hops, source node, parent's settle index,
    node) pops in path order.
    Nodes cut off from every source are reported as unsynchronized
    rather than raising.
    """
    seen_nodes = set()
    for source in sources:
        kind = topology.nodes.get(source.node)
        if kind is None:
            raise ValueError(f"clock source references unknown node {source.node}")
        if kind.kind not in (NodeKind.BBU, NodeKind.FH_SWITCH):
            raise ValueError(f"clock sources attach to BBUs or switches, not {kind.kind.value}")
        if source.node in seen_nodes:
            raise ValueError(f"duplicate clock source at node {source.node}")
        seen_nodes.add(source.node)

    parent: dict[NodeId, tuple[NodeId, PhysLink]] = {}
    source_of: dict[NodeId, ClockSource] = {}
    settled: list[NodeId] = []  # in the order they settle
    # (rank, hops, source node, parent's settle index, node) is distinct
    # per entry, so the source and the last link never take part in a comparison
    heap = [(s.quality_rank, 0, s.node, -1, s.node, s, None) for s in sources]
    heapq.heapify(heap)
    while heap:
        rank, hops, _, up, node, source, link = heapq.heappop(heap)
        if node in source_of:
            continue
        index = len(settled)
        settled.append(node)
        source_of[node] = source
        if hops:
            parent[node] = (settled[up], link)
            if topology.nodes[node].kind is NodeKind.RRH:
                continue  # slave-only nodes do not redistribute timing
        for peer, peer_link in topology.neighbors(node):
            if peer not in source_of:
                heapq.heappush(heap, (rank, hops + 1, source.node, index, peer, source, peer_link))
    unsynchronized = set(topology.nodes) - source_of.keys()
    return ClockTree(parent=parent, source_of=source_of, unsynchronized=unsynchronized)


def propagate_sync(
    tree: ClockTree, topology: PhysicalTopology, regen_factor: float = 1.0
) -> dict[NodeId, SyncStatus]:
    """Accumulate jitter and offset down every branch of the tree.

    A child inherits sqrt((parent_jitter * regen)^2 + link_jitter^2),
    where regen applies only when the parent is a switch (switches clean
    the clock before passing it on; other relays forward it untouched).
    One pass over `tree.source_of` suffices, as parents come first.
    """
    if not 0 <= regen_factor <= 1:
        raise ValueError("regen_factor must be in [0, 1]")
    status: dict[NodeId, SyncStatus] = {}
    for node, source in tree.source_of.items():
        if node not in tree.parent:
            status[node] = SyncStatus(node, 0.0, source.frequency_offset, 0)
            continue
        up, link = tree.parent[node]
        above = status[up]
        regen = regen_factor if topology.nodes[up].kind is NodeKind.FH_SWITCH else 1.0
        jitter = math.sqrt((above.accumulated_jitter * regen) ** 2 + link.jitter_std**2)
        status[node] = SyncStatus(node, jitter, above.effective_offset, above.hops_from_source + 1)
    return status


def write_sync_csv(
    tree: ClockTree,
    status: dict[NodeId, SyncStatus],
    path: str,
) -> None:
    """Export the per-node synchronization report."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "source_id", "hops", "jitter_ns", "offset_ppb"])
        for node in sorted(set(tree.source_of) | tree.unsynchronized):
            if node in tree.unsynchronized:
                writer.writerow([node, "", "", "", ""])
            else:
                st = status[node]
                writer.writerow(
                    [
                        node,
                        tree.source_of[node].node,
                        st.hops_from_source,
                        repr(st.accumulated_jitter * 1e9),
                        repr(st.effective_offset),
                    ]
                )
