"""Reference clock tree: one search per source, a per-node pick, recursive propagation.

The clock layer as it stood before `fhsim.sync` grew the tree in one
multi-source search: `build_sync_tree` runs a shortest-hop search from
each source, then picks per node the (quality rank, hops, source node,
path) minimum over all sources; `propagate_sync` resolves each node's
status recursively through its parents. Tests compare the two on
random topologies.
"""

import heapq
import math

from fhsim.sync import ClockSource, ClockTree, SyncStatus
from fhsim.topology import NodeId, NodeKind, PhysLink, PhysicalTopology


def _branch_candidates(
    topology: PhysicalTopology, source: ClockSource
) -> dict[NodeId, tuple[int, tuple[NodeId, ...]]]:
    """Shortest-hop paths from one source to every reachable node.

    Ties between equal-hop paths are broken by lexicographic node
    sequence. Radio units never relay, so they are reached but not
    expanded.
    """
    start = source.node
    best: dict[NodeId, tuple[int, tuple[NodeId, ...]]] = {start: (0, (start,))}
    heap: list[tuple[int, tuple[NodeId, ...], NodeId]] = [(0, (start,), start)]
    while heap:
        hops, path, node = heapq.heappop(heap)
        if best.get(node, (math.inf, ())) != (hops, path):
            continue
        if node != start and topology.nodes[node].kind is NodeKind.RRH:
            continue  # slave-only nodes do not redistribute timing
        for peer, _ in topology.neighbors(node):
            cand = (hops + 1, path + (peer,))
            if peer not in best or cand < best[peer]:
                best[peer] = cand
                heapq.heappush(heap, (cand[0], cand[1], peer))
    return best


def build_sync_tree(topology: PhysicalTopology, sources: list[ClockSource]) -> ClockTree:
    """Assign every node a timing parent toward the best reachable source.

    Selection order per node: source quality rank, then hop count, then
    source node id, then lexicographic branch path. Nodes cut off from
    every source are reported as unsynchronized rather than raising.
    """
    seen_nodes = set()
    for source in sources:
        kind = topology.nodes.get(source.node)
        if kind is None:
            raise ValueError(f"clock source references unknown node {source.node}")
        if kind.kind not in (NodeKind.BBU, NodeKind.FH_SWITCH, NodeKind.TIMING_SOURCE):
            raise ValueError(
                f"clock sources attach to bbu or switch or timing nodes, not {kind.kind.value}"
            )
        if source.node in seen_nodes:
            raise ValueError(f"duplicate clock source at node {source.node}")
        seen_nodes.add(source.node)

    reach = [(source, _branch_candidates(topology, source)) for source in sources]
    parent: dict[NodeId, tuple[NodeId, PhysLink]] = {}
    source_of: dict[NodeId, ClockSource] = {}
    unsynchronized: set[NodeId] = set()
    for node_id in topology.nodes:
        candidates = []
        for source, paths in reach:
            hit = paths.get(node_id)
            if hit is not None:
                hops, path = hit
                candidates.append((source.quality_rank, hops, source.node, path, source))
        if not candidates:
            unsynchronized.add(node_id)
            continue
        rank, hops, _, path, source = min(candidates, key=lambda c: c[:4])
        source_of[node_id] = source
        if hops > 0:
            up = path[-2]
            parent[node_id] = (up, topology.link_between(up, node_id))
    return ClockTree(parent=parent, source_of=source_of, unsynchronized=unsynchronized)


def propagate_sync(
    tree: ClockTree, topology: PhysicalTopology, regen_factor: float = 1.0
) -> dict[NodeId, SyncStatus]:
    """Accumulate jitter and offset down every branch of the tree.

    A child inherits sqrt((parent_jitter * regen)^2 + link_jitter^2),
    where regen applies only when the parent is a switch (switches clean
    the clock before passing it on; other relays forward it untouched).
    """
    if not 0 <= regen_factor <= 1:
        raise ValueError("regen_factor must be in [0, 1]")
    status: dict[NodeId, SyncStatus] = {}
    for node in tree.source_of:
        if node not in tree.parent:
            src = tree.source_of[node]
            status[node] = SyncStatus(node, 0.0, src.frequency_offset, 0)

    def resolve(node: NodeId) -> SyncStatus:
        ready = status.get(node)
        if ready is not None:
            return ready
        up, link = tree.parent[node]
        parent_status = resolve(up)
        regen = regen_factor if topology.nodes[up].kind is NodeKind.FH_SWITCH else 1.0
        jitter = math.sqrt((parent_status.accumulated_jitter * regen) ** 2 + link.jitter_std**2)
        result = SyncStatus(
            node=node,
            accumulated_jitter=jitter,
            effective_offset=parent_status.effective_offset,
            hops_from_source=parent_status.hops_from_source + 1,
        )
        status[node] = result
        return result

    for node in tree.source_of:
        resolve(node)
    return status
