"""Shared exhaustive-search oracle for constrained path computation.

Scans every simple path (payload relays restricted to switches), applies
the residual-bandwidth filter per link, accumulates the fixed-latency
cost with the same float association order as the implementation under
test, and picks the (cost, lexicographic path) minimum. Returns
(None, (cost, path)) when feasible, else (cause, None).
"""

import random

from fhsim.control import LATENCY_UNREACHABLE, NO_BANDWIDTH
from fhsim.topology import Node, NodeId, NodeKind, PhysLink, PhysicalTopology


def enumerate_simple_paths(
    topology: PhysicalTopology, src: NodeId, dst: NodeId, max_hops: int
) -> list[tuple[NodeId, ...]]:
    """All loop-free node paths from src to dst with at most max_hops links.

    Output is in lexicographic node-sequence order; empty when no path
    fits the hop budget.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    if src not in topology.nodes or dst not in topology.nodes:
        raise ValueError("src and dst must exist in the topology")
    results: list[tuple[NodeId, ...]] = []
    path = [src]
    on_path = {src}

    def visit(current: NodeId) -> None:
        if len(path) - 1 >= max_hops:
            return
        for peer in sorted(p for p, _ in topology.neighbors(current)):
            if peer in on_path:
                continue
            path.append(peer)
            if peer == dst:
                results.append(tuple(path))
            else:
                on_path.add(peer)
                visit(peer)
                on_path.remove(peer)
            path.pop()

    visit(src)
    return results


def brute_force_route(topology, src, dst, peak, bound, frame_wire, proc_delay, residual_of):
    best = None
    for path in enumerate_simple_paths(topology, src, dst, len(topology.nodes)):
        if any(topology.nodes[n].kind is not NodeKind.FH_SWITCH for n in path[1:-1]):
            continue
        cost = 0.0
        ok = True
        for a, b in zip(path, path[1:]):
            link = topology.link_between(a, b)
            if residual_of(link.key) < peak:
                ok = False
                break
            hop = link.propagation_delay + frame_wire * 8 / link.capacity
            if b != dst:
                hop += proc_delay
            cost = cost + hop
        if not ok:
            continue
        if best is None or (cost, path) < best:
            best = (cost, path)
    if best is None:
        return (NO_BANDWIDTH, None)
    if best[0] > bound:
        return (LATENCY_UNREACHABLE, None)
    return (None, best)


def random_reserved_graph(rng: random.Random):
    """Random connected topology of up to 8 nodes with random reservations.

    Returns (topology, reserved bits/s per link key, host node ids);
    hosts may number fewer than two, in which case the caller retries.
    """
    n = rng.randint(3, 8)
    kinds = [NodeKind.FH_SWITCH] * n
    host_count = rng.randint(2, max(2, n - 1))
    for i in rng.sample(range(n), host_count):
        kinds[i] = rng.choice([NodeKind.RRH, NodeKind.BBU])
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):  # random spanning tree first
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    ports = [0] * n
    links = []
    for a, b in sorted(edges):
        links.append(
            PhysLink(
                a,
                ports[a],
                b,
                ports[b],
                capacity=rng.choice([1e9, 2.5e9, 10e9]),
                propagation_delay=rng.choice([1e-6, 5e-6, 2e-5]),
            )
        )
        ports[a] += 1
        ports[b] += 1
    nodes = [
        Node(i, kinds[i], max(ports[i], 2 if kinds[i] is NodeKind.FH_SWITCH else 1))
        for i in range(n)
    ]
    topology = PhysicalTopology(nodes, links)
    reserved = {l.key: rng.choice([0.0, 0.4, 0.9, 1.0]) * l.capacity for l in links}
    hosts = [i for i in range(n) if kinds[i] is not NodeKind.FH_SWITCH]
    return topology, reserved, hosts
