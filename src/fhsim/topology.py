"""Physical fronthaul topology and logical link patterns.

Nodes are radio units, baseband units, fronthaul switches, and external
timing sources, wired by full-duplex links annotated with capacity,
propagation delay, and jitter. Generators build the common physical
layouts (star, ring, chain); logical patterns describe which endpoints a
session connects and at what granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Union

NodeId = int


class NodeKind(Enum):
    RRH = "rrh"
    BBU = "bbu"
    FH_SWITCH = "switch"
    TIMING_SOURCE = "timing"


@dataclass(frozen=True)
class Node:
    id: NodeId
    kind: NodeKind
    ports: int
    name: str = ""

    def __post_init__(self) -> None:
        minimum = 2 if self.kind is NodeKind.FH_SWITCH else 1
        if self.ports < minimum:
            raise ValueError(f"{self.kind.value} node needs >= {minimum} ports")


@dataclass(frozen=True)
class PhysLink:
    """Full-duplex link between two (node, port) attachment points."""

    node_a: NodeId
    port_a: int
    node_b: NodeId
    port_b: int
    capacity: float  # bits/s, per direction
    propagation_delay: float = 0.0  # s
    jitter_std: float = 0.0  # s, per-hop timing jitter contribution
    link_class: str = "fiber"

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be > 0")
        if self.propagation_delay < 0:
            raise ValueError("propagation_delay must be >= 0")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")
        if self.node_a == self.node_b:
            raise ValueError("self-loop links are not allowed")

    @property
    def key(self) -> tuple[NodeId, NodeId]:
        """Canonical undirected identity of the link."""
        return (self.node_a, self.node_b) if self.node_a < self.node_b else (self.node_b, self.node_a)

    def other(self, node: NodeId) -> NodeId:
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"node {node} is not an endpoint of {self}")

    def port_of(self, node: NodeId) -> int:
        if node == self.node_a:
            return self.port_a
        if node == self.node_b:
            return self.port_b
        raise ValueError(f"node {node} is not an endpoint of {self}")


class PhysicalTopology:
    """Immutable connected graph of nodes and links.

    Parallel links between the same node pair are rejected so that a
    node sequence identifies a unique physical path.
    """

    def __init__(self, nodes: Sequence[Node], links: Sequence[PhysLink]):
        self.nodes: dict[NodeId, Node] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id {node.id}")
            self.nodes[node.id] = node
        self.links: tuple[PhysLink, ...] = tuple(links)
        self._by_key: dict[tuple[NodeId, NodeId], PhysLink] = {}
        self._adjacency: dict[NodeId, list[PhysLink]] = {n: [] for n in self.nodes}
        used_ports: set[tuple[NodeId, int]] = set()
        for link in self.links:
            for end, port in ((link.node_a, link.port_a), (link.node_b, link.port_b)):
                node = self.nodes.get(end)
                if node is None:
                    raise ValueError(f"link references unknown node {end}")
                if not 0 <= port < node.ports:
                    raise ValueError(f"port {port} out of range on node {end}")
                if (end, port) in used_ports:
                    raise ValueError(f"port {port} on node {end} used twice")
                used_ports.add((end, port))
            if link.key in self._by_key:
                raise ValueError(f"parallel link between {link.key[0]} and {link.key[1]}")
            self._by_key[link.key] = link
            self._adjacency[link.node_a].append(link)
            self._adjacency[link.node_b].append(link)
        if not self.links:
            raise ValueError("topology must contain at least one link")
        self._check_connected()

    def _check_connected(self) -> None:
        start = next(iter(self.nodes))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for link in self._adjacency[current]:
                peer = link.other(current)
                if peer not in seen:
                    seen.add(peer)
                    stack.append(peer)
        missing = sorted(set(self.nodes) - seen)
        if missing:
            names = [self.nodes[n].name or str(n) for n in missing]
            raise ValueError(f"topology is disconnected; unreachable nodes: {names}")

    def neighbors(self, node: NodeId) -> Iterator[tuple[NodeId, PhysLink]]:
        for link in self._adjacency[node]:
            yield link.other(node), link

    def link_between(self, a: NodeId, b: NodeId) -> PhysLink:
        key = (a, b) if a < b else (b, a)
        link = self._by_key.get(key)
        if link is None:
            raise KeyError(f"no link between {a} and {b}")
        return link

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind is kind]

    def without_links(self, excluded: set[tuple[NodeId, NodeId]]) -> "PhysicalTopology":
        """Surviving topology after removing links; may raise if disconnected.

        Used for what-if path computation only, so disconnection is allowed:
        the caller filters reachability per request.
        """
        survivors = [l for l in self.links if l.key not in excluded]
        topo = object.__new__(PhysicalTopology)
        topo.nodes = self.nodes
        topo.links = tuple(survivors)
        topo._by_key = {l.key: l for l in survivors}
        topo._adjacency = {n: [] for n in self.nodes}
        for link in survivors:
            topo._adjacency[link.node_a].append(link)
            topo._adjacency[link.node_b].append(link)
        return topo


# Logical fronthaul patterns: who talks to whom, at which granularity.


@dataclass(frozen=True)
class PointToPoint:
    rrh: NodeId
    bbu: NodeId


@dataclass(frozen=True)
class AggregationToOneBbu:
    rrhs: tuple[NodeId, ...]
    bbu: NodeId


@dataclass(frozen=True)
class RrhToMultiBbu:
    rrh: NodeId
    bbus: tuple[NodeId, ...]


@dataclass(frozen=True)
class BbuToBbu:
    src_bbu: NodeId
    dst_bbu: NodeId


PatternShape = Union[PointToPoint, AggregationToOneBbu, RrhToMultiBbu, BbuToBbu]


@dataclass(frozen=True)
class LogicalPattern:
    """A pattern shape plus management granularity (cell or single UE flow)."""

    shape: PatternShape
    ue_id: int | None = None  # None = cell-level, otherwise a per-UE flow

    @property
    def granularity(self) -> str:
        return "cell" if self.ue_id is None else "ue"


def _expect_kind(topology: PhysicalTopology, node: NodeId, kind: NodeKind, role: str) -> None:
    actual = topology.nodes.get(node)
    if actual is None:
        raise ValueError(f"{role} node {node} does not exist")
    if actual.kind is not kind:
        raise ValueError(f"{role} node {node} is {actual.kind.value}, expected {kind.value}")


def validate_pattern(topology: PhysicalTopology, pattern: LogicalPattern) -> None:
    shape = pattern.shape
    if isinstance(shape, PointToPoint):
        _expect_kind(topology, shape.rrh, NodeKind.RRH, "source")
        _expect_kind(topology, shape.bbu, NodeKind.BBU, "destination")
    elif isinstance(shape, AggregationToOneBbu):
        if not shape.rrhs:
            raise ValueError("aggregation pattern needs at least one RRH")
        for rrh in shape.rrhs:
            _expect_kind(topology, rrh, NodeKind.RRH, "source")
        _expect_kind(topology, shape.bbu, NodeKind.BBU, "destination")
    elif isinstance(shape, RrhToMultiBbu):
        if not shape.bbus:
            raise ValueError("multi-BBU pattern needs at least one BBU")
        _expect_kind(topology, shape.rrh, NodeKind.RRH, "source")
        for bbu in shape.bbus:
            _expect_kind(topology, bbu, NodeKind.BBU, "destination")
    elif isinstance(shape, BbuToBbu):
        _expect_kind(topology, shape.src_bbu, NodeKind.BBU, "source")
        _expect_kind(topology, shape.dst_bbu, NodeKind.BBU, "destination")
    else:
        raise TypeError(f"unknown pattern shape {shape!r}")


# Topology generators.


@dataclass(frozen=True)
class LinkParams:
    capacity: float = 10e9
    propagation_delay: float = 5e-6
    jitter_std: float = 1e-9
    link_class: str = "fiber"


@dataclass(frozen=True)
class Star:
    """One hub switch with the listed leaf nodes attached."""

    leaves: tuple[NodeKind, ...]
    link: LinkParams = LinkParams()


@dataclass(frozen=True)
class Ring:
    """n_switches in a cycle; attachments are (switch position, kind) pairs."""

    n_switches: int
    attachments: tuple[tuple[int, NodeKind], ...]
    link: LinkParams = LinkParams()
    attach_link: LinkParams | None = None


@dataclass(frozen=True)
class Chain:
    """n_switches in a line; attachments are (switch position, kind) pairs."""

    n_switches: int
    attachments: tuple[tuple[int, NodeKind], ...]
    link: LinkParams = LinkParams()
    attach_link: LinkParams | None = None


TopologySpec = Union[Star, Ring, Chain]


def _make_link(a: Node, pa: int, b: Node, pb: int, params: LinkParams) -> PhysLink:
    return PhysLink(
        node_a=a.id,
        port_a=pa,
        node_b=b.id,
        port_b=pb,
        capacity=params.capacity,
        propagation_delay=params.propagation_delay,
        jitter_std=params.jitter_std,
        link_class=params.link_class,
    )


def build_topology(spec: TopologySpec) -> PhysicalTopology:
    """Construct the physical topology described by `spec`, deterministically.

    Switches take ids 0..n-1, attachments follow in declaration order.
    Degenerate specs (no attachments at all, attachment positions out of
    range, rings shorter than three switches) are rejected.
    """
    if isinstance(spec, Star):
        if not spec.leaves:
            raise ValueError("star needs at least one leaf")
        hub = Node(id=0, kind=NodeKind.FH_SWITCH, ports=max(len(spec.leaves), 2), name="hub")
        nodes = [hub]
        links = []
        for i, kind in enumerate(spec.leaves):
            leaf = Node(id=1 + i, kind=kind, ports=1, name=f"{kind.value}{i}")
            nodes.append(leaf)
            links.append(_make_link(hub, i, leaf, 0, spec.link))
        return PhysicalTopology(nodes, links)

    if isinstance(spec, (Ring, Chain)):
        n = spec.n_switches
        if n < 1:
            raise ValueError("need at least one switch")
        if isinstance(spec, Ring) and n < 3:
            raise ValueError("a ring needs at least three switches")
        for pos, _ in spec.attachments:
            if not 0 <= pos < n:
                raise ValueError(f"attachment position {pos} outside 0..{n - 1}")
        if not spec.attachments and n == 1:
            raise ValueError("single-switch chain with no attachments is disconnected")

        per_switch_ports = [0] * n
        trunk_ends: list[tuple[int, int]] = []  # (a, b) switch positions
        if isinstance(spec, Ring):
            pairs = [(i, (i + 1) % n) for i in range(n)]
        else:
            pairs = [(i, i + 1) for i in range(n - 1)]
        trunk_ports = []
        for a, b in pairs:
            trunk_ports.append((per_switch_ports[a], per_switch_ports[b]))
            per_switch_ports[a] += 1
            per_switch_ports[b] += 1
            trunk_ends.append((a, b))
        attach_ports = []
        for pos, _ in spec.attachments:
            attach_ports.append(per_switch_ports[pos])
            per_switch_ports[pos] += 1

        switches = [
            Node(id=i, kind=NodeKind.FH_SWITCH, ports=max(per_switch_ports[i], 2), name=f"s{i}")
            for i in range(n)
        ]
        nodes: list[Node] = list(switches)
        links = [
            _make_link(switches[a], pa, switches[b], pb, spec.link)
            for (a, b), (pa, pb) in zip(trunk_ends, trunk_ports)
        ]
        attach_params = spec.attach_link or spec.link
        for i, ((pos, kind), port) in enumerate(zip(spec.attachments, attach_ports)):
            leaf = Node(id=n + i, kind=kind, ports=1, name=f"{kind.value}{i}")
            nodes.append(leaf)
            links.append(_make_link(switches[pos], port, leaf, 0, attach_params))
        return PhysicalTopology(nodes, links)

    raise TypeError(f"unknown topology spec {spec!r}")
