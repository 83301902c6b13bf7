"""Physical fronthaul topology and logical link patterns.

Nodes are radio units, baseband units, fronthaul switches, and external
timing sources, wired by full-duplex links annotated with capacity,
propagation delay, and jitter. Generators build the common physical
layouts (star, ring, chain); logical patterns describe which endpoints a
session connects and at what granularity. The shape table `_SHAPES` is
the one place the pattern rules live: which node kind each end takes,
how many, the legs a pattern makes and whether they share a tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

NodeId = int
HopRow = tuple[NodeId, tuple[NodeId, NodeId], float, bool]  # (peer, link key, hop cost, peer relays)
RelayRow = tuple[NodeId, tuple[NodeId, NodeId], float]  # (peer, link key, hop cost) of a peer that relays


class Route(NamedTuple):
    """The hop facts of one path, built once per path by `PhysicalTopology.route`.

    Hop i leaves `nodes[i]` over the link `keys[i]` and arrives at the
    (node, in_port) `ends[i]`; `outs[i]` is the port that node sends
    the next hop out of, so `outs` is one shorter than `ends`.
    """

    nodes: tuple[NodeId, ...]
    keys: tuple[tuple[NodeId, NodeId], ...]
    ingress_port: int  # the out port of the first hop
    ends: tuple[tuple[NodeId, int], ...]
    outs: tuple[int, ...]
    text: str  # the nodes as the control log writes them


class NodeKind(Enum):
    RRH = "rrh"
    BBU = "bbu"
    FH_SWITCH = "switch"
    TIMING_SOURCE = "timing"


_MIN_PORTS = {NodeKind.FH_SWITCH: 2}  # any other kind: 1
# The largest link capacity, b/s. Past ~3e17 b/s a 9-byte frame's transmission
# time (72 bits) falls below the float spacing of a time near 1 s (2.2e-16 s):
# now + tx == now, and simulated time stops advancing.
MAX_CAPACITY = 1e15


@dataclass(frozen=True)
class Node:
    id: NodeId
    kind: NodeKind
    ports: int
    name: str = ""

    def __post_init__(self) -> None:
        minimum = _MIN_PORTS.get(self.kind, 1)
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

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if not 0 < self.capacity <= MAX_CAPACITY:
            raise ValueError(f"capacity must be finite and in (0, {MAX_CAPACITY:g}] b/s")
        if not 0 <= self.propagation_delay < math.inf:
            raise ValueError("propagation_delay must be finite and >= 0")
        # at most 1 s, so a clock's accumulated jitter squared is at most its hop count
        if not 0 <= self.jitter_std <= 1.0:
            raise ValueError("jitter_std must be finite and in [0, 1] s")
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
    node sequence identifies a unique physical path. Hop rows for path
    search are built once per frame size and cached on the topology,
    and so are the best routes path search finds with every link usable
    (`best_routes`) and the `Route` of every path asked for (`routes`),
    which is safe because a topology never changes after construction.
    """

    def __init__(self, nodes: Sequence[Node], links: Sequence[PhysLink]):
        self._index(nodes, links)
        if not self.links:
            raise ValueError("topology must contain at least one link")
        self._check_connected()

    def _index(self, nodes: Iterable[Node], links: Iterable[PhysLink]) -> None:
        """Hold `nodes` and `links`, each link checked and indexed by its key and by both ends."""
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
        self._hop_rows: dict[int, dict[NodeId, tuple[HopRow, ...]]] = {}
        self._relay_rows: dict[int, dict[NodeId, tuple[RelayRow, ...]]] = {}
        # per (src, dst, frame wire bytes, header-processing delay), the best
        # route with every link usable and its fixed latency, or None when
        # dst is cut off; filled by `fhsim.control.compute_path`
        self.best_routes: dict[tuple[NodeId, NodeId, int, float], tuple[Route, float] | None] = {}
        self.routes: dict[tuple[NodeId, ...], Route] = {}

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

    def hop_rows(self, frame_wire_bytes: int) -> dict[NodeId, tuple[HopRow, ...]]:
        """Per node, a (peer, link key, hop cost, peer relays) row for each attached link.

        The hop cost is the link's propagation delay plus the
        serialization of one `frame_wire_bytes` frame at its capacity;
        only switches relay payload. Rows are cached per frame size.
        """
        rows = self._hop_rows.get(frame_wire_bytes)
        if rows is None:
            bits = frame_wire_bytes * 8
            rows = self._hop_rows[frame_wire_bytes] = {
                node: tuple(
                    (
                        peer,
                        link.key,
                        link.propagation_delay + bits / link.capacity,
                        self.nodes[peer].kind is NodeKind.FH_SWITCH,
                    )
                    for peer, link in self.neighbors(node)
                )
                for node in self.nodes
            }
        return rows

    def relay_rows(self, frame_wire_bytes: int) -> dict[NodeId, tuple[RelayRow, ...]]:
        """Per node, its `hop_rows` whose peer relays payload, as (peer, link key, hop cost); cached the same way."""
        rows = self._relay_rows.get(frame_wire_bytes)
        if rows is None:
            rows = self._relay_rows[frame_wire_bytes] = {
                node: tuple((peer, key, hop) for peer, key, hop, relays in hops if relays)
                for node, hops in self.hop_rows(frame_wire_bytes).items()
            }
        return rows

    def link_between(self, a: NodeId, b: NodeId) -> PhysLink:
        key = (a, b) if a < b else (b, a)
        link = self._by_key.get(key)
        if link is None:
            raise KeyError(f"no link between {a} and {b}")
        return link

    def route(self, path: tuple[NodeId, ...]) -> Route:
        """The `Route` of `path`, built on its first request and kept."""
        route = self.routes.get(path)
        if route is None:
            links = [self.link_between(a, b) for a, b in zip(path, path[1:])]
            route = self.routes[path] = Route(
                path,
                tuple(link.key for link in links),
                links[0].port_of(path[0]),
                tuple((node, link.port_of(node)) for node, link in zip(path[1:], links)),
                tuple(link.port_of(node) for node, link in zip(path[1:], links[1:])),
                "-".join(map(str, path)),
            )
        return route

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind is kind]

    def without_links(self, excluded: set[tuple[NodeId, NodeId]]) -> "PhysicalTopology":
        """The topology with the links keyed in `excluded` removed; it never raises.

        Used for what-if path computation only, so the result may be
        disconnected or hold no link: the caller filters reachability
        per request.
        """
        topo = object.__new__(PhysicalTopology)
        topo._index(self.nodes.values(), [link for link in self.links if link.key not in excluded])
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


# The one place the rules of the pattern shapes live. For each shape, its
# source end and its destination end as (field, node kind, holds several),
# and whether its legs share a tree: distribution legs from one source
# share one reservation and one label per tree link, while other legs are
# independent circuits. A pattern's legs are all its (source, destination)
# pairs, in order.
_SHAPES: dict[type, tuple[tuple[str, NodeKind, bool], tuple[str, NodeKind, bool], bool]] = {
    PointToPoint: (("rrh", NodeKind.RRH, False), ("bbu", NodeKind.BBU, False), False),
    AggregationToOneBbu: (("rrhs", NodeKind.RRH, True), ("bbu", NodeKind.BBU, False), False),
    RrhToMultiBbu: (("rrh", NodeKind.RRH, False), ("bbus", NodeKind.BBU, True), True),
    BbuToBbu: (("src_bbu", NodeKind.BBU, False), ("dst_bbu", NodeKind.BBU, False), False),
}


def pattern_shape(cls: type, sources: tuple, destinations: tuple) -> PatternShape:
    """The `cls` shape over these endpoints; an end that holds one refuses several."""
    values = {}
    ends = zip(("source", "destination"), (sources, destinations), _SHAPES[cls])
    for role, nodes, (name, _, several) in ends:
        if not several and len(nodes) != 1:
            raise ValueError(f"takes one {role}, got {len(nodes)}")
        values[name] = nodes if several else nodes[0]
    return cls(**values)


def _ends(shape: PatternShape) -> tuple[tuple[NodeId, ...], tuple[NodeId, ...], NodeKind, NodeKind, bool]:
    """A shape's sources, its destinations, their two kinds, and whether its legs share a tree."""
    try:
        (src, src_kind, srcs_several), (dst, dst_kind, dsts_several), tree = _SHAPES[type(shape)]
    except KeyError:
        raise TypeError(f"unknown pattern shape {shape!r}") from None
    srcs, dsts = getattr(shape, src), getattr(shape, dst)
    return srcs if srcs_several else (srcs,), dsts if dsts_several else (dsts,), src_kind, dst_kind, tree


def pattern_legs(pattern: LogicalPattern) -> tuple[list[tuple[NodeId, NodeId]], bool]:
    """The (source, destination) legs of a pattern, and whether they share a tree."""
    srcs, dsts, _, _, tree = _ends(pattern.shape)
    return list(product(srcs, dsts)), tree


def validate_pattern(kinds: Mapping[NodeId, NodeKind], pattern: LogicalPattern) -> None:
    """Raise ValueError for an end missing from `kinds`, of the wrong kind, or named twice."""
    srcs, dsts, src_kind, dst_kind, _ = _ends(pattern.shape)
    named = set()
    for role, nodes, kind in (("source", srcs, src_kind), ("destination", dsts, dst_kind)):
        if not nodes:
            raise ValueError(f"{type(pattern.shape).__name__} needs at least one {role}")
        for node in nodes:
            actual = kinds.get(node)
            if actual is None:
                raise ValueError(f"{role} node {node!r} does not exist")
            if actual is not kind:
                raise ValueError(f"{role} node {node!r} is {actual.value}, expected {kind.value}")
            if node in named:
                raise ValueError(f"{role} node {node!r} is named twice")
            named.add(node)


# Topology generators.


@dataclass(frozen=True)
class LinkParams:
    capacity: float = 10e9
    propagation_delay: float = 5e-6
    jitter_std: float = 1e-9


@dataclass(frozen=True)
class Star:
    """One hub switch with the listed leaf nodes attached."""

    leaves: tuple[NodeKind, ...]
    link: LinkParams = LinkParams()


@dataclass(frozen=True)
class _SwitchLine:
    """The fields of a ring or chain: attachments are (switch position, kind) pairs.

    A subclass inherits the constructor, equality (only between values of
    the same class), hash and `repr`, which names the subclass.
    """

    n_switches: int
    attachments: tuple[tuple[int, NodeKind], ...]
    link: LinkParams = LinkParams()
    attach_link: LinkParams | None = None


class Ring(_SwitchLine):
    """n_switches in a cycle; attachments are (switch position, kind) pairs."""


class Chain(_SwitchLine):
    """n_switches in a line; attachments are (switch position, kind) pairs."""


TopologySpec = Union[Star, Ring, Chain]


def wire(
    nodes: Sequence[tuple[NodeKind, str]], links: Sequence[tuple[NodeId, NodeId, LinkParams]]
) -> PhysicalTopology:
    """The topology of `nodes`, ids 0..n-1 in order, joined by `links`.

    The one place ports are numbered: each (a, b, params) link takes the
    next free port at both of its ends, in list order, and a node gets
    a port per link, or the least its kind takes if that is more.
    """
    used = [0] * len(nodes)
    wired = []
    for a, b, params in links:
        wired.append(PhysLink(a, used[a], b, used[b], **vars(params)))
        used[a] += 1
        used[b] += 1
    ports = [max(count, _MIN_PORTS.get(kind, 1)) for (kind, _), count in zip(nodes, used)]
    return PhysicalTopology([Node(i, kind, ports[i], name) for i, (kind, name) in enumerate(nodes)], wired)


def build_topology(spec: TopologySpec) -> PhysicalTopology:
    """Construct the physical topology described by `spec`, deterministically.

    A star's hub takes id 0 and its leaves follow; a ring or chain's
    switches take ids 0..n-1 and its attachments follow, in declaration
    order, each wired after the trunks. Degenerate specs (no attachments
    at all, attachment positions out of range, rings shorter than three
    switches) are rejected.
    """
    if isinstance(spec, Star):
        if not spec.leaves:
            raise ValueError("star needs at least one leaf")
        leaves = [(kind, f"{kind.value}{i}") for i, kind in enumerate(spec.leaves)]
        return wire([(NodeKind.FH_SWITCH, "hub"), *leaves], [(0, 1 + i, spec.link) for i in range(len(leaves))])

    if isinstance(spec, _SwitchLine):
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
        switches = [(NodeKind.FH_SWITCH, f"s{i}") for i in range(n)]
        leaves = [(kind, f"{kind.value}{i}") for i, (_, kind) in enumerate(spec.attachments)]
        trunks = n if isinstance(spec, Ring) else n - 1
        attach = spec.attach_link or spec.link
        return wire(
            switches + leaves,
            [(i, (i + 1) % n, spec.link) for i in range(trunks)]
            + [(pos, n + i, attach) for i, (pos, _) in enumerate(spec.attachments)],
        )

    raise TypeError(f"unknown topology spec {spec!r}")
