"""Centralized session control: virtual circuits with guarantees.

A session is a stream between end equipment with a peak-rate bandwidth
reservation and a latency bound. The controller computes constrained
paths on its global view, installs label-switching entries atomically,
keeps a per-link reservation ledger that never overdraws, and supports
teardown, failure rerouting over redundant paths, and make-before-break
migration as the endpoint set changes. Setup, reroute and migration
charge by one rule (plan, install, debit the plan once), so the ledger
always holds exactly each session's `debits`. Labels are scoped per
(node, input port), smallest free one first: each circuit records only
the (node, in_port, label) of every node it arrives at, which keys
every switch entry and the egress binding it installed. Every step
reads a path's hops from its `Route`, built once per path. The network
has one `SwitchConfig`: path planning adds its header-processing delay
at every transit switch, as the engine spends it at each one, and a
`SwitchState` is only a switch's label table.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import islice

from .engine import RegulatorPolicy, SwitchConfig, SwitchState
from .packet import HEADER_BYTES, MAX_LABEL, MAX_LATENCY_CLASS
from .topology import (
    LogicalPattern,
    NodeId,
    NodeKind,
    PhysicalTopology,
    Route,
    pattern_legs,
    validate_pattern,
)

LinkKey = tuple[NodeId, NodeId]

NO_BANDWIDTH = "no-bandwidth"
LATENCY_UNREACHABLE = "latency-unreachable"
LABEL_EXHAUSTED = "label-exhausted"


class Infeasible(Exception):
    """Request cannot be satisfied; `cause` names the binding constraint."""

    def __init__(self, cause: str, detail: str = ""):
        super().__init__(f"{cause}{': ' + detail if detail else ''}")
        self.cause = cause


@dataclass(frozen=True)
class SessionRequest:
    pattern: LogicalPattern
    mean_rate: float  # bits/s
    peak_rate: float  # bits/s, the reserved amount
    latency_class: int  # 0..15, 0 most urgent
    latency_bound: float  # s
    policy: RegulatorPolicy = RegulatorPolicy()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_rate) and math.isfinite(self.peak_rate)):
            raise ValueError("mean_rate and peak_rate must be finite")
        if not self.peak_rate >= self.mean_rate > 0:
            raise ValueError("need peak_rate >= mean_rate > 0")
        if not self.latency_bound > 0:  # NaN fails too
            raise ValueError("latency_bound must be > 0")
        if not 0 <= self.latency_class <= MAX_LATENCY_CLASS:
            raise ValueError(f"latency_class must be in 0..{MAX_LATENCY_CLASS}")


@dataclass(slots=True)
class Circuit:
    """A unicast leg of a session: ingress host to one egress host, along `route`.

    `arrivals` holds the (node, in_port, label) of every node the leg
    arrives at, the egress last. They key every entry and binding the
    leg installed, and name the labels it holds: each switch arrival's
    entry forwards to the next link's out port under the next arrival's
    label, and the last arrival is the egress binding.
    """

    circuit_id: int
    route: Route
    arrivals: tuple[tuple[NodeId, int, int], ...]

    nodes = property(lambda self: self.route.nodes)  # full node sequence, ingress to egress
    ingress_port = property(lambda self: self.route.ingress_port)
    ingress = property(lambda self: self.nodes[0])
    egress = property(lambda self: self.nodes[-1])
    ingress_label = property(lambda self: self.arrivals[0][2])
    egress_label = property(lambda self: self.arrivals[-1][2])


@dataclass(slots=True)
class Session:
    id: str
    request: SessionRequest
    circuits: list[Circuit]
    debits: dict[LinkKey, float]  # what the ledger holds for this session, per link
    state: str = "active"  # active | torn_down

    def uses_link(self, key: LinkKey) -> bool:
        return key in self.debits


# Every finite float is a whole multiple of 2**-1074 (the smallest
# subnormal), so ledger totals kept as int counts of it are exact.
_UNIT = 1 << 1074


def _units(rate: float) -> int:
    """`rate` as an exact count of 2**-1074 (n * _UNIT // d, as a shift)."""
    n, d = rate.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"rate must be finite and >= 0, got {rate!r}")


class ReservationLedger:
    """Per-link peak-rate reservations with exact restoration.

    Holdings are kept per session, so releasing everything a session
    holds returns the ledger to its previous state with no residue.
    Each link also keeps the exact sum of its holdings, as an integer
    count of 2**-1074, which every write moves by exactly the change it
    made to the stored holding. `reserved` is that sum correctly rounded
    to a float (equal to `math.fsum` of the holdings), independent of
    the order holdings arrived in, and read in O(1); `residual` is
    capacity minus it. Admission decisions are made by the path planner
    before anything is charged; debit and credit themselves are plain
    bookkeeping, which refuses a negative or non-finite rate.
    """

    def __init__(self, topology: PhysicalTopology):
        self._capacity: dict[LinkKey, float] = {link.key: link.capacity for link in topology.links}
        self._held: dict[LinkKey, dict[str, float]] = {k: {} for k in self._capacity}
        self._total: dict[LinkKey, int] = dict.fromkeys(self._capacity, 0)

    def link_keys(self) -> list[LinkKey]:
        return list(self._capacity)

    def reserved(self, key: LinkKey) -> float:
        return self._total[key] / _UNIT

    def residual(self, key: LinkKey) -> float:
        return self._capacity[key] - self.reserved(key)

    def residual_after(
        self, overlay: dict[LinkKey, float], credit: dict[LinkKey, float]
    ) -> Callable[[LinkKey], float]:
        """A `residual` reader that subtracts the pending charges in `overlay` and adds `credit`.

        One call per read, in the float order of `residual(key) - overlay
        + credit`; both dicts are read live, so later changes are seen.
        """
        capacity, total = self._capacity, self._total

        def residual(key: LinkKey) -> float:
            return capacity[key] - total[key] / _UNIT - overlay.get(key, 0.0) + credit.get(key, 0.0)

        return residual

    def debit(self, key: LinkKey, session_id: str, rate: float) -> None:
        _check_rate(rate)
        held = self._held[key]
        old = held.get(session_id)
        held[session_id] = new = old + rate if old else rate  # a first holding shares the caller's float
        self._total[key] += _units(new) - _units(old) if old else _units(new)

    def credit(self, key: LinkKey, session_id: str, rate: float) -> None:
        _check_rate(rate)
        held = self._held[key]
        old = held[session_id]
        remaining = old - rate
        if remaining <= 0.0:
            del held[session_id]
            remaining = 0.0
        else:
            held[session_id] = remaining
        self._total[key] += _units(remaining) - _units(old)

    def release_session(self, key: LinkKey, session_id: str) -> float:
        rate = self._held[key].pop(session_id, 0.0)
        self._total[key] -= _units(rate)
        return rate

    def snapshot(self) -> dict[LinkKey, dict[str, float]]:
        return {key: dict(held) for key, held in self._held.items() if held}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReservationLedger):
            return NotImplemented
        return self._capacity == other._capacity and self.snapshot() == other.snapshot()


def compute_path(
    topology: PhysicalTopology,
    src: NodeId,
    dst: NodeId,
    peak_rate: float,
    latency_bound: float,
    frame_wire_bytes: int,
    header_processing_delay: float,
    residual_of: Callable[[LinkKey], float],
) -> tuple[tuple[NodeId, ...], float]:
    """Minimum fixed-latency path with enough residual bandwidth.

    Fixed latency sums propagation plus max-frame serialization per link
    plus header_processing_delay at every transit switch. Only
    switches relay payload, so interior path nodes are switches by
    construction. Only links whose `residual_of(key)` covers peak_rate
    are usable; the controller's reader (`ReservationLedger.residual_after`)
    already subtracts the charges pending in the plan and adds the
    credits it grants. The path is refused only when its fixed latency
    exceeds latency_bound; queueing delay is not budgeted. Ties between
    equal-latency paths break lexicographically on the node sequence.
    Raises Infeasible naming the binding constraint.

    The topology remembers, per (src, dst, frame_wire_bytes,
    header_processing_delay), the best route with every link usable
    (`PhysicalTopology.best_routes`), found once by the same search.
    When every link of that route (its `Route.keys`) is usable for this
    call, it is the answer and no search runs: it is the (cost, node
    sequence) minimum over all relay paths, so when it is usable it is
    also the minimum over the usable ones. When there is no such route,
    dst is cut off and no search could reach it. Otherwise the search
    runs over the usable links, as described at `_search`.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    memo = topology.best_routes
    route_key = (src, dst, frame_wire_bytes, header_processing_delay)
    try:
        best = memo[route_key]
    except KeyError:
        found = _search(topology, src, dst, 0.0, frame_wire_bytes, header_processing_delay, _unlimited)
        best = memo[route_key] = None if found is None else (topology.route(found[0]), found[1])
    found = None
    if best is not None:
        route, cost = best
        found = (route.nodes, cost)
        for key in route.keys:
            if not residual_of(key) >= peak_rate:  # NaN fails too
                found = _search(topology, src, dst, peak_rate, frame_wire_bytes, header_processing_delay, residual_of)
                break
    if found is None:
        raise Infeasible(NO_BANDWIDTH, f"no path with {peak_rate:g} bits/s from {src} to {dst}")
    cost = found[1]
    if cost > latency_bound:
        raise Infeasible(
            LATENCY_UNREACHABLE,
            f"best fixed latency {cost:g}s exceeds bound {latency_bound:g}s",
        )
    return found


def _unlimited(key: LinkKey) -> float:
    """A residual reader under which every link is usable."""
    return math.inf


def _search(
    topology: PhysicalTopology,
    src: NodeId,
    dst: NodeId,
    peak_rate: float,
    frame_wire_bytes: int,
    header_processing_delay: float,
    residual_of: Callable[[LinkKey], float],
) -> tuple[tuple[NodeId, ...], float] | None:
    """The minimum (path, fixed latency) over the links whose residual covers peak_rate, or None.

    The search keeps one cost and one parent per node, and holds no path
    in its heap; only when two float costs to a node tie exactly does it
    walk both paths back to compare them. A settled node relaxes its
    relaying peers from `topology.relay_rows(frame_wire_bytes)`, and the
    destination is entered from its own rows of `topology.hop_rows`,
    so end equipment attached to a switch costs nothing per visit. The
    rows are built once per topology and frame size, so a relaxation only
    reads the residual and the processing delay.
    """
    rows = topology.relay_rows(frame_wire_bytes)
    # the last hop: from each peer of dst, over its link, with no processing at dst
    into_dst = {peer: (key, hop) for peer, key, hop, _ in topology.hop_rows(frame_wire_bytes)[dst]}

    best: dict[NodeId, float] = {src: 0.0}
    parent: dict[NodeId, NodeId | None] = {src: None}
    heap: list[tuple[float, NodeId]] = [(0.0, src)]
    while heap:
        cost, node = heapq.heappop(heap)
        if cost != best[node]:
            continue  # superseded by a cheaper entry
        if node == dst:
            break
        for peer, key, hop in rows[node]:
            if peer == dst or residual_of(key) < peak_rate:
                continue
            cand = cost + (hop + header_processing_delay)
            old = best.get(peer)
            if old is None or cand < old:
                best[peer], parent[peer] = cand, node
                heapq.heappush(heap, (cand, peer))
            elif cand == old and _smaller_through(parent, node, peer):
                parent[peer] = node
        last = into_dst.get(node)
        if last is not None and residual_of(last[0]) >= peak_rate:
            cand = cost + last[1]
            old = best.get(dst)
            if old is None or cand < old:
                best[dst], parent[dst] = cand, node
                heapq.heappush(heap, (cand, dst))
            elif cand == old and _smaller_through(parent, node, dst):
                parent[dst] = node

    cost = best.get(dst)
    return None if cost is None else (_path(parent, dst), cost)


def _path(parent: dict[NodeId, NodeId | None], node: NodeId | None) -> tuple[NodeId, ...]:
    """The path to `node`, read back along the parent pointers to the source."""
    out = []
    while node is not None:
        out.append(node)
        node = parent[node]
    return tuple(reversed(out))


def _smaller_through(parent: dict[NodeId, NodeId | None], via: NodeId, node: NodeId) -> bool:
    """Whether reaching `node` through `via` makes a lexicographically smaller path than its parent's.

    Called only when the two costs tie exactly. A float sum that absorbs
    a hop could tie a node with its own descendant, which never wins.
    """
    mine = _path(parent, via)
    return node not in mine and (*mine, node) < (*_path(parent, parent[node]), node)


class _LabelPool:
    """The labels of one (node, input port), smallest free one first.

    Every label below `mark` is either in `used` or in the `freed`
    min-heap, so the smallest free label is the heap's minimum, or
    `mark` when the heap is empty: O(log n) to take or give one.
    """

    __slots__ = ("used", "freed", "mark")

    def __init__(self) -> None:
        self.used: set[int] = set()
        self.freed: list[int] = []
        self.mark = 0

    def take(self) -> int:
        if self.freed:
            label = heapq.heappop(self.freed)
        else:
            label = self.mark
            self.mark += 1
        self.used.add(label)
        return label

    def give(self, label: int) -> None:
        self.used.remove(label)
        heapq.heappush(self.freed, label)


@dataclass(slots=True)
class ControlEvent:
    op: str
    session_id: str
    outcome: str
    path: str


class Controller:
    """Sequential control plane over one topology and one ledger.

    Owns label allocation, the installed forwarding tables (one
    SwitchState per switch), host egress bindings keyed by arrival port,
    and the reservation ledger, under one `config` for the network.
    Every operation either commits fully or leaves all control state
    untouched.

    Each (node, in_port) hands out its smallest free label, in O(log n)
    for n labels in use there. `sessions` holds the active sessions
    only, in setup order: teardown and a reroute that finds no path
    remove a session, and a name reused later takes a new slot at the
    end.
    """

    def __init__(self, topology: PhysicalTopology, config: SwitchConfig = SwitchConfig()):
        self.topology = topology
        self.config = config  # its header-processing delay is added at every transit switch
        self.ledger = ReservationLedger(topology)
        self.switches = {node.id: SwitchState() for node in topology.nodes_of_kind(NodeKind.FH_SWITCH)}
        self.sessions: dict[str, Session] = {}
        self.egress: dict[tuple[NodeId, int, int], tuple[str, int]] = {}
        self.failed_links: set[LinkKey] = set()
        self.log: list[ControlEvent] = []
        self._session_counter = 0
        self._labels: dict[tuple[NodeId, int], _LabelPool] = {}
        self._kinds = {node.id: node.kind for node in topology.nodes.values()}
        # the surviving topology and the failed links it was built without
        self._survivors: tuple[frozenset[LinkKey], PhysicalTopology] = (frozenset(), topology)

    # Label allocation: smallest free label per (node, input port).
    def _alloc_label(self, node: NodeId, in_port: int) -> int:
        pool = self._labels.get((node, in_port))
        if pool is None:
            pool = self._labels[(node, in_port)] = _LabelPool()
        if len(pool.used) > MAX_LABEL:
            raise Infeasible(LABEL_EXHAUSTED, f"all labels in use at node {node} port {in_port}")
        return pool.take()

    def _alloc_labels(self, ends: list[tuple[NodeId, int]]) -> list[tuple[NodeId, int, int]]:
        """One label per (node, input port), in order, as (node, in_port, label) arrivals; all or none."""
        arrivals: list[tuple[NodeId, int, int]] = []
        try:
            for node, in_port in ends:
                arrivals.append((node, in_port, self._alloc_label(node, in_port)))
        except Infeasible:
            for arrival in arrivals:
                self._free_label(*arrival)
            raise
        return arrivals

    def _free_label(self, node: NodeId, in_port: int, label: int) -> None:
        self._labels[(node, in_port)].give(label)

    def _surviving(self) -> PhysicalTopology:
        """The topology without `failed_links`, rebuilt only when that set changed."""
        if self._survivors[0] != self.failed_links:
            failed = frozenset(self.failed_links)
            survivors = self.topology.without_links(failed) if failed else self.topology
            self._survivors = (failed, survivors)
        return self._survivors[1]

    def _plan_paths(
        self,
        request: SessionRequest,
        extra_credit: dict[LinkKey, float] | None = None,
    ) -> tuple[list[Route], bool, dict[LinkKey, float]]:
        """Compute the route of every leg of the pattern, whether they share a tree, and the debits they need.

        Independent legs reserve independently (their streams add up on
        shared links); tree legs debit each tree link once. One credit
        dict, starting from `extra_credit` (a migrating session's own
        debits), also holds the tree links earlier legs paid for, and
        every leg's residual reader adds it. Raises Infeasible without
        changing any state.
        """
        legs, tree = pattern_legs(request.pattern)
        frame_wire = request.policy.max_frame_bytes + HEADER_BYTES
        topology = self._surviving()
        overlay: dict[LinkKey, float] = {}
        credit = dict(extra_credit or {})
        residual = self.ledger.residual_after(overlay, credit)
        routes: list[Route] = []
        for src, dst in legs:
            path, _ = compute_path(
                topology,
                src,
                dst,
                request.peak_rate,
                request.latency_bound,
                frame_wire,
                self.config.header_processing_delay,
                residual,
            )
            route = topology.route(path)
            routes.append(route)
            for key in route.keys:
                if tree:
                    if key not in overlay:
                        overlay[key] = request.peak_rate
                        # Later legs ride tree links without paying again.
                        credit[key] = credit.get(key, 0.0) + request.peak_rate
                else:
                    rate = overlay.get(key)
                    overlay[key] = rate + request.peak_rate if rate else request.peak_rate
        return routes, tree, overlay

    def _install(self, session_id: str, routes: list[Route], tree: bool) -> list[Circuit]:
        """Install the legs of a session: every label first, then every entry.

        Labels are allocated per (leg, link) in leg order, the legs of a
        tree sharing one label per link, that is per arrival (node,
        in_port), so a refused allocation raises Infeasible before
        anything is installed. Each (node, in_port, label) gets one entry; where tree
        legs diverge it has several outputs, which the engine turns into
        packet replication.
        """
        ends = [end for route in routes for end in route.ends]
        if tree:
            ends = list(dict.fromkeys(ends))
        arrived = self._alloc_labels(ends)
        shared, taken = dict(zip(ends, arrived)) if tree else None, iter(arrived)
        fanout: dict[tuple[NodeId, int, int], list[tuple[int, int]]] = {}
        circuits = []
        for cid, route in enumerate(routes):
            arrivals = tuple(shared[end] for end in route.ends) if tree else tuple(islice(taken, len(route.ends)))
            # each arrival but the last outputs onto the next link, under the next arrival's label
            for at, out_port, (_, _, label_out) in zip(arrivals, route.outs, arrivals[1:]):
                outputs = fanout.setdefault(at, [])
                if (out := (out_port, label_out)) not in outputs:
                    outputs.append(out)
            self.egress[arrivals[-1]] = (session_id, cid)
            circuits.append(Circuit(cid, route, arrivals))
        for (node, in_port, label_in), outputs in fanout.items():
            self.switches[node].install(in_port, label_in, tuple(outputs))
        return circuits

    def _uninstall(self, circuits: list[Circuit]) -> None:
        """Remove the entry or egress binding at every arrival, and free its label."""
        # tree legs share the arrivals of their common links
        for node, in_port, label in dict.fromkeys(a for c in circuits for a in c.arrivals):
            if node in self.switches:
                self.switches[node].remove(in_port, label)
            else:
                del self.egress[(node, in_port, label)]
            self._free_label(node, in_port, label)

    def _release(self, session: Session) -> None:
        """Uninstall a session's circuits and return its ledger holdings; it keeps neither."""
        self._uninstall(session.circuits)
        for key in session.debits:
            self.ledger.release_session(key, session.id)
        session.circuits = []
        session.debits = {}

    def _paths_string(self, circuits: list[Circuit]) -> str:
        return "|".join([c.route.text for c in circuits])

    def _record(self, op: str, session_id: str, outcome: str, path: str = "") -> None:
        self.log.append(ControlEvent(op, session_id, outcome, path))

    def _admit(self, session_id: str, request: SessionRequest) -> tuple[list[Circuit], dict[LinkKey, float]]:
        """Plan, install and charge a session's circuits; Infeasible leaves all state untouched."""
        routes, tree, debits = self._plan_paths(request)
        circuits = self._install(session_id, routes, tree)
        for key, rate in debits.items():
            self.ledger.debit(key, session_id, rate)
        return circuits, debits

    def setup(self, request: SessionRequest, name: str | None = None) -> Session:
        """Admit and install a session atomically; raises Infeasible."""
        validate_pattern(self._kinds, request.pattern)
        session_id = name if name is not None else f"s{self._session_counter}"
        self._session_counter += 1
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already active")
        try:
            circuits, debits = self._admit(session_id, request)
        except Infeasible as exc:
            self._record("setup", session_id, f"infeasible({exc.cause})")
            raise
        session = Session(id=session_id, request=request, circuits=circuits, debits=debits)
        self.sessions[session_id] = session
        self._record("setup", session_id, "installed", self._paths_string(circuits))
        return session

    def teardown(self, session: Session) -> None:
        """Remove entries and return reservations; idempotent."""
        if session.state == "torn_down":
            self._record("teardown", session.id, "noop")
            return
        self._release(session)
        session.state = "torn_down"
        del self.sessions[session.id]
        self._record("teardown", session.id, "released")

    def reroute_on_failure(self, failed: LinkKey) -> dict[str, str]:
        """Recompute every active session crossing the failed link, given by its end nodes in either order.

        Sessions with a redundant path get fresh circuits, in setup
        order; the rest are reported as victims, their resources
        released and they leave `sessions`. Sessions off the failed link
        keep their entries untouched.
        """
        key = (failed[0], failed[1]) if failed[0] < failed[1] else (failed[1], failed[0])
        self.failed_links.add(key)
        outcomes: dict[str, str] = {}
        for session_id, session in list(self.sessions.items()):
            if not session.uses_link(key):
                continue
            self._release(session)
            try:
                session.circuits, session.debits = self._admit(session_id, session.request)
            except Infeasible as exc:
                session.state = "torn_down"
                del self.sessions[session_id]
                outcomes[session_id] = "victim"
                self._record("reroute", session_id, f"victim({exc.cause})")
                continue
            outcomes[session_id] = "rerouted"
            self._record("reroute", session_id, "rerouted", self._paths_string(session.circuits))
        return outcomes

    def migrate(self, session: Session, new_pattern: LogicalPattern) -> Session:
        """Move a session to a new pattern, make-before-break.

        New paths are planned as if the session's own debits were free,
        and the new circuits are installed beside the old ones before
        the old ones are released; the session is then charged once,
        as setup charges it, so the ledger holds exactly its debits and
        never overdraws. On Infeasible the session is untouched.
        """
        if session.state != "active":
            raise ValueError("cannot migrate a torn-down session")
        if new_pattern.granularity != session.request.pattern.granularity:
            raise ValueError("migration must preserve granularity")
        validate_pattern(self._kinds, new_pattern)
        new_request = replace(session.request, pattern=new_pattern)
        try:
            routes, tree, debits = self._plan_paths(new_request, extra_credit=session.debits)
            if new_pattern == session.request.pattern and [c.route for c in session.circuits] == routes:
                self._record("migrate", session.id, "noop", self._paths_string(session.circuits))
                return session
            circuits = self._install(session.id, routes, tree)
        except Infeasible as exc:
            self._record("migrate", session.id, f"infeasible({exc.cause})")
            raise
        self._release(session)
        for key, rate in debits.items():
            self.ledger.debit(key, session.id, rate)
        session.request, session.circuits, session.debits = new_request, circuits, debits
        self._record("migrate", session.id, "migrated", self._paths_string(circuits))
        return session

    def write_log_csv(self, path: str) -> None:
        """One row per operation, in order; `time` is 0.0 on every row, as the controller keeps no clock."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "op", "session_id", "outcome", "path"])
            for event in self.log:
                writer.writerow(["0.0", event.op, event.session_id, event.outcome, event.path])
