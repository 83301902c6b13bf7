"""Centralized session control: virtual circuits with guarantees.

A session is a stream between end equipment with a peak-rate bandwidth
reservation and a latency bound. The controller computes constrained
paths on its global view, installs label-switching entries atomically,
keeps a per-link reservation ledger that never overdraws, and supports
teardown, failure rerouting over redundant paths, and make-before-break
migration as the endpoint set changes. Labels are scoped per (node,
input port): each circuit records the (node, in_port, label) of every
node it arrives at, which keys both switch entries and the egress
binding at its destination host.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass, replace

from .engine import RegulatorPolicy, SwitchConfig, SwitchState
from .packet import HEADER_BYTES, MAX_LABEL
from .topology import (
    AggregationToOneBbu,
    BbuToBbu,
    LogicalPattern,
    NodeId,
    NodeKind,
    PhysLink,
    PhysicalTopology,
    PointToPoint,
    RrhToMultiBbu,
    validate_pattern,
)
from .traffic import SplitScheme

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
    scheme: SplitScheme | None = None  # reporting annotation only
    policy: RegulatorPolicy = RegulatorPolicy()

    def __post_init__(self) -> None:
        if not self.peak_rate >= self.mean_rate > 0:
            raise ValueError("need peak_rate >= mean_rate > 0")
        if self.latency_bound <= 0:
            raise ValueError("latency_bound must be > 0")
        if not 0 <= self.latency_class < 16:
            raise ValueError("latency_class must be in 0..15")


@dataclass(frozen=True)
class HopEntry:
    """One installed forwarding entry of a circuit."""

    node: NodeId
    in_port: int
    label_in: int
    out_port: int
    label_out: int


@dataclass
class Circuit:
    """A unicast leg of a session: ingress host to one egress host.

    `arrivals` holds the (node, in_port, label) of every node the leg
    arrives at, the egress last: the switch entries and the egress
    binding it was installed under, and the labels it holds.
    """

    circuit_id: int
    ingress: NodeId
    egress: NodeId
    nodes: tuple[NodeId, ...]  # full node sequence, ingress to egress
    ingress_port: int
    ingress_label: int
    egress_label: int
    hops: tuple[HopEntry, ...]
    arrivals: tuple[tuple[NodeId, int, int], ...]


@dataclass
class Session:
    id: str
    request: SessionRequest
    circuits: list[Circuit]
    debits: dict[LinkKey, float]  # what setup charged the ledger, per link
    state: str = "active"  # active | torn_down

    def uses_link(self, key: LinkKey) -> bool:
        return key in self.debits


class ReservationLedger:
    """Per-link peak-rate reservations with exact restoration.

    Holdings are kept per session, so releasing everything a session
    holds returns the ledger to its previous state with no residue.
    Admission decisions are made by the path planner before anything is
    charged; debit and credit themselves are plain bookkeeping.
    """

    def __init__(self, topology: PhysicalTopology, capacity_fraction: float = 1.0):
        if not 0 < capacity_fraction <= 1:
            raise ValueError("capacity_fraction must be in (0, 1]")
        self._capacity: dict[LinkKey, float] = {
            link.key: link.capacity * capacity_fraction for link in topology.links
        }
        self._held: dict[LinkKey, dict[str, float]] = {k: {} for k in self._capacity}

    def link_keys(self) -> list[LinkKey]:
        return list(self._capacity)

    def reserved(self, key: LinkKey) -> float:
        held = self._held[key]
        return sum(held[sid] for sid in sorted(held))

    def residual(self, key: LinkKey) -> float:
        return self._capacity[key] - self.reserved(key)

    def debit(self, key: LinkKey, session_id: str, rate: float) -> None:
        held = self._held[key]
        held[session_id] = held.get(session_id, 0.0) + rate

    def credit(self, key: LinkKey, session_id: str, rate: float) -> None:
        held = self._held[key]
        remaining = held[session_id] - rate
        if remaining <= 0.0:
            del held[session_id]
        else:
            held[session_id] = remaining

    def release_session(self, key: LinkKey, session_id: str) -> float:
        return self._held[key].pop(session_id, 0.0)

    def holds(self, session_id: str) -> dict[LinkKey, float]:
        return {
            key: held[session_id] for key, held in self._held.items() if session_id in held
        }

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
    header_processing_delay_of,
    residual_of,
    extra_credit: dict[LinkKey, float] | None = None,
) -> tuple[tuple[NodeId, ...], float]:
    """Minimum fixed-latency path with enough residual bandwidth.

    Fixed latency sums propagation plus max-frame serialization per link
    plus the header-processing delay of every transit switch. Only
    switches relay payload, so interior path nodes are switches by
    construction. Only links whose residual (plus any extra_credit, used
    during migration to discount the session's own holding) covers
    peak_rate are usable. The path is refused only when its fixed latency
    exceeds latency_bound; queueing delay is not budgeted. Ties between
    equal-latency paths break lexicographically on the node sequence.
    Raises Infeasible naming the binding constraint.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    extra = extra_credit or {}

    best: dict[NodeId, tuple[float, tuple[NodeId, ...]]] = {src: (0.0, (src,))}
    heap: list[tuple[float, tuple[NodeId, ...], NodeId]] = [(0.0, (src,), src)]
    while heap:
        cost, path, node = heapq.heappop(heap)
        if best.get(node) != (cost, path):
            continue
        if node == dst:
            break
        if node != src and topology.nodes[node].kind is not NodeKind.FH_SWITCH:
            continue  # end equipment cannot relay payload
        for peer, link in topology.neighbors(node):
            if residual_of(link.key) + extra.get(link.key, 0.0) < peak_rate:
                continue
            hop = link.propagation_delay + frame_wire_bytes * 8 / link.capacity
            if peer != dst:
                hop += header_processing_delay_of(peer)
            cand = (cost + hop, path + (peer,))
            if peer not in best or cand < best[peer]:
                best[peer] = cand
                heapq.heappush(heap, (cand[0], cand[1], peer))

    hit = best.get(dst)
    if hit is None:
        raise Infeasible(NO_BANDWIDTH, f"no path with {peak_rate:g} bits/s from {src} to {dst}")
    cost, path = hit
    if cost > latency_bound:
        raise Infeasible(
            LATENCY_UNREACHABLE,
            f"best fixed latency {cost:g}s exceeds bound {latency_bound:g}s",
        )
    return path, cost


@dataclass
class ControlEvent:
    time: float
    op: str
    session_id: str
    outcome: str
    path: str


class Controller:
    """Sequential control plane over one topology and one ledger.

    Owns label allocation, the installed forwarding tables (one
    SwitchState per switch), host egress bindings keyed by arrival port,
    and the reservation ledger. Every operation either commits fully or
    leaves all control state untouched.
    """

    def __init__(
        self,
        topology: PhysicalTopology,
        switch_configs: dict[NodeId, SwitchConfig] | None = None,
        capacity_fraction: float = 1.0,
    ):
        self.topology = topology
        self.ledger = ReservationLedger(topology, capacity_fraction)
        self.switches: dict[NodeId, SwitchState] = {}
        for node in topology.nodes.values():
            if node.kind is NodeKind.FH_SWITCH:
                cfg = (switch_configs or {}).get(node.id) or SwitchConfig()
                self.switches[node.id] = SwitchState(cfg)
        self.sessions: dict[str, Session] = {}
        self.egress: dict[tuple[NodeId, int, int], tuple[str, int]] = {}
        self.failed_links: set[LinkKey] = set()
        self.log: list[ControlEvent] = []
        self.clock = 0.0
        self._session_counter = 0
        self._labels_in_use: dict[tuple[NodeId, int], set[int]] = {}

    # Label allocation: smallest free label per (node, input port).
    def _alloc_label(self, node: NodeId, in_port: int) -> int:
        used = self._labels_in_use.setdefault((node, in_port), set())
        if len(used) > MAX_LABEL:
            raise Infeasible(LABEL_EXHAUSTED, f"all labels in use at node {node} port {in_port}")
        label = 0
        while label in used:
            label += 1
        used.add(label)
        return label

    def _alloc_labels(self, arrivals: list[tuple[NodeId, int]]) -> list[int]:
        """One label per (node, input port), in order; all or none."""
        labels: list[int] = []
        try:
            for node, in_port in arrivals:
                labels.append(self._alloc_label(node, in_port))
        except Infeasible:
            for (node, in_port), label in zip(arrivals, labels):
                self._free_label(node, in_port, label)
            raise
        return labels

    def _free_label(self, node: NodeId, in_port: int, label: int) -> None:
        self._labels_in_use[(node, in_port)].discard(label)

    def _proc_delay_of(self, node: NodeId) -> float:
        switch = self.switches.get(node)
        return switch.config.header_processing_delay if switch else 0.0

    def _surviving(self) -> PhysicalTopology:
        if not self.failed_links:
            return self.topology
        return self.topology.without_links(self.failed_links)

    def _pattern_legs(self, pattern: LogicalPattern) -> tuple[list[tuple[NodeId, NodeId]], bool]:
        """The (source, destination) legs of a pattern, and whether they share a tree.

        Distribution legs from one source share a tree: one reservation
        and one label per tree link. Every other pattern's legs are
        independent circuits.
        """
        shape = pattern.shape
        if isinstance(shape, PointToPoint):
            return [(shape.rrh, shape.bbu)], False
        if isinstance(shape, AggregationToOneBbu):
            return [(rrh, shape.bbu) for rrh in shape.rrhs], False
        if isinstance(shape, RrhToMultiBbu):
            return [(shape.rrh, bbu) for bbu in shape.bbus], True
        if isinstance(shape, BbuToBbu):
            return [(shape.src_bbu, shape.dst_bbu)], False
        raise TypeError(f"unknown pattern shape {shape!r}")

    def _plan_paths(
        self,
        request: SessionRequest,
        extra_credit: dict[LinkKey, float] | None = None,
    ) -> tuple[list[tuple[NodeId, ...]], bool, dict[LinkKey, float]]:
        """Compute all legs of the pattern, whether they share a tree, and the debits they need.

        Independent legs reserve independently (their streams add up on
        shared links); tree legs debit each tree link once. Raises
        Infeasible without changing any state.
        """
        legs, tree = self._pattern_legs(request.pattern)
        frame_wire = request.policy.max_frame_bytes + HEADER_BYTES
        topology = self._surviving()
        overlay: dict[LinkKey, float] = {}

        def residual(key: LinkKey) -> float:
            return self.ledger.residual(key) - overlay.get(key, 0.0)

        paths: list[tuple[NodeId, ...]] = []
        credit = dict(extra_credit or {}) if tree else extra_credit
        for src, dst in legs:
            path, _ = compute_path(
                topology,
                src,
                dst,
                request.peak_rate,
                request.latency_bound,
                frame_wire,
                self._proc_delay_of,
                residual,
                credit,
            )
            paths.append(path)
            for a, b in zip(path, path[1:]):
                key = (a, b) if a < b else (b, a)
                if tree:
                    if key not in overlay:
                        overlay[key] = request.peak_rate
                        # Later legs ride tree links without paying again.
                        credit[key] = credit.get(key, 0.0) + request.peak_rate
                else:
                    overlay[key] = overlay.get(key, 0.0) + request.peak_rate
        return paths, tree, overlay

    def _install(self, session_id: str, paths: list[tuple[NodeId, ...]], tree: bool) -> list[Circuit]:
        """Install the legs of a session: every label first, then every entry.

        Labels are allocated per (leg, link) in leg order, the legs of a
        tree sharing one label per link, so a refused allocation raises
        Infeasible before anything is installed. Each (node, in_port,
        label) gets one entry; where tree legs diverge it has several
        outputs, which the engine turns into packet replication.
        """
        links: dict[tuple[int, NodeId, NodeId], PhysLink] = {}
        for cid, path in enumerate(paths):
            for a, b in zip(path, path[1:]):
                links.setdefault((0 if tree else cid, a, b), self.topology.link_between(a, b))
        ends = [(b, link.port_of(b)) for (_, _, b), link in links.items()]
        # (node, in_port, label) where each (leg, link) arrives
        arrival = {key: (*end, label) for key, end, label in zip(links, ends, self._alloc_labels(ends))}
        fanout: dict[tuple[NodeId, int, int], list[tuple[int, int]]] = {}
        circuits = []
        for cid, path in enumerate(paths):
            keys = [(0 if tree else cid, a, b) for a, b in zip(path, path[1:])]
            arrivals = tuple(arrival[key] for key in keys)
            hops = tuple(
                HopEntry(*arrivals[i], links[keys[i + 1]].port_of(path[i + 1]), arrivals[i + 1][2])
                for i in range(len(path) - 2)
            )
            for hop in hops:
                outputs = fanout.setdefault((hop.node, hop.in_port, hop.label_in), [])
                if (hop.out_port, hop.label_out) not in outputs:
                    outputs.append((hop.out_port, hop.label_out))
            self.egress[arrivals[-1]] = (session_id, cid)
            circuits.append(
                Circuit(
                    circuit_id=cid,
                    ingress=path[0],
                    egress=path[-1],
                    nodes=path,
                    ingress_port=links[keys[0]].port_of(path[0]),
                    ingress_label=arrivals[0][2],
                    egress_label=arrivals[-1][2],
                    hops=hops,
                    arrivals=arrivals,
                )
            )
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
        """Uninstall a session's circuits and return everything it holds on the ledger."""
        self._uninstall(session.circuits)
        for key in session.debits:
            self.ledger.release_session(key, session.id)

    def _paths_string(self, circuits: list[Circuit]) -> str:
        return "|".join("-".join(str(n) for n in c.nodes) for c in circuits)

    def _record(self, op: str, session_id: str, outcome: str, path: str = "") -> None:
        self.log.append(ControlEvent(self.clock, op, session_id, outcome, path))

    def setup(self, request: SessionRequest, name: str | None = None) -> Session:
        """Admit and install a session atomically; raises Infeasible."""
        validate_pattern(self.topology, request.pattern)
        session_id = name if name is not None else f"s{self._session_counter}"
        self._session_counter += 1
        if session_id in self.sessions and self.sessions[session_id].state == "active":
            raise ValueError(f"session {session_id!r} already active")
        try:
            paths, tree, debits = self._plan_paths(request)
            circuits = self._install(session_id, paths, tree)
        except Infeasible as exc:
            self._record("setup", session_id, f"infeasible({exc.cause})")
            raise
        for key, rate in debits.items():
            self.ledger.debit(key, session_id, rate)
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
        self._record("teardown", session.id, "released")

    def reroute_on_failure(self, failed: LinkKey | PhysLink) -> dict[str, str]:
        """Recompute every active session crossing the failed link.

        Sessions with a redundant path get fresh circuits; the rest are
        reported as victims and their resources released. Sessions off
        the failed link keep their entries untouched.
        """
        if isinstance(failed, PhysLink):
            key = failed.key
        else:
            key = (failed[0], failed[1]) if failed[0] < failed[1] else (failed[1], failed[0])
        self.failed_links.add(key)
        outcomes: dict[str, str] = {}
        for session_id, session in list(self.sessions.items()):
            if session.state != "active" or not session.uses_link(key):
                continue
            self._release(session)
            try:
                paths, tree, debits = self._plan_paths(session.request)
                session.circuits = self._install(session_id, paths, tree)
            except Infeasible as exc:
                session.state = "torn_down"
                session.circuits = []
                session.debits = {}
                outcomes[session_id] = "victim"
                self._record("reroute", session_id, f"victim({exc.cause})")
                continue
            for k, rate in debits.items():
                self.ledger.debit(k, session_id, rate)
            session.debits = debits
            outcomes[session_id] = "rerouted"
            self._record("reroute", session_id, "rerouted", self._paths_string(session.circuits))
        return outcomes

    def migrate(self, session: Session, new_pattern: LogicalPattern) -> Session:
        """Move a session to a new pattern, make-before-break.

        New paths are computed with the session's own reservations
        discounted, installed alongside the old entries, and only then
        is the old footprint removed, so the ledger never transiently
        overdraws. On Infeasible the session is untouched.
        """
        if session.state != "active":
            raise ValueError("cannot migrate a torn-down session")
        if new_pattern.granularity != session.request.pattern.granularity:
            raise ValueError("migration must preserve granularity")
        validate_pattern(self.topology, new_pattern)
        new_request = replace(session.request, pattern=new_pattern)
        old_holds = self.ledger.holds(session.id)
        try:
            paths, tree, new_debits = self._plan_paths(new_request, extra_credit=old_holds)
            if new_pattern == session.request.pattern and [c.nodes for c in session.circuits] == paths:
                self._record("migrate", session.id, "noop", self._paths_string(session.circuits))
                return session
            # Make: install the new circuits, then charge only the extra demand.
            new_circuits = self._install(session.id, paths, tree)
        except Infeasible as exc:
            self._record("migrate", session.id, f"infeasible({exc.cause})")
            raise
        for key, rate in new_debits.items():
            extra = rate - old_holds.get(key, 0.0)
            if extra > 0:
                self.ledger.debit(key, session.id, extra)
        old_circuits = session.circuits
        # Break: remove the old footprint, return what is no longer held.
        self._uninstall(old_circuits)
        for key, old_rate in old_holds.items():
            keep = new_debits.get(key, 0.0)
            if old_rate > keep:
                self.ledger.credit(key, session.id, old_rate - keep)
        session.request = new_request
        session.circuits = new_circuits
        session.debits = new_debits
        self._record("migrate", session.id, "migrated", self._paths_string(new_circuits))
        return session

    def write_log_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "op", "session_id", "outcome", "path"])
            for event in self.log:
                writer.writerow(
                    [repr(event.time), event.op, event.session_id, event.outcome, event.path]
                )
