"""Deterministic discrete-event simulation of the packet-switched data plane.

Per-circuit regulators buffer the payload bit stream of a traffic trace
and frame it into labeled packets (full frames immediately, remainders
on a holding-time timeout). Switches receive store-and-forward, spend a
header-processing delay, re-label per their forwarding table, and queue
packets per latency class on the output port, where a FIFO, strict
priority, or weighted-round-robin scheduler drains them. All randomness
lives in the traffic traces; given the same world and horizon the run is
reproducible event for event, with ties broken by insertion order.

Packets carry their header fields as plain ints: a hop relabels by
assignment and a replica is a slot copy, and no `FhHeader` is built
inside the event loop (only the regulator builds one per emitted frame).
Labels are range-checked when forwarding entries and circuit feeds are
created, so none can go out of range in flight. Labels are scoped per
(node, input port), so a host binds delivered packets to circuits per
arrival port: `World.egress` is keyed by (node, in_port, label). All
per-port and per-packet run state lives in objects made by `run`, so a
world can be rerun and gives the same result.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum

from .packet import MAX_LABEL, MAX_LATENCY_CLASS, SEQ_MODULUS, FhHeader, FhPacket
from .topology import NodeId, PhysicalTopology

N_CLASSES = 16
EPS_BITS = 1e-6  # float dust below this is not a payload bit


@dataclass(frozen=True)
class RegulatorPolicy:
    max_frame_bytes: int = 1000
    frame_timeout: float = 1e-3  # s

    def __post_init__(self) -> None:
        if not 1 <= self.max_frame_bytes <= 0xFFFF:
            raise ValueError("max_frame_bytes must be in 1..65535")
        if self.frame_timeout <= 0:
            raise ValueError("frame_timeout must be > 0")


class Scheduler(Enum):
    FIFO = "fifo"
    STRICT_PRIORITY = "strict_priority"
    WRR = "wrr"


@dataclass(frozen=True)
class SwitchConfig:
    scheduler: Scheduler = Scheduler.STRICT_PRIORITY
    wrr_weights: tuple[int, ...] = (1,) * N_CLASSES  # packets per visit, by class
    queue_bytes: int = 256 * 1024  # per class per output port
    input_buffer_bytes: int = 256 * 1024
    header_processing_delay: float = 0.0

    def __post_init__(self) -> None:
        if len(self.wrr_weights) != N_CLASSES or any(w < 1 for w in self.wrr_weights):
            raise ValueError("wrr_weights needs one weight >= 1 per latency class")
        if self.queue_bytes < 1 or self.input_buffer_bytes < 1:
            raise ValueError("buffer bounds must be >= 1 byte")
        if self.header_processing_delay < 0:
            raise ValueError("header_processing_delay must be >= 0")


class SwitchState:
    """Forwarding state of one switch: configuration plus label table.

    The table maps (input port, label) to one or more (output port,
    label) entries; more than one entry replicates the packet, which is
    how distribution trees branch. `install` rejects labels outside
    0..MAX_LABEL.
    """

    def __init__(self, config: SwitchConfig):
        self.config = config
        self.table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def install(self, in_port: int, label: int, outputs: tuple[tuple[int, int], ...]) -> None:
        if not 0 <= label <= MAX_LABEL:
            raise ValueError(f"label out of range: {label}")
        for _, out_label in outputs:
            if not 0 <= out_label <= MAX_LABEL:
                raise ValueError(f"label out of range: {out_label}")
        if (in_port, label) in self.table:
            raise ValueError(f"entry ({in_port}, {label}) already installed")
        self.table[(in_port, label)] = outputs

    def remove(self, in_port: int, label: int) -> None:
        del self.table[(in_port, label)]

    def lookup(self, in_port: int, label: int) -> tuple[tuple[int, int], ...] | None:
        return self.table.get((in_port, label))


@dataclass
class CircuitFeed:
    """Ingress of one virtual circuit: where packets enter and its traffic."""

    session_id: str
    circuit_id: int
    ingress_node: NodeId
    ingress_port: int
    label: int
    latency_class: int
    policy: RegulatorPolicy
    volumes: list[float]  # bits offered per subframe
    subframe_duration: float

    def __post_init__(self) -> None:
        if not 0 <= self.label <= MAX_LABEL:
            raise ValueError(f"label out of range: {self.label}")
        if not 0 <= self.latency_class <= MAX_LATENCY_CLASS:
            raise ValueError(f"latency_class out of range: {self.latency_class}")


@dataclass
class World:
    """Everything a run needs: wiring, switch state, circuits, egress map."""

    topology: PhysicalTopology
    switches: dict[NodeId, SwitchState]
    circuits: list[CircuitFeed]
    egress: dict[tuple[NodeId, int, int], tuple[str, int]]  # (node, in_port, label) -> session, circuit
    host_scheduler: Scheduler = Scheduler.STRICT_PRIORITY
    host_queue_bytes: int = 256 * 1024
    wrr_weights: tuple[int, ...] = (1,) * N_CLASSES


class Regulator:
    """Buffers offered bits and frames them into packets for one circuit."""

    def __init__(self, feed: CircuitFeed):
        self.feed = feed
        self.chunks: deque[list[float]] = deque()  # [arrival_time, bits]
        self.buffered_bits = 0.0
        self.peak_buffered_bits = 0.0
        self.padding_bits = 0.0
        self.seq = 0
        self.generation = 0  # invalidates superseded timeout events

    def deadline(self) -> float | None:
        if not self.chunks:
            return None
        return self.chunks[0][0] + self.feed.policy.frame_timeout

    def _emit(self, payload_bytes: int, consume_bits: float) -> FhPacket:
        created_at = self.chunks[0][0]
        need = consume_bits
        while need > EPS_BITS:
            head = self.chunks[0]
            take = min(head[1], need)
            head[1] -= take
            need -= take
            if head[1] <= EPS_BITS:
                self.chunks.popleft()
        self.buffered_bits -= consume_bits
        if self.buffered_bits <= EPS_BITS:
            self.buffered_bits = 0.0
            self.chunks.clear()
        header = FhHeader(
            label=self.feed.label,
            seq=self.seq,
            latency_class=self.feed.latency_class,
            payload_len=payload_bytes,
        )
        self.seq = (self.seq + 1) % SEQ_MODULUS
        return FhPacket(
            header=header,
            payload_bits=payload_bytes * 8,
            created_at=created_at,
            session_id=self.feed.session_id,
            circuit_id=self.feed.circuit_id,
        )

    def offer(self, now: float, bits: float) -> list[FhPacket]:
        """Accept a subframe's payload bits; emit any full frames at once."""
        if bits <= EPS_BITS:
            return []
        self.chunks.append([now, bits])
        self.buffered_bits += bits
        self.peak_buffered_bits = max(self.peak_buffered_bits, self.buffered_bits)
        frame_bits = self.feed.policy.max_frame_bytes * 8
        out = []
        while self.buffered_bits >= frame_bits:
            out.append(self._emit(self.feed.policy.max_frame_bytes, float(frame_bits)))
        return out

    def flush(self) -> list[FhPacket]:
        """Timeout: emit the whole remainder, rounded up to whole bytes."""
        if self.buffered_bits <= EPS_BITS:
            return []
        payload_bytes = math.ceil(self.buffered_bits / 8 - EPS_BITS)
        self.padding_bits += payload_bytes * 8 - self.buffered_bits
        return [self._emit(payload_bytes, self.buffered_bits)]


class _Port:
    """One end of a link, within one run.

    As an output it holds the per-class queues and drives the link;
    as an input it holds the arrival-side state of this port: input
    buffer occupancy, and the routes (switch) or egress bindings (host)
    resolved so far, cached per label.
    """

    __slots__ = (
        "node",
        "port_no",
        "peer",
        "capacity",
        "propagation",
        "queues",
        "class_bytes",
        "total_bytes",
        "queue_bound",
        "scheduler",
        "weights",
        "busy",
        "arrival_counter",
        "wrr_class",
        "wrr_credit",
        "busy_time",
        "bytes_carried",
        "peak_queue_bytes",
        "switch",
        "input_bound",
        "proc_delay",
        "occupancy",
        "routes",
        "egress",
    )

    def __init__(self, node, port_no, link, scheduler, weights, queue_bound):
        self.node = node
        self.port_no = port_no
        self.peer: _Port | None = None  # the port a transmission lands on
        self.capacity = link.capacity
        self.propagation = link.propagation_delay
        self.queues: list[deque] = [deque() for _ in range(N_CLASSES)]
        self.class_bytes = [0] * N_CLASSES
        self.total_bytes = 0
        self.queue_bound = queue_bound
        self.scheduler = scheduler
        self.weights = weights
        self.busy = False
        self.arrival_counter = 0
        self.wrr_class = 0
        self.wrr_credit = weights[0]
        self.busy_time = 0.0
        self.bytes_carried = 0
        self.peak_queue_bytes = 0
        self.switch: SwitchState | None = None
        self.input_bound = 0
        self.proc_delay = 0.0
        self.occupancy = 0  # bytes in this input buffer
        self.routes: dict[int, tuple[tuple[_Port, int], ...] | None] = {}
        self.egress: dict[int, list | None] = {}

    def pick(self) -> FhPacket:
        if self.scheduler is Scheduler.STRICT_PRIORITY:
            for q in self.queues:
                if q:
                    return q.popleft()[1]
        elif self.scheduler is Scheduler.FIFO:
            best_cls = -1
            best_tag = None
            for cls in range(N_CLASSES):
                q = self.queues[cls]
                if q and (best_tag is None or q[0][0] < best_tag):
                    best_tag = q[0][0]
                    best_cls = cls
            return self.queues[best_cls].popleft()[1]
        else:  # weighted round robin, packet-counted
            while True:
                q = self.queues[self.wrr_class]
                if q and self.wrr_credit > 0:
                    self.wrr_credit -= 1
                    return q.popleft()[1]
                self.wrr_class = (self.wrr_class + 1) % N_CLASSES
                self.wrr_credit = self.weights[self.wrr_class]
        raise RuntimeError("pick() called with all queues empty")


def _wire_ports(world: World) -> dict[tuple[NodeId, int], _Port]:
    """Fresh run state for both ends of every link, peers linked."""
    ports: dict[tuple[NodeId, int], _Port] = {}
    for link in world.topology.links:
        ends = []
        for node, port_no in ((link.node_a, link.port_a), (link.node_b, link.port_b)):
            switch = world.switches.get(node)
            if switch is not None:
                cfg = switch.config
                port = _Port(node, port_no, link, cfg.scheduler, cfg.wrr_weights, cfg.queue_bytes)
                port.switch = switch
                port.input_bound = cfg.input_buffer_bytes
                port.proc_delay = cfg.header_processing_delay
            else:
                port = _Port(
                    node, port_no, link, world.host_scheduler, world.wrr_weights, world.host_queue_bytes
                )
            ports[(node, port_no)] = port
            ends.append(port)
        ends[0].peer, ends[1].peer = ends[1], ends[0]
    return ports


@dataclass
class CircuitStats:
    injected: int = 0
    replicated: int = 0
    delivered: int = 0
    dropped_unroutable: int = 0
    dropped_overflow: int = 0
    out_of_order: int = 0

    def __add__(self, other: CircuitStats) -> CircuitStats:
        return CircuitStats(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))

    @property
    def in_flight(self) -> int:
        return (
            self.injected
            + self.replicated
            - self.delivered
            - self.dropped_unroutable
            - self.dropped_overflow
        )


@dataclass
class SessionRunStats:
    latencies: list[float] = field(default_factory=list)
    circuits: dict[int, CircuitStats] = field(default_factory=dict)
    delivered_paths: set[tuple[NodeId, ...]] = field(default_factory=set)
    payload_bits_delivered: int = 0
    wire_bits_injected: int = 0

    def circuit(self, cid: int) -> CircuitStats:
        stats = self.circuits.get(cid)
        if stats is None:
            stats = CircuitStats()
            self.circuits[cid] = stats
        return stats

    def totals(self) -> CircuitStats:
        return sum(self.circuits.values(), CircuitStats())


@dataclass
class PortStats:
    src: NodeId
    dst: NodeId
    utilization: float
    peak_queue_bytes: int
    bytes_carried: int


@dataclass
class RunResult:
    horizon: float
    sessions: dict[str, SessionRunStats]
    ports: list[PortStats]
    residual_packets: int  # packets found in queues / in transit at the horizon
    regulator_backlog_bits: dict[str, float]  # left unframed at the horizon
    regulator_peak_bits: dict[str, float]  # deepest shaping buffer per circuit

    def total(self) -> CircuitStats:
        return sum((s.totals() for s in self.sessions.values()), CircuitStats())


# Event codes; ties at equal time resolve by scheduling order.
_OFFER, _REG_TIMEOUT, _ARRIVAL, _PROC_DONE, _TX_DONE = range(5)


def run(world: World, horizon: float, seed: int = 0) -> RunResult:
    """Run the world to the horizon and return per-session statistics.

    `seed` is part of the reproducibility contract (identical world,
    horizon, and seed give a byte-identical report); the data plane
    itself introduces no randomness beyond the traces already in the
    world.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    del seed  # reproducibility handle; the event loop is fully deterministic

    ports = _wire_ports(world)
    regulators = [Regulator(feed) for feed in world.circuits]
    sessions: dict[str, SessionRunStats] = {}
    ingress = []  # per circuit: (ingress port, circuit stats, session stats)
    for feed in world.circuits:
        stats = sessions.setdefault(feed.session_id, SessionRunStats())
        ingress.append(
            (ports.get((feed.ingress_node, feed.ingress_port)), stats.circuit(feed.circuit_id), stats)
        )

    # Events are (time, tie, code, a, b); ties at equal time resolve by
    # the order they were pushed in.
    heap: list[tuple] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    tie = itertools.count().__next__

    for idx, feed in enumerate(world.circuits):
        for sf, bits in enumerate(feed.volumes):
            t = sf * feed.subframe_duration
            if t > horizon:
                break
            if bits > EPS_BITS:
                heappush(heap, (t, tie(), _OFFER, idx, sf))

    def start_tx(port: _Port, now: float) -> None:
        pkt = port.pick()
        wire_bytes = pkt.wire_bytes
        port.class_bytes[pkt.latency_class] -= wire_bytes
        port.total_bytes -= wire_bytes
        port.busy = True
        tx = wire_bytes * 8 / port.capacity
        port.busy_time += min(tx, horizon - now)
        port.bytes_carried += wire_bytes
        pkt.path += (port.node,)
        heappush(heap, (now + tx, tie(), _TX_DONE, port, None))
        heappush(heap, (now + tx + port.propagation, tie(), _ARRIVAL, port.peer, pkt))

    def enqueue(port: _Port, pkt: FhPacket, now: float) -> None:
        cls = pkt.latency_class
        wire_bytes = pkt.wire_bytes
        if port.class_bytes[cls] + wire_bytes > port.queue_bound:
            pkt.stats.dropped_overflow += 1
            return
        port.queues[cls].append((port.arrival_counter, pkt))
        port.arrival_counter += 1
        port.class_bytes[cls] += wire_bytes
        port.total_bytes += wire_bytes
        if port.total_bytes > port.peak_queue_bytes:
            port.peak_queue_bytes = port.total_bytes
        if not port.busy:
            start_tx(port, now)

    def inject(idx: int, emitted: list[FhPacket], now: float) -> None:
        port, cstats, stats = ingress[idx]
        for pkt in emitted:
            pkt.stats = cstats
            cstats.injected += 1
            stats.wire_bits_injected += pkt.wire_bytes * 8
            enqueue(port, pkt, now)

    def reschedule_timeout(idx: int) -> None:
        reg = regulators[idx]
        reg.generation += 1
        deadline = reg.deadline()
        if deadline is not None:
            heappush(heap, (deadline, tie(), _REG_TIMEOUT, idx, reg.generation))

    def route(port: _Port, label: int) -> tuple[tuple[_Port, int], ...] | None:
        outputs = port.switch.lookup(port.port_no, label)
        if outputs is not None:
            outputs = tuple((ports[(port.node, out)], out_label) for out, out_label in outputs)
        port.routes[label] = outputs
        return outputs

    def bind(port: _Port, label: int) -> list | None:
        """[session stats, circuit stats, last seq] of the circuit ending here."""
        binding = world.egress.get((port.node, port.port_no, label))
        if binding is not None:
            sid, cid = binding
            stats = sessions[sid]
            binding = [stats, stats.circuit(cid), None]
        port.egress[label] = binding
        return binding

    def deliver(port: _Port, pkt: FhPacket, now: float) -> None:
        label = pkt.label
        binding = port.egress[label] if label in port.egress else bind(port, label)
        if binding is None:
            pkt.stats.dropped_unroutable += 1
            return
        stats, cstats, last = binding
        cstats.delivered += 1
        if last is not None:
            # strictly increasing mod wrap: drops leave forward gaps, only
            # duplicates and backward steps count as disorder
            distance = (pkt.seq - last) % SEQ_MODULUS
            if distance == 0 or distance >= SEQ_MODULUS // 2:
                cstats.out_of_order += 1
        binding[2] = pkt.seq
        stats.latencies.append(now - pkt.created_at)
        stats.payload_bits_delivered += pkt.payload_bits
        stats.delivered_paths.add(pkt.path + (port.node,))

    while heap and heap[0][0] <= horizon:
        now, _, code, a, b = heappop(heap)
        if code == _ARRIVAL:
            port, pkt = a, b
            if port.switch is None:
                deliver(port, pkt, now)
                continue
            occupied = port.occupancy + pkt.wire_bytes
            if occupied > port.input_bound:
                pkt.stats.dropped_overflow += 1
                continue
            port.occupancy = occupied
            heappush(heap, (now + port.proc_delay, tie(), _PROC_DONE, port, pkt))
        elif code == _PROC_DONE:
            port, pkt = a, b
            port.occupancy -= pkt.wire_bytes
            label = pkt.label
            outputs = port.routes[label] if label in port.routes else route(port, label)
            if outputs is None:
                pkt.stats.dropped_unroutable += 1
                continue
            if len(outputs) == 1:
                out, pkt.label = outputs[0]
                enqueue(out, pkt, now)
                continue
            pkt.stats.replicated += len(outputs) - 1
            # clone every extra branch before any enqueue can start a
            # transmission and extend the original's path trace
            branches = [pkt] + [pkt.copy() for _ in outputs[1:]]
            for branch, (out, out_label) in zip(branches, outputs):
                branch.label = out_label
                enqueue(out, branch, now)
        elif code == _TX_DONE:
            port = a
            port.busy = False
            if port.total_bytes > 0:
                start_tx(port, now)
        elif code == _OFFER:
            emitted = regulators[a].offer(now, world.circuits[a].volumes[b])
            inject(a, emitted, now)
            reschedule_timeout(a)
        else:  # _REG_TIMEOUT
            reg = regulators[a]
            if b != reg.generation:
                continue
            inject(a, reg.flush(), now)
            reschedule_timeout(a)

    residual = sum(len(q) for port in ports.values() for q in port.queues)
    for event in heap:
        if event[2] in (_ARRIVAL, _PROC_DONE):
            residual += 1

    port_stats = [
        PortStats(
            src=node,
            dst=port.peer.node,
            utilization=(port.busy_time / horizon) if horizon > 0 else 0.0,
            peak_queue_bytes=port.peak_queue_bytes,
            bytes_carried=port.bytes_carried,
        )
        for (node, _), port in sorted(ports.items())
    ]
    backlog = {}
    peaks = {}
    for reg in regulators:
        key = f"{reg.feed.session_id}/{reg.feed.circuit_id}"
        backlog[key] = reg.buffered_bits
        peaks[key] = reg.peak_buffered_bits
    return RunResult(
        horizon=horizon,
        sessions=sessions,
        ports=port_stats,
        residual_packets=residual,
        regulator_backlog_bits=backlog,
        regulator_peak_bits=peaks,
    )


def regulate(
    volumes: list[float],
    subframe_duration: float,
    policy: RegulatorPolicy,
    label: int,
    latency_class: int,
) -> list[tuple[float, FhPacket]]:
    """Stand-alone regulator pass over a volume sequence.

    Returns (emission time, packet) pairs: full frames the moment the
    buffer reaches max_frame_bytes, remainders when the oldest buffered
    bit has waited frame_timeout. The tail is flushed at its natural
    timeout after the last subframe.
    """
    feed = CircuitFeed(
        session_id="",
        circuit_id=0,
        ingress_node=0,
        ingress_port=0,
        label=label,
        latency_class=latency_class,
        policy=policy,
        volumes=volumes,
        subframe_duration=subframe_duration,
    )
    reg = Regulator(feed)
    emissions: list[tuple[float, FhPacket]] = []
    for sf, bits in enumerate(volumes):
        now = sf * subframe_duration
        deadline = reg.deadline()
        while deadline is not None and deadline <= now:
            emissions.extend((deadline, p) for p in reg.flush())
            deadline = reg.deadline()
        emissions.extend((now, p) for p in reg.offer(now, bits))
    deadline = reg.deadline()
    if deadline is not None:
        emissions.extend((deadline, p) for p in reg.flush())
    return emissions
