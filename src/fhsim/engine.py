"""Deterministic discrete-event simulation of the packet-switched data plane.

Per-circuit regulators buffer the payload bit stream of a traffic trace
and frame it into labeled packets (full frames immediately, remainders
on a holding-time timeout). Switches receive store-and-forward, spend a
header-processing delay, re-label per their forwarding table, and queue
packets per latency class on the output port, where a strict priority
or weighted-round-robin scheduler drains them. One `SwitchConfig`, the
world's, configures every port of a run: the same queue bound and
scheduler at switches and hosts, and the same input buffer and delay at
every switch, so a `SwitchState` holds only a label table and a port
only its run state. A FIFO port is strict priority over a single lane:
it queues every class in lane 0, so it serves in arrival order. Each
output port keeps a bitmask of its non-empty lanes, so strict priority
and WRR reach the next lane to serve without a step per empty one.
All randomness lives in the traffic
traces; given the same world and horizon the run is reproducible event
for event, with ties at equal time broken by scheduling order. The heap
holds only what can be due next: one event per circuit, its regulator's
timeout if that falls strictly before the circuit's next offer and else
that offer, with a tie fixed by the feed lengths alone, so no event goes
stale; the end of a transmission only once a packet waits behind it;
and no arrival at end equipment, which takes delivery at transmit start,
within the transmit step itself. Offers are made one at a time per
circuit, and a feed's volumes are read only as the run reaches them, so
a run's memory does not grow with its length and a feed may be a lazy
sequence that is still being produced while the run goes on. The handled
event stays at the heap root until the first event it schedules replaces
it; keys are unique, so the pop order is unchanged. The transmit step and
single-output enqueue are inline, and `_Port.pick` is the one scheduler.

Packets carry their header fields as plain ints: the regulator builds
each from ints it keeps in range, a hop relabels by assignment and a
replica is a slot copy, and a validated `FhHeader` is built only at
serialization, never in a run. Labels are range-checked when forwarding
entries and circuit feeds are created, so none can go out of range in
flight, and a feed's volumes must be finite, so no offer can frame
forever. Labels are scoped per (node, input port), so a host binds
delivered packets to circuits per arrival port: `World.egress` is keyed
by (node, in_port, label). `run` resolves every label before the first
event, into a route per label on each switch input port and a delivery
record per label on each host port, so a hop or a delivery is one
lookup. All per-port and per-packet run state lives in objects made by
`run`, so a world can be rerun and gives the same result.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum

from .packet import MAX_LABEL, MAX_LATENCY_CLASS, SEQ_MODULUS, FhPacket
from .topology import NodeId, PhysicalTopology, PhysLink

N_CLASSES = MAX_LATENCY_CLASS + 1
EPS_BITS = 1e-6  # float dust below this is not a payload bit


@dataclass(frozen=True)
class RegulatorPolicy:
    max_frame_bytes: int = 1000
    frame_timeout: float = 1e-3  # s

    def __post_init__(self) -> None:
        if not 1 <= self.max_frame_bytes <= 0xFFFF:
            raise ValueError(f"max_frame_bytes must be in 1..65535, got {self.max_frame_bytes}")
        if not 0 < self.frame_timeout:  # NaN fails too
            raise ValueError("frame_timeout must be > 0")


class Scheduler(Enum):
    FIFO = "fifo"
    STRICT_PRIORITY = "strict_priority"
    WRR = "wrr"


@dataclass(frozen=True)
class SwitchConfig:
    """How every port of a network queues, schedules and processes packets.

    One value configures a run: the output queues and scheduler of every
    port, switch and host alike, and the input buffer and header
    processing of every switch port. The path planner adds the same
    header-processing delay at every transit switch.
    """

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
        if not 0 <= self.header_processing_delay < math.inf:  # NaN fails too
            raise ValueError("header_processing_delay must be finite and >= 0")

    @property
    def lane_mask(self) -> int:
        """Class c queues in lane c & lane_mask: a lane per class, but one lane under FIFO."""
        return 0 if self.scheduler is Scheduler.FIFO else N_CLASSES - 1

    @property
    def wrr_credits(self) -> tuple[int, ...] | None:
        """The weights `_Port.pick` serves by: `wrr_weights` under WRR, else None."""
        return self.wrr_weights if self.scheduler is Scheduler.WRR else None


class SwitchState:
    """Forwarding state of one switch: its label table.

    The table maps (input port, label) to one or more (output port,
    label) entries; more than one entry replicates the packet, which is
    how distribution trees branch. `install` rejects labels outside
    0..MAX_LABEL and an entry with no output.
    """

    def __init__(self) -> None:
        self.table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def install(self, in_port: int, label: int, outputs: tuple[tuple[int, int], ...]) -> None:
        if not outputs:
            raise ValueError(f"entry ({in_port}, {label}) has no output")
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
    # bits offered per subframe: a list is checked here; any other sequence
    # is read only as the run reaches it and must itself hold finite values
    volumes: Sequence[float]
    subframe_duration: float

    def __post_init__(self) -> None:
        if not 0 <= self.label <= MAX_LABEL:
            raise ValueError(f"label out of range: {self.label}")
        if not 0 <= self.latency_class <= MAX_LATENCY_CLASS:
            raise ValueError(f"latency_class out of range: {self.latency_class}")
        if isinstance(self.volumes, list) and not all(map(math.isfinite, self.volumes)):
            raise ValueError("volumes must be finite")
        if not 0 <= self.subframe_duration < math.inf:  # offers come in time order
            raise ValueError("subframe_duration must be finite and >= 0")


@dataclass
class World:
    """Everything a run needs: wiring, switch state, circuits, egress map, port config; `run` checks it."""

    topology: PhysicalTopology
    switches: dict[NodeId, SwitchState]
    circuits: list[CircuitFeed]
    egress: dict[tuple[NodeId, int, int], tuple[str, int]]  # (node, in_port, label) -> session, circuit
    config: SwitchConfig = SwitchConfig()  # every port of the run


class Regulator:
    """Buffers offered bits and frames them into packets for one circuit."""

    def __init__(self, feed: CircuitFeed):
        self.feed = feed
        self.chunks: deque[list[float]] = deque()  # [arrival_time, bits]
        self.buffered_bits = 0.0
        self.peak_buffered_bits = 0.0
        self.seq = 0

    def deadline(self) -> float | None:
        if not self.chunks:
            return None
        return self.chunks[0][0] + self.feed.policy.frame_timeout

    def _frames(self, payload_bytes: int, frame_bits: float) -> list[FhPacket]:
        """Frame packets of frame_bits, oldest chunks first, while a whole one is buffered."""
        chunks, buffered, seq = self.chunks, self.buffered_bits, self.seq
        label, latency_class = self.feed.label, self.feed.latency_class
        out = []
        while buffered >= frame_bits:
            created_at = chunks[0][0]
            need = frame_bits
            # dust popped with a chunk stays in `buffered`, so chunks can run out first
            while need > EPS_BITS and chunks:
                head = chunks[0]
                bits = head[1]
                take = bits if bits < need else need
                head[1] = bits = bits - take
                need -= take
                if bits <= EPS_BITS:
                    chunks.popleft()
            buffered -= frame_bits
            if buffered <= EPS_BITS:
                buffered = 0.0
                chunks.clear()
            out.append(FhPacket(label, seq, latency_class, payload_bytes, created_at))
            seq = (seq + 1) % SEQ_MODULUS
        self.buffered_bits, self.seq = buffered, seq
        return out

    def offer(self, now: float, bits: float) -> list[FhPacket]:
        """Accept a subframe's payload bits; emit any full frames at once."""
        if bits <= EPS_BITS:
            return []
        self.chunks.append([now, bits])
        self.buffered_bits += bits
        if self.buffered_bits > self.peak_buffered_bits:
            self.peak_buffered_bits = self.buffered_bits
        frame_bytes = self.feed.policy.max_frame_bytes
        return self._frames(frame_bytes, float(frame_bytes * 8))

    def flush(self) -> list[FhPacket]:
        """Timeout: emit the whole remainder, rounded up to whole bytes.

        A remainder that rounds to no byte is float dust: it is dropped
        with its chunks, and no frame is emitted.
        """
        payload_bytes = math.ceil(self.buffered_bits / 8 - EPS_BITS)
        if payload_bytes < 1:
            self.buffered_bits = 0.0
            self.chunks.clear()
            return []
        return self._frames(payload_bytes, self.buffered_bits)


class _Port:
    """One end of a link, within one run.

    As an output it holds the queues and drives the link: class c
    queues in lane c & `SwitchConfig.lane_mask`, and `pick` serves the
    lanes. As an input it holds the arrival-side state of this port:
    input buffer occupancy, and the label maps `run` fills before the
    first event: `routes` at a switch, to (output port, out label)
    pairs, and `egress` at end equipment, where `routes` is None.
    """

    __slots__ = (
        "node",
        "port_no",
        "peer",
        "capacity",
        "propagation",
        "queues",
        "nonempty",
        "class_bytes",
        "total_bytes",
        "done",
        "wrr_class",
        "wrr_credit",
        "busy_time",
        "peak_queue_bytes",
        "occupancy",
        "routes",
        "egress",
    )

    def __init__(self, node: NodeId, port_no: int, link: PhysLink, relays: bool):
        self.node = node
        self.port_no = port_no
        self.peer: _Port | None = None  # the port a transmission lands on
        self.capacity = link.capacity
        self.propagation = link.propagation_delay
        self.queues: list[deque[FhPacket]] = [deque() for _ in range(N_CLASSES)]
        self.nonempty = 0  # bit c set while lane c holds a packet
        self.class_bytes = [0] * N_CLASSES
        self.total_bytes = 0
        # the end of the current transmission while it is not in the heap,
        # None while it is; a key already past means the port is idle
        self.done: tuple | None = _IDLE
        # as if the last class had just spent its credit: round robin starts at class 0
        self.wrr_class = N_CLASSES - 1
        self.wrr_credit = 0
        self.busy_time = 0.0
        self.peak_queue_bytes = 0
        self.occupancy = 0  # bytes in this input buffer
        self.routes: dict[int, tuple[tuple[_Port, int], ...]] | None = {} if relays else None
        self.egress: dict[int, list] = {}

    def pick(self, weights: tuple[int, ...] | None) -> FhPacket:
        """Dequeue the next packet to send; at least one lane holds one.

        `weights` are `SwitchConfig.wrr_credits`: packets per visit by
        class under weighted round robin, or None for strict priority.
        """
        mask = self.nonempty
        if weights is None:
            # strict priority, and FIFO over its one lane: the lowest non-empty lane
            cls = (mask & -mask).bit_length() - 1
        else:  # weighted round robin, packet-counted
            cls = self.wrr_class
            if not (mask >> cls & 1 and self.wrr_credit > 0):
                # Move on to the next non-empty class, cyclically, back to
                # this one if no other has packets, with a fresh credit:
                # what stepping through the empty classes would come to.
                later = mask >> (cls + 1)
                cls = cls + (later & -later).bit_length() if later else (mask & -mask).bit_length() - 1
                self.wrr_class = cls
                self.wrr_credit = weights[cls]
            self.wrr_credit -= 1
        q = self.queues[cls]
        pkt = q.popleft()
        if not q:
            self.nonempty = mask ^ (1 << cls)
        return pkt


def _wire_ports(world: World) -> dict[tuple[NodeId, int], _Port]:
    """Fresh run state for both ends of every link, peers linked."""
    ports: dict[tuple[NodeId, int], _Port] = {}
    for link in world.topology.links:
        a = _Port(link.node_a, link.port_a, link, link.node_a in world.switches)
        b = _Port(link.node_b, link.port_b, link, link.node_b in world.switches)
        a.peer, b.peer = b, a
        ports[(link.node_a, link.port_a)], ports[(link.node_b, link.port_b)] = a, b
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


class Latencies:
    """Delivered latencies as an exact value -> packet count map.

    Memory grows with the distinct latencies, not the packets. `len` is
    the number of samples, and iterating yields every sample in
    ascending order, so `sorted`, `min` and `max` read it as the list
    of latencies it stands for.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: dict[float, int] | None = None):
        self.counts: dict[float, int] = {} if counts is None else counts

    def __len__(self) -> int:
        return sum(self.counts.values())

    def __iter__(self) -> Iterator[float]:
        ordered = sorted(self.counts.items())
        return itertools.chain.from_iterable(itertools.repeat(v, c) for v, c in ordered)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Latencies) and self.counts == other.counts

    def __repr__(self) -> str:
        return f"Latencies({self.counts!r})"


@dataclass
class SessionRunStats:
    # end-to-end latency of each delivered packet, counted per exact value
    latencies: Latencies = field(default_factory=Latencies)
    circuits: dict[int, CircuitStats] = field(default_factory=dict)
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
    """One output port's figures for a run: a row of links.csv, as `src->dst` then the rest."""

    src: NodeId
    dst: NodeId
    utilization: float
    peak_queue_bytes: int


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
_IDLE = (-math.inf,)  # a transmit-done key before every event: the port is idle


def run(world: World, horizon: float) -> RunResult:
    """Run the world to the horizon and return per-session statistics.

    The data plane introduces no randomness beyond the traces already
    in the world, so an identical world and horizon give an identical
    result. Labels are resolved, and every circuit the world names has
    its `CircuitStats`, before the first event; a feed, a forwarding
    entry or an egress binding at a port with no link, two feeds that
    inject one label at one (node, port), an entry that forwards to a
    port with no link, an egress binding at a switch (which relays every
    arrival, so never delivers) and one that names a session with no
    feed are refused then with a `ValueError` naming them.

    Events pop in (time, tie) order, and the heap holds only what can
    be due next. Offer ties come from the feed lengths: circuit c's
    offer at subframe sf takes tie L_c + sf, where L_c is the summed
    lengths of the earlier feeds, and every other event draws the next
    tie from the total length up, when it is scheduled. That is the
    order of pushing every offer up front in (circuit, subframe) order,
    found without reading a volume. Offers are made one at a time per
    circuit, as the run reaches them: a volume is read when the offer
    before it is handled (the first one before the first event), and
    waits aside while a timeout that falls before it is in the heap.
    So `feed.volumes` is read in order, by index and `len` only, and
    never past what the horizon needs. Each circuit has one
    event in the heap: its regulator's timeout if that falls strictly
    before the circuit's next offer, else that offer. An offer at the
    deadline pops first, having the lower tie, and schedules again; a
    timeout flushes the regulator empty and pushes the next offer. So no
    timeout is ever superseded, and only a pushed timeout draws a tie,
    which keeps the order of all the others. A transmission reserves its
    end's key when it starts, and that end is pushed only when a packet
    waits behind it: a port whose reserved key is already past is idle.
    End equipment takes delivery at transmit start, stamped with the
    arrival time, when that time is within the horizon; later arrivals
    stay in the heap and count as residual. So every figure is what
    pushing every event would give.

    The handled event stays at the root until the first event it
    schedules replaces it (`heapq.heapreplace`), or is popped if there
    is none; keys are unique, so the pop order is that of pop-then-push.
    The transmit step and the single-output enqueue run inline, with
    `_Port.pick` the one scheduler; bursts and replicas use `enqueue`.
    """
    if not 0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and >= 0")

    config = world.config
    queue_bound, lane_mask, weights = config.queue_bytes, config.lane_mask, config.wrr_credits
    input_bound, proc_delay = config.input_buffer_bytes, config.header_processing_delay
    ports = _wire_ports(world)
    for node, switch in world.switches.items():
        for entry, outputs in switch.table.items():
            in_port, label = entry
            port = ports.get((node, in_port))
            if port is None:
                raise ValueError(f"node {node}'s entry {entry} is at port {in_port}, which has no link")
            for out, _ in outputs:
                if (node, out) not in ports:
                    raise ValueError(f"node {node}'s entry {entry} forwards to port {out}, which has no link")
            port.routes[label] = tuple((ports[(node, out)], out_label) for out, out_label in outputs)

    def offers(idx: int, feed: CircuitFeed, first_tie: int) -> Iterator[tuple]:
        """Circuit idx's offer events within the horizon, in time order; subframe sf's takes tie first_tie + sf."""
        volumes, step = feed.volumes, feed.subframe_duration
        for sf in range(len(volumes)):
            t = sf * step
            if t > horizon:
                return
            bits = volumes[sf]
            if bits > EPS_BITS:
                yield (t, first_tie + sf, _OFFER, idx, bits)

    regulators = [Regulator(feed) for feed in world.circuits]
    sessions: dict[str, SessionRunStats] = {}
    ingress = []  # per circuit: (ingress port, circuit stats, session stats, its offers to come)
    injecting: dict[tuple[NodeId, int, int], CircuitFeed] = {}  # (node, port, label) -> its feed
    n_subframes = 0  # lengths of the feeds so far: the tie of the next feed's subframe 0
    for idx, feed in enumerate(world.circuits):
        name = f"{feed.session_id}/{feed.circuit_id}"
        port = ports.get(where := (feed.ingress_node, feed.ingress_port))
        if port is None:
            raise ValueError(f"feed {name}: ingress (node, port) {where} has no link")
        first = injecting.setdefault((*where, feed.label), feed)
        if first is not feed:
            # both streams would reach one egress binding and read as one circuit
            raise ValueError(
                f"feeds {first.session_id}/{first.circuit_id} and {name} both inject label {feed.label}"
                f" at (node, port) {where}"
            )
        stats = sessions.setdefault(feed.session_id, SessionRunStats())
        ingress.append((port, stats.circuit(feed.circuit_id), stats, offers(idx, feed, n_subframes)))
        n_subframes += len(feed.volumes)
    unfed = {sid for sid, _ in world.egress.values()} - sessions.keys()
    if unfed:
        raise ValueError(f"egress binds sessions with no circuit feed: {sorted(unfed)}")
    for binding, (sid, cid) in world.egress.items():
        node, in_port, label = binding
        if node in world.switches:
            raise ValueError(f"egress binding {binding} of {sid}/{cid}: node {node} is a switch, which never delivers")
        port = ports.get((node, in_port))
        if port is None:
            raise ValueError(f"egress binding {binding} of {sid}/{cid}: (node, port) {(node, in_port)} has no link")
        stats = sessions[sid]
        # [session stats, circuit stats, last seq, latency counts] of the circuit ending here
        port.egress[label] = [stats, stats.circuit(cid), None, stats.latencies.counts]

    # Events are (time, tie, code, a, b); offers take ties below
    # n_subframes and every other event draws the next tie when it is
    # scheduled.
    heap: list[tuple] = []
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    for *_, source in ingress:
        head = next(source, None)
        if head is not None:
            heappush(heap, head)
    upcoming: list[tuple | None] = [None] * len(ingress)  # per circuit: its next offer, behind its timeout
    tie = itertools.count(n_subframes).__next__

    def deliver(peer: _Port, pkt: FhPacket, at: float) -> None:
        """End equipment takes delivery at transmit start, stamped with the arrival time."""
        binding = peer.egress.get(pkt.label)
        if binding is None:
            pkt.stats.dropped_unroutable += 1
            return
        stats, cstats, last, counts = binding
        cstats.delivered += 1
        if last is not None:
            # strictly increasing mod wrap: drops leave forward gaps, only
            # duplicates and backward steps count as disorder
            distance = (pkt.seq - last) % SEQ_MODULUS
            if distance == 0 or distance >= SEQ_MODULUS // 2:
                cstats.out_of_order += 1
        binding[2] = pkt.seq
        latency = at - pkt.created_at
        counts[latency] = counts.get(latency, 0) + 1
        stats.payload_bits_delivered += pkt.payload_len * 8

    def enqueue(port: _Port, pkt: FhPacket, event: tuple) -> None:
        """The loop's enqueue and transmit steps for bursts and replicas; the caller frees the root."""
        cls = pkt.latency_class
        wire_bytes = pkt.wire_bytes
        if port.class_bytes[cls] + wire_bytes > queue_bound:
            pkt.stats.dropped_overflow += 1
            return
        lane = cls & lane_mask
        port.queues[lane].append(pkt)
        port.nonempty |= 1 << lane
        port.class_bytes[cls] += wire_bytes
        port.total_bytes += wire_bytes
        if port.total_bytes > port.peak_queue_bytes:
            port.peak_queue_bytes = port.total_bytes
        done = port.done
        if done is not None and not done < event:  # busy: the packet waits behind the reserved end
            heappush(heap, done)
            port.done = None
        if port.done is None:  # its transmit-done is in the heap
            return
        # idle, so pkt is the one packet queued: send it, reserving the end
        port.pick(weights)
        port.class_bytes[cls] -= wire_bytes
        port.total_bytes -= wire_bytes
        tx = wire_bytes * 8 / port.capacity
        port.busy_time += min(tx, horizon - event[0])
        end = event[0] + tx
        port.done = (end, tie(), _TX_DONE, port, None)
        at = end + port.propagation
        peer = port.peer
        if peer.routes is not None or at > horizon:
            heappush(heap, (at, tie(), _ARRIVAL, peer, pkt))
        else:
            deliver(peer, pkt, at)

    while heap:
        event = heap[0]  # handled at the root, until replaced or popped
        now, _, code, port, pkt = event
        if now > horizon:
            break
        if code != _TX_DONE:  # a transmit-done is pushed only with a packet waiting
            if code == _ARRIVAL:  # at a switch: end equipment took delivery at transmit start
                occupied = port.occupancy + pkt.wire_bytes
                if occupied > input_bound:
                    pkt.stats.dropped_overflow += 1
                    heappop(heap)
                else:
                    port.occupancy = occupied
                    heapreplace(heap, (now + proc_delay, tie(), _PROC_DONE, port, pkt))
                continue
            if code != _PROC_DONE:  # _OFFER or _REG_TIMEOUT, the one event of circuit idx in the heap
                idx = port
                reg = regulators[idx]
                port, cstats, stats, source = ingress[idx]
                if code == _OFFER:
                    emitted = reg.offer(now, pkt)
                    following = next(source, None)  # its volume is read only now
                else:
                    following = upcoming[idx]
                    emitted = reg.flush()
                for pkt in emitted:
                    pkt.stats = cstats
                    cstats.injected += 1
                    stats.wire_bits_injected += pkt.wire_bytes * 8
                    enqueue(port, pkt, event)
                deadline = reg.deadline()  # None after a flush
                if deadline is not None and (following is None or deadline < following[0]):
                    heapreplace(heap, (deadline, tie(), _REG_TIMEOUT, idx, None))
                    upcoming[idx] = following
                elif following is not None:
                    heapreplace(heap, following)
                else:
                    heappop(heap)
                continue
            port.occupancy -= pkt.wire_bytes
            outputs = port.routes.get(pkt.label)
            if outputs is None:
                pkt.stats.dropped_unroutable += 1
                heappop(heap)
                continue
            if len(outputs) > 1:
                pkt.stats.replicated += len(outputs) - 1
                # replicas copy the queued original: until a later hop relabels it, nothing changes it
                for i, (out, out_label) in enumerate(outputs):
                    branch = pkt.copy() if i else pkt
                    branch.label = out_label
                    enqueue(out, branch, event)
                heappop(heap)
                continue
            port, pkt.label = outputs[0]
            cls = pkt.latency_class
            wire_bytes = pkt.wire_bytes
            if port.class_bytes[cls] + wire_bytes > queue_bound:
                pkt.stats.dropped_overflow += 1
                heappop(heap)
                continue
            lane = cls & lane_mask
            port.queues[lane].append(pkt)
            port.nonempty |= 1 << lane
            port.class_bytes[cls] += wire_bytes
            port.total_bytes += wire_bytes
            if port.total_bytes > port.peak_queue_bytes:
                port.peak_queue_bytes = port.total_bytes
            done = port.done
            if done is None:  # its transmit-done is in the heap
                heappop(heap)
                continue
            if not done < event:  # busy: the packet waits behind the reserved end
                heapreplace(heap, done)
                port.done = None
                continue
            # idle: send from this port below
        # the transmit step on port, the handled event still at the root
        pkt = port.pick(weights)
        wire_bytes = pkt.wire_bytes
        port.class_bytes[pkt.latency_class] -= wire_bytes
        port.total_bytes -= wire_bytes
        tx = wire_bytes * 8 / port.capacity
        left = horizon - now
        port.busy_time += tx if tx < left else left
        end = now + tx
        done = (end, tie(), _TX_DONE, port, None)
        at = end + port.propagation
        peer = port.peer
        if port.total_bytes > 0:  # a packet waits behind it: push its end
            heapreplace(heap, done)
            port.done = None
            if peer.routes is not None or at > horizon:
                heappush(heap, (at, tie(), _ARRIVAL, peer, pkt))
                continue
        else:
            port.done = done
            if peer.routes is not None or at > horizon:
                heapreplace(heap, (at, tie(), _ARRIVAL, peer, pkt))
                continue
            heappop(heap)
        deliver(peer, pkt, at)

    residual = sum(len(q) for port in ports.values() for q in port.queues)
    residual += sum(event[2] in (_ARRIVAL, _PROC_DONE) for event in heap)

    port_stats = [
        PortStats(
            src=node,
            dst=port.peer.node,
            utilization=(port.busy_time / horizon) if horizon > 0 else 0.0,
            peak_queue_bytes=port.peak_queue_bytes,
        )
        for (node, _), port in sorted(ports.items())
    ]
    keyed = {f"{reg.feed.session_id}/{reg.feed.circuit_id}": reg for reg in regulators}
    return RunResult(
        horizon=horizon,
        sessions=sessions,
        ports=port_stats,
        residual_packets=residual,
        regulator_backlog_bits={key: reg.buffered_bits for key, reg in keyed.items()},
        regulator_peak_bits={key: reg.peak_buffered_bits for key, reg in keyed.items()},
    )

