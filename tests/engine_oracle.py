"""Reference event loop: every event in the heap from the start.

This is the `fhsim.engine.run` that the chained offers, the one event
per circuit, the lazy transmit-done and delivery at transmit start
replaced. It pushes every offer of every circuit before the first pop,
a new regulator timeout after every offer, the end of every
transmission, and every arrival, at end equipment and at every switch
port, where it checks the input buffer, so it is slow but plainly
right. Its events take the engine's (time, cause, tie) key. Two pieces of its state live here, since the engine
no longer needs them: each circuit's generation counter, which skips a
superseded timeout when it pops, and a set of busy ports, in place of
a flag on `_Port`. Neither changes its logic. It resolves each label
lazily from the switch tables and the egress map, at the first packet
that carries it, where the engine resolves every label before the first
event; like the engine, it makes each circuit's stats, fed or bound at
egress, before the first event. It keeps each session's latencies as a
list in delivery order, where the engine counts each value; the
property tests require that both give the same result, with equal
counts per latency.
"""

import heapq
import itertools
import math

from fhsim.engine import (
    EPS_BITS,
    PortStats,
    Regulator,
    RunResult,
    SessionRunStats,
    World,
    _Port,
    _wire_ports,
)
from fhsim.packet import SEQ_MODULUS, FhPacket

_OFFER, _REG_TIMEOUT, _ARRIVAL, _PROC_DONE, _TX_DONE = range(5)


def run(world: World, horizon: float) -> RunResult:
    if horizon < 0:
        raise ValueError("horizon must be >= 0")

    config = world.config
    ports = _wire_ports(world)
    busy: set[_Port] = set()
    regulators = [Regulator(feed) for feed in world.circuits]
    generation = [0] * len(regulators)  # per circuit: invalidates superseded timeouts
    sessions: dict[str, SessionRunStats] = {}
    ingress = []  # per circuit: (ingress port, circuit stats, session stats)
    for feed in world.circuits:
        stats = sessions.setdefault(feed.session_id, SessionRunStats(latencies=[]))
        ingress.append(
            (ports.get((feed.ingress_node, feed.ingress_port)), stats.circuit(feed.circuit_id), stats)
        )
    for sid, cid in world.egress.values():
        sessions[sid].circuit(cid)
    routes: dict[tuple[_Port, int], tuple | None] = {}  # (input port, label) -> outputs, as resolved
    bindings: dict[tuple[_Port, int], list | None] = {}  # (host port, label) -> record, as resolved

    # Events are (time, cause, tie, code, a, b): at equal time they
    # resolve by the time of the event that scheduled them, then by the
    # order they were pushed in. An offer's cause is -inf, and a
    # processing end's is its arrival's time, whose tie it inherits.
    heap: list[tuple] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    tie = itertools.count().__next__

    for idx, feed in enumerate(world.circuits):
        for sf, bits in enumerate(feed.volumes):
            t = sf * feed.subframe_duration
            if t > horizon:
                break
            if bits > EPS_BITS:
                heappush(heap, (t, -math.inf, tie(), _OFFER, idx, sf))

    def start_tx(port: _Port, now: float) -> None:
        pkt = port.pick(config.wrr_credits)
        wire_bytes = pkt.wire_bytes
        port.class_bytes[pkt.latency_class] -= wire_bytes
        port.total_bytes -= wire_bytes
        busy.add(port)
        tx = wire_bytes * 8 / port.capacity
        port.busy_time += min(tx, horizon - now)
        heappush(heap, (now + tx, now, tie(), _TX_DONE, port, None))
        heappush(heap, (now + tx + port.propagation, now, tie(), _ARRIVAL, port.peer, pkt))

    def enqueue(port: _Port, pkt: FhPacket, now: float) -> None:
        cls = pkt.latency_class
        wire_bytes = pkt.wire_bytes
        if port.class_bytes[cls] + wire_bytes > config.queue_bytes:
            pkt.stats.dropped_overflow += 1
            return
        lane = cls & config.lane_mask
        port.queues[lane].append(pkt)
        port.nonempty |= 1 << lane
        port.class_bytes[cls] += wire_bytes
        port.total_bytes += wire_bytes
        if port.total_bytes > port.peak_queue_bytes:
            port.peak_queue_bytes = port.total_bytes
        if port not in busy:
            start_tx(port, now)

    def inject(idx: int, emitted: list[FhPacket], now: float) -> None:
        port, cstats, stats = ingress[idx]
        for pkt in emitted:
            pkt.stats = cstats
            cstats.injected += 1
            stats.wire_bits_injected += pkt.wire_bytes * 8
            enqueue(port, pkt, now)

    def reschedule_timeout(idx: int, now: float) -> None:
        generation[idx] += 1
        deadline = regulators[idx].deadline()
        if deadline is not None:
            heappush(heap, (deadline, now, tie(), _REG_TIMEOUT, idx, generation[idx]))

    def route(port: _Port, label: int):
        outputs = world.switches[port.node].table.get((port.port_no, label))
        if outputs is not None:
            outputs = tuple((ports[(port.node, out)], out_label) for out, out_label in outputs)
        routes[(port, label)] = outputs
        return outputs

    def bind(port: _Port, label: int):
        binding = world.egress.get((port.node, port.port_no, label))
        if binding is not None:
            sid, cid = binding
            stats = sessions[sid]
            binding = [stats, stats.circuit(cid), None]
        bindings[(port, label)] = binding
        return binding

    def deliver(port: _Port, pkt: FhPacket, now: float) -> None:
        label = pkt.label
        binding = bindings[(port, label)] if (port, label) in bindings else bind(port, label)
        if binding is None:
            pkt.stats.dropped_unroutable += 1
            return
        stats, cstats, last = binding
        cstats.delivered += 1
        if last is not None:
            distance = (pkt.seq - last) % SEQ_MODULUS
            if distance == 0 or distance >= SEQ_MODULUS // 2:
                cstats.out_of_order += 1
        binding[2] = pkt.seq
        stats.latencies.append(now - pkt.created_at)
        stats.payload_bits_delivered += pkt.payload_len * 8

    while heap and heap[0][0] <= horizon:
        now, _, event_tie, code, a, b = heappop(heap)
        if code == _ARRIVAL:
            port, pkt = a, b
            if port.node not in world.switches:
                deliver(port, pkt, now)
                continue
            occupied = port.occupancy + pkt.wire_bytes
            if occupied > config.input_buffer_bytes:
                pkt.stats.dropped_overflow += 1
                continue
            port.occupancy = occupied
            heappush(heap, (now + config.header_processing_delay, now, event_tie, _PROC_DONE, port, pkt))
        elif code == _PROC_DONE:
            port, pkt = a, b
            port.occupancy -= pkt.wire_bytes
            label = pkt.label
            outputs = routes[(port, label)] if (port, label) in routes else route(port, label)
            if outputs is None:
                pkt.stats.dropped_unroutable += 1
                continue
            if len(outputs) == 1:
                out, pkt.label = outputs[0]
                enqueue(out, pkt, now)
                continue
            pkt.stats.replicated += len(outputs) - 1
            branches = [pkt] + [pkt.copy() for _ in outputs[1:]]
            for branch, (out, out_label) in zip(branches, outputs):
                branch.label = out_label
                enqueue(out, branch, now)
        elif code == _TX_DONE:
            port = a
            busy.discard(port)
            if port.total_bytes > 0:
                start_tx(port, now)
        elif code == _OFFER:
            emitted = regulators[a].offer(now, world.circuits[a].volumes[b])
            inject(a, emitted, now)
            reschedule_timeout(a, now)
        else:  # _REG_TIMEOUT
            if b != generation[a]:
                continue
            inject(a, regulators[a].flush(), now)
            reschedule_timeout(a, now)

    residual = sum(len(q) for port in ports.values() for q in port.queues)
    for event in heap:
        if event[3] in (_ARRIVAL, _PROC_DONE):
            residual += 1

    port_stats = [
        PortStats(
            src=node,
            dst=port.peer.node,
            utilization=(port.busy_time / horizon) if horizon > 0 else 0.0,
            peak_queue_bytes=port.peak_queue_bytes,
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
