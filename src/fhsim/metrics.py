"""Aggregation of run output into reports, and overhead analysis.

Packet headers buy flexibility at the price of bandwidth efficiency:
a frame of L payload bytes carries L/(L+H) useful bits. The sweep
utility re-runs a world across frame sizes to expose the measured
efficiency/latency frontier. Percentiles are exact nearest-rank order
statistics so reports are bit-identical across platforms.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace as dc_replace

from .engine import RunResult, World, run
from .packet import HEADER_BYTES


def efficiency(payload_len_bytes: int, header_len_bytes: int = HEADER_BYTES) -> float:
    """Bandwidth efficiency of a frame: payload over payload plus header."""
    if payload_len_bytes < 1:
        raise ValueError("payload_len_bytes must be >= 1")
    return payload_len_bytes / (payload_len_bytes + header_len_bytes)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of empty list")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class SessionRecord:
    session_id: str
    injected: int
    replicated: int
    delivered: int
    dropped_unroutable: int
    dropped_overflow: int
    in_flight: int
    out_of_order: int
    min_ns: int
    mean_ns: int
    p50_ns: int
    p99_ns: int
    max_ns: int
    bound_violations: int


@dataclass
class LinkRecord:
    src: int
    dst: int
    utilization: float
    peak_queue_bytes: int


@dataclass
class MetricsReport:
    sessions: list[SessionRecord]
    links: list[LinkRecord]
    header_overhead_ratio: float
    total_bits_offered: int  # wire bits injected at regulators
    total_bits_carried: int  # wire bits delivered to end equipment
    horizon: float

    def session(self, session_id: str) -> SessionRecord:
        for record in self.sessions:
            if record.session_id == session_id:
                return record
        raise KeyError(session_id)


def _ns(seconds: float) -> int:
    return round(seconds * 1e9)


def assemble_report(
    result: RunResult,
    latency_bounds: dict[str, float] | None = None,
) -> MetricsReport:
    """Deterministic aggregation of a finished run.

    latency_bounds maps session id to its guarantee; a delivered packet
    whose end-to-end latency exceeds the bound counts as a violation.
    """
    bounds = latency_bounds or {}
    session_records: list[SessionRecord] = []
    total_offered = 0
    total_carried = 0
    total_payload_carried = 0
    for session_id in sorted(result.sessions):
        stats = result.sessions[session_id]
        totals = stats.totals()
        lat = stats.latencies
        if lat:
            ordered = sorted(lat)
            min_ns = _ns(ordered[0])
            max_ns = _ns(ordered[-1])
            mean_ns = _ns(sum(ordered) / len(ordered))
            p50_ns = _ns(percentile(ordered, 50))
            p99_ns = _ns(percentile(ordered, 99))
        else:
            min_ns = mean_ns = p50_ns = p99_ns = max_ns = 0
        bound = bounds.get(session_id)
        violations = sum(1 for v in lat if v > bound) if bound is not None else 0
        session_records.append(
            SessionRecord(
                session_id=session_id,
                injected=totals.injected,
                replicated=totals.replicated,
                delivered=totals.delivered,
                dropped_unroutable=totals.dropped_unroutable,
                dropped_overflow=totals.dropped_overflow,
                in_flight=totals.in_flight,
                out_of_order=totals.out_of_order,
                min_ns=min_ns,
                mean_ns=mean_ns,
                p50_ns=p50_ns,
                p99_ns=p99_ns,
                max_ns=max_ns,
                bound_violations=violations,
            )
        )
        payload = stats.payload_bits_delivered
        total_payload_carried += payload
        total_carried += payload + totals.delivered * HEADER_BYTES * 8
        total_offered += stats.wire_bits_injected

    link_records = [
        LinkRecord(
            src=p.src, dst=p.dst, utilization=p.utilization, peak_queue_bytes=p.peak_queue_bytes
        )
        for p in result.ports
    ]
    overhead = (
        (total_carried - total_payload_carried) / total_carried if total_carried else 0.0
    )
    return MetricsReport(
        sessions=session_records,
        links=link_records,
        header_overhead_ratio=overhead,
        total_bits_offered=total_offered,
        total_bits_carried=total_carried,
        horizon=result.horizon,
    )


def measured_efficiency(result: RunResult) -> float:
    """Carried payload bits over carried total bits, across all sessions."""
    payload = sum(s.payload_bits_delivered for s in result.sessions.values())
    delivered = sum(s.totals().delivered for s in result.sessions.values())
    carried = payload + delivered * HEADER_BYTES * 8
    return payload / carried if carried else 0.0


def overhead_sweep(
    world: World,
    frame_sizes: list[int],
    horizon: float,
    seed: int = 0,
) -> list[tuple[int, float, int]]:
    """Re-run the world once per frame size with identical inputs.

    Every circuit's regulator is re-framed to the given max frame size;
    the result rows are (frame_size, measured_efficiency, p99 latency
    in ns across all delivered packets).
    """
    rows: list[tuple[int, float, int]] = []
    for size in frame_sizes:
        if size < HEADER_BYTES:
            raise ValueError(f"frame size {size} below header length {HEADER_BYTES}")
        circuits = [
            dc_replace(feed, policy=dc_replace(feed.policy, max_frame_bytes=size))
            for feed in world.circuits
        ]
        result = run(dc_replace(world, circuits=circuits), horizon, seed)
        latencies = [v for s in result.sessions.values() for v in s.latencies]
        p99 = _ns(percentile(latencies, 99)) if latencies else 0
        rows.append((size, measured_efficiency(result), p99))
    return rows


def write_report_csvs(report: MetricsReport, out_dir: str) -> None:
    """Write the per-session, per-link, and global tables."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sessions.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "session_id",
                "injected",
                "replicated",
                "delivered",
                "dropped_unroutable",
                "dropped_overflow",
                "in_flight",
                "out_of_order",
                "min_ns",
                "mean_ns",
                "p50_ns",
                "p99_ns",
                "max_ns",
                "bound_violations",
            ]
        )
        for r in report.sessions:
            writer.writerow(
                [
                    r.session_id,
                    r.injected,
                    r.replicated,
                    r.delivered,
                    r.dropped_unroutable,
                    r.dropped_overflow,
                    r.in_flight,
                    r.out_of_order,
                    r.min_ns,
                    r.mean_ns,
                    r.p50_ns,
                    r.p99_ns,
                    r.max_ns,
                    r.bound_violations,
                ]
            )
    with open(os.path.join(out_dir, "links.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["link", "utilization", "peak_queue_bytes"])
        for l in report.links:
            writer.writerow([f"{l.src}->{l.dst}", repr(l.utilization), l.peak_queue_bytes])
    with open(os.path.join(out_dir, "global.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["header_overhead_ratio", repr(report.header_overhead_ratio)])
        writer.writerow(["total_bits_offered", report.total_bits_offered])
        writer.writerow(["total_bits_carried", report.total_bits_carried])
        writer.writerow(["horizon", repr(report.horizon)])


def write_sweep_csv(rows: list[tuple[int, float, int]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_size", "efficiency", "p99_ns"])
        for size, eff, p99 in rows:
            writer.writerow([size, repr(eff), p99])
