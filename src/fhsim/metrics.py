"""Aggregation of run output into reports, and overhead analysis.

Packet headers buy flexibility at the price of bandwidth efficiency:
a frame of L payload bytes carries L/(L+H) useful bits. The sweep
utility re-runs a world across frame sizes to expose the measured
efficiency/latency frontier. A run counts its latencies per exact
value, so a report reads every order statistic from the sorted values
and their running counts, in memory that grows with the distinct
latencies, not the packets. Percentiles are exact nearest-rank order
statistics, and the mean adds every sample in ascending order, so
reports are bit-identical across platforms. A
`SessionRecord`'s fields are the sessions.csv columns, in order, and a
`MetricsReport`'s scalar fields are the global.csv keys, so each of
those tables names its columns once, on its record.
"""

from __future__ import annotations

import csv
import math
import os
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import astuple, dataclass, fields, replace as dc_replace
from itertools import accumulate

from .engine import Latencies, PortStats, RegulatorPolicy, RunResult, World, run
from .fanout import fan_out
from .packet import HEADER_BYTES


def efficiency(payload_len_bytes: int, header_len_bytes: int = HEADER_BYTES) -> float:
    """Bandwidth efficiency of a frame: payload over payload plus header."""
    if payload_len_bytes < 1:
        raise ValueError("payload_len_bytes must be >= 1")
    return payload_len_bytes / (payload_len_bytes + header_len_bytes)


def _running(counts: dict[float, int]) -> tuple[list[float], list[int]]:
    """The distinct values in ascending order, and how many samples are <= each."""
    keys = sorted(counts)
    return keys, list(accumulate(counts[k] for k in keys))


def _ranked(keys: list[float], running: list[int], pct: float) -> float:
    """Nearest-rank percentile of the samples that `_running` describes."""
    return keys[bisect_left(running, max(1, math.ceil(pct / 100 * running[-1])))]


@dataclass
class SessionRecord:
    """One row of sessions.csv: its fields are the columns, in order."""

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
class MetricsReport:
    """A run's tables; the fields after `links` are the global.csv keys, in order."""

    sessions: list[SessionRecord]
    links: list[PortStats]
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


def _carried_bits(result: RunResult) -> tuple[int, int]:
    """(payload bits, total bits) delivered to end equipment, headers counted in the total."""
    payload = sum(s.payload_bits_delivered for s in result.sessions.values())
    delivered = sum(s.totals().delivered for s in result.sessions.values())
    return payload, payload + delivered * HEADER_BYTES * 8


def _session_latency(latencies: Latencies, bound: float | None) -> tuple[float, ...]:
    """(min, mean, p50, p99, max) latency in s, then the samples above the bound; all 0 when none."""
    keys, running = _running(latencies.counts)
    if not keys:
        return (0.0,) * 5 + (0,)
    n = running[-1]
    at_or_below = bisect_right(keys, bound) if bound is not None else len(keys)
    violations = n - (running[at_or_below - 1] if at_or_below else 0)
    # the same float additions, in the same order, as summing the sorted samples
    mean = sum(latencies) / n
    return keys[0], mean, _ranked(keys, running, 50), _ranked(keys, running, 99), keys[-1], violations


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
    for session_id in sorted(result.sessions):
        stats = result.sessions[session_id]
        t = stats.totals()
        *latency, violations = _session_latency(stats.latencies, bounds.get(session_id))
        counts = (t.injected, t.replicated, t.delivered, t.dropped_unroutable, t.dropped_overflow)
        session_records.append(
            SessionRecord(session_id, *counts, t.in_flight, t.out_of_order, *map(_ns, latency), violations)
        )

    payload, carried = _carried_bits(result)
    return MetricsReport(
        sessions=session_records,
        links=result.ports,
        header_overhead_ratio=(carried - payload) / carried if carried else 0.0,
        total_bits_offered=sum(s.wire_bits_injected for s in result.sessions.values()),
        total_bits_carried=carried,
        horizon=result.horizon,
    )


def measured_efficiency(result: RunResult) -> float:
    """Carried payload bits over carried total bits, across all sessions."""
    payload, carried = _carried_bits(result)
    return payload / carried if carried else 0.0


def check_sweep_sizes(frame_sizes: list[int]) -> None:
    """Refuse a sweep size below the header length or one no regulator takes."""
    for size in frame_sizes:
        if size < HEADER_BYTES:
            raise ValueError(f"frame size {size} below header length {HEADER_BYTES}")
        RegulatorPolicy(max_frame_bytes=size)


def overhead_sweep(
    world: World,
    frame_sizes: list[int],
    horizon: float,
) -> list[tuple[int, float, int]]:
    """Re-run the world once per frame size with identical inputs.

    Every circuit's regulator is re-framed to the given max frame size;
    the result rows are (frame_size, measured_efficiency, p99 latency
    in ns across all delivered packets), in the given order. Every size
    is checked before the first rerun. The reruns are independent, so
    they go through `fan_out` on every usable CPU; each row is the same
    as a serial loop would make.
    """
    check_sweep_sizes(frame_sizes)

    def point(size: int) -> tuple[int, float, int]:
        circuits = [
            dc_replace(feed, policy=dc_replace(feed.policy, max_frame_bytes=size))
            for feed in world.circuits
        ]
        result = run(dc_replace(world, circuits=circuits), horizon)
        merged: Counter[float] = Counter()
        for stats in result.sessions.values():
            merged.update(stats.latencies.counts)
        keys, running = _running(merged)
        p99 = _ns(_ranked(keys, running, 99)) if keys else 0
        return size, measured_efficiency(result), p99

    return fan_out(point, list(frame_sizes))


def _write_csv(path: str, header: list[str], rows) -> None:
    """One header row, then the rows; csv writes a float as its repr, so values round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report_csvs(report: MetricsReport, out_dir: str) -> None:
    """Write the per-session, per-link, and global tables."""
    os.makedirs(out_dir, exist_ok=True)
    sessions = [astuple(r) for r in report.sessions]
    _write_csv(os.path.join(out_dir, "sessions.csv"), [f.name for f in fields(SessionRecord)], sessions)
    links = [(f"{l.src}->{l.dst}", l.utilization, l.peak_queue_bytes) for l in report.links]
    _write_csv(os.path.join(out_dir, "links.csv"), ["link", "utilization", "peak_queue_bytes"], links)
    scalars = [
        (f.name, getattr(report, f.name)) for f in fields(report) if f.name not in ("sessions", "links")
    ]
    _write_csv(os.path.join(out_dir, "global.csv"), ["key", "value"], scalars)


def write_sweep_csv(rows: list[tuple[int, float, int]], path: str) -> None:
    _write_csv(path, ["frame_size", "efficiency", "p99_ns"], rows)
