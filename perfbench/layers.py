"""Which public functions a traced pass wraps, and the per-layer metrics they give.

Each target names the attribute fhsim looks the function up through
(`run_scenario` calls `fhsim.scenario.run`, not `fhsim.engine.run`), so
wrapping it there catches every call the scenario pipeline makes.
"""

from __future__ import annotations

import statistics

import fhsim.control
import fhsim.scenario
from fhsim.control import Controller, ReservationLedger
from fhsim.packet import FhHeader
from fhsim.topology import PhysicalTopology

from tracing import LAYERS, layer_of, self_times


def _observe_run(counters, args, result) -> None:
    for stats in result.sessions.values():
        for c in stats.circuits.values():
            counters["engine.pkts_injected"] += c.injected
            counters["engine.pkts_replicated"] += c.replicated
            counters["engine.pkts_delivered"] += c.delivered
            counters["engine.pkts_dropped"] += c.dropped_unroutable + c.dropped_overflow
            counters["engine.in_flight"] += c.in_flight
        counters["engine.wire_bytes"] += stats.wire_bits_injected // 8
        counters["metrics.latency_samples"] += len(stats.latencies)
    counters["engine.residual_packets"] += result.residual_packets


def _observe_trace(counters, args, result) -> None:
    _cell, _scheme, profiles, _control, n_subframes = args[:5]
    counters["traffic.ue_subframes"] += len(profiles) * n_subframes


def _observe_setup(counters, args, result) -> None:
    counters["control.admitted"] += 1


def _observe_reroute(counters, args, result) -> None:
    counters["control.victims"] += sum(1 for v in result.values() if v == "victim")


def targets():
    """(owner, attribute, traced name, kind, observe) for Tracer.install."""
    sc = fhsim.scenario
    return [
        (sc, "parse_scenario", "scenario.parse_scenario", "span", None),
        (sc, "run_scenario", "scenario.run_scenario", "span", None),
        (sc, "build_scenario", "scenario.build_scenario", "span", None),
        (sc, "generate_trace", "traffic.generate_trace", "span", _observe_trace),
        (sc, "constant_trace", "traffic.constant_trace", "span", None),
        (sc, "write_trace_csv", "traffic.write_trace_csv", "span", None),
        (sc, "build_sync_tree", "sync.build_sync_tree", "span", None),
        (sc, "propagate_sync", "sync.propagate_sync", "span", None),
        (sc, "write_sync_csv", "sync.write_sync_csv", "span", None),
        (sc, "run", "engine.run", "span", _observe_run),
        (sc, "assemble_report", "metrics.assemble_report", "span", None),
        (sc, "write_report_csvs", "metrics.write_report_csvs", "span", None),
        (Controller, "setup", "control.setup", "span", _observe_setup),
        (Controller, "teardown", "control.teardown", "span", None),
        (Controller, "reroute_on_failure", "control.reroute_on_failure", "span", _observe_reroute),
        (Controller, "write_log_csv", "control.write_log_csv", "span", None),
        (fhsim.control, "compute_path", "control.compute_path", "span", None),
        (ReservationLedger, "residual", "control.ledger_residual", "leaf", None),
        (ReservationLedger, "debit", "control.ledger_write", "leaf", None),
        (ReservationLedger, "credit", "control.ledger_write", "leaf", None),
        (ReservationLedger, "release_session", "control.ledger_write", "leaf", None),
        (PhysicalTopology, "without_links", "topology.without_links", "span", None),
        (FhHeader, "__post_init__", "packet.header_check", "leaf", None),
    ]


def pass_metrics(tracer, result) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    self_s, incl_s, calls = self_times(tracer.spans, tracer.leaves)
    c = tracer.counters

    def ms(*names):
        return 1e3 * sum(incl_s.get(n, 0.0) for n in names)

    def per_s(count, *names):
        busy = sum(incl_s.get(n, 0.0) for n in names)
        return count / busy if busy else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * sum(v for n, v in self_s.items() if layer_of(n) == layer)
        out[f"{layer}.calls"] = sum(v for n, v in calls.items() if layer_of(n) == layer)
    setups = calls.get("control.setup", 0)
    out.update({
        "engine.run_ms": ms("engine.run"),
        "engine.delivered_per_s": per_s(c["engine.pkts_delivered"], "engine.run"),
        "packet.header_checks": calls.get("packet.header_check", 0),
        "packet.header_ms": ms("packet.header_check"),
        "traffic.trace_ms": ms("traffic.generate_trace", "traffic.constant_trace"),
        "traffic.ue_subframes": c["traffic.ue_subframes"],
        "traffic.ue_subframes_per_s": per_s(c["traffic.ue_subframes"], "traffic.generate_trace"),
        "traffic.csv_ms": ms("traffic.write_trace_csv"),
        "control.setup_ms": ms("control.setup"),
        "control.path_calls": calls.get("control.compute_path", 0),
        "control.path_ms": ms("control.compute_path"),
        "control.residual_calls": calls.get("control.ledger_residual", 0),
        "control.ledger_writes": calls.get("control.ledger_write", 0),
        "control.residual_per_setup": calls.get("control.ledger_residual", 0) / setups if setups else 0.0,
        "control.admit_ratio": c["control.admitted"] / setups if setups else 0.0,
        "control.teardown_ms": ms("control.teardown"),
        "control.reroute_ms": ms("control.reroute_on_failure"),
        "control.victims": c["control.victims"],
        "control.log_csv_ms": ms("control.write_log_csv"),
        "topology.without_links_calls": calls.get("topology.without_links", 0),
        "topology.without_links_ms": ms("topology.without_links"),
        "scenario.parse_ms": ms("scenario.parse_scenario"),
        "scenario.build_self_ms": 1e3 * self_s.get("scenario.build_scenario", 0.0),
        "sync.tree_ms": ms("sync.build_sync_tree", "sync.propagate_sync"),
        "sync.csv_ms": ms("sync.write_sync_csv"),
        "metrics.assemble_ms": ms("metrics.assemble_report"),
        "metrics.csv_ms": ms("metrics.write_report_csvs"),
        "trace.coverage": sum(self_s.values()) / result.wall_s,
        "trace.records": len(tracer.spans) + sum(n for n, _ in tracer.leaves.values()),
    })
    for name in ("pkts_injected", "pkts_delivered", "pkts_replicated", "pkts_dropped",
                 "wire_bytes", "residual_packets"):
        out[f"engine.{name}"] = c[f"engine.{name}"]
    out["metrics.latency_samples"] = c["metrics.latency_samples"]
    return out


def trace_problems(tracer) -> list[str]:
    """Conservation against the engine's own count of packets left in flight."""
    c = tracer.counters
    if c["engine.in_flight"] != c["engine.residual_packets"]:
        return [
            f"engine: {c['engine.in_flight']:g} packets in flight by the session counts, "
            f"{c['engine.residual_packets']:g} residual by the engine"
        ]
    return []


def _percentile_ms(values, pct):
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e3 * ordered[min(len(ordered) - 1, max(0, round(pct / 100 * len(ordered)) - 1))]


def summarize(untraced, traced) -> dict[str, float]:
    """Medians over the traced passes, plus host timings of the untraced ones.

    The names are those of BENCHMARK.json's per_layer list; run.py checks
    that the two agree and takes the units from there.
    """
    out = {name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]}
    setup = [t for p in untraced for t in p.phases.get("setup", [])]
    churn = [t for p in untraced for t in p.phases.get("churn", [])]
    reroute = [t for p in untraced for t in p.phases.get("reroute", [])]
    out["setup_ms.p50"] = _percentile_ms(setup, 50)
    out["setup_ms.p99"] = _percentile_ms(setup, 99)
    out["churn_ms.p50"] = _percentile_ms(churn, 50)
    out["churn_ms.p99"] = _percentile_ms(churn, 99)
    out["reroute_s"] = statistics.median(reroute) if reroute else 0.0
    plain = statistics.median(p.wall_s for p in untraced)
    slow = statistics.median(r.wall_s for r, _ in traced)
    out["trace.untraced_wall_s"] = plain
    out["trace.traced_wall_s"] = slow
    out["trace.overhead_share"] = slow / plain - 1.0
    return out
