"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS line once its assertions hold, so a
verbose run (`pytest tests/test_acceptance.py -v -s`) reads as a
criterion checklist. Expected values are frozen from independent
arithmetic; the routing criterion compares against an exhaustive
brute-force oracle.
"""

import math
import random
import statistics
from dataclasses import replace

from routing_oracle import brute_force_route, random_reserved_graph

from fhsim.control import Controller, Infeasible, SessionRequest, compute_path
from fhsim.engine import RegulatorPolicy, run
from fhsim.metrics import assemble_report, measured_efficiency, overhead_sweep
from fhsim.packet import FhHeader, deserialize_header, serialize_header
from fhsim.scenario import build_scenario, parse_scenario, run_scenario
from fhsim.sync import ClockSource, build_sync_tree, propagate_sync
from fhsim.topology import (
    LogicalPattern,
    Node,
    NodeKind,
    PhysLink,
    PhysicalTopology,
    PointToPoint,
    Ring,
    Star,
    build_topology,
)
from fhsim.traffic import (
    CellConfig,
    ClassicalIQ,
    ControlSchedule,
    FilteredIQ,
    ModulationBits,
    ReExtraction,
    UeProfile,
    generate_trace,
    peak_rate,
)
from fhsim.cli import bundled_scenario_names, load_scenario_text


def _ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def _bundled(name):
    text, _ = load_scenario_text(name)
    return parse_scenario(text, name=name)


def test_criterion_1_classical_rate():
    rate = peak_rate(ClassicalIQ(), CellConfig())
    assert rate == 9.8304e9  # exact arithmetic, no tolerance
    assert abs(rate - 10e9) / 10e9 < 0.05
    _ok(1, "classical I/Q peak rate is exactly 9.8304 Gbps (within 5% of 10 Gbps)")


def test_criterion_2_split_ordering_trace_shape():
    cell = CellConfig()
    control = ControlSchedule(pdcch_res_per_subframe=144, prach_period=10, prach_res=144)
    fixed_mcs = [UeProfile(mean_on=30, mean_off=30, demand_prbs=10, mcs_step_prob=0.0, mcs_init=5)] * 10
    seed = 20250809

    classical = generate_trace(cell, ClassicalIQ(), fixed_mcs, control, 1000, seed)
    assert set(classical.volumes) == {9830400.0}  # constant

    filtered = generate_trace(cell, FilteredIQ(0.5), fixed_mcs, control, 1000, seed)
    assert filtered.volumes == [0.5 * v for v in classical.volumes]  # every subframe

    for scheme in (ReExtraction(), ModulationBits()):
        trace = generate_trace(cell, scheme, fixed_mcs, control, 1000, seed)
        prbs = [float(p) for p in trace.prbs]
        assert len(set(trace.volumes)) > 1  # varies with load
        assert statistics.correlation(prbs, trace.volumes) > 0.9

    always_on = [UeProfile(mean_on=math.inf, mean_off=30, demand_prbs=10, mcs_step_prob=0.0, mcs_init=5)] * 10
    full = generate_trace(cell, ModulationBits(), always_on, control, 1000, seed)
    mean_mod = sum(full.volumes) / len(full.volumes)
    assert 9830400.0 / mean_mod >= 10  # at least one order of magnitude

    rex_full = generate_trace(cell, ReExtraction(), always_on, control, 1000, seed)
    base = rex_full.volumes[1]
    spikes = {i for i, v in enumerate(rex_full.volumes) if v != base}
    assert spikes == {i for i in range(1000) if i % 10 == 0}  # PRACH period exactly
    _ok(2, "split volumes reproduce the constant/half/load-driven/periodic shape")


def test_criterion_3_latency_guarantee(bundled_runs):
    scenario, _, _, sp_report = bundled_runs["latency-tiers"]
    urgent = sp_report.session("urgent")
    assert urgent.delivered >= 100_000
    assert urgent.bound_violations == 0

    fifo = build_scenario(replace(scenario, engine=replace(scenario.engine, scheduler="fifo")))
    fifo_result = run(fifo.world, scenario.engine.horizon)
    fifo_report = assemble_report(fifo_result, fifo.bounds)
    assert fifo_report.session("urgent").bound_violations >= 1
    _ok(
        3,
        f"strict priority: 0 violations over {urgent.delivered} class-0 packets; "
        f"fifo control run: {fifo_report.session('urgent').bound_violations} violations",
    )


def test_criterion_4_path_computation_oracle():
    rng = random.Random(20250809)
    checked = 0
    outcomes = {None: 0, "no-bandwidth": 0, "latency-unreachable": 0}
    while checked < 1000:
        topo, reserved, hosts = random_reserved_graph(rng)
        if len(hosts) < 2:
            continue
        src, dst = rng.sample(hosts, 2)
        peak = rng.choice([1e8, 9e8, 3e9, 2e10])
        bound = rng.choice([2e-6, 2e-5, 1e-4, 1e-2])

        def residual_of(key):
            return topo.link_between(*key).capacity - reserved[key]

        cause, best = brute_force_route(
            topo, src, dst, peak, bound, 1008, 1e-6, residual_of
        )
        try:
            path, cost = compute_path(
                topo, src, dst, peak, bound, 1008, 1e-6, residual_of
            )
            assert cause is None
            assert (cost, path) == best  # feasibility and cost and tie-break
        except Infeasible as exc:
            assert exc.cause == cause
        outcomes[cause] += 1
        checked += 1
    assert all(count > 0 for count in outcomes.values())
    _ok(4, f"1000 random graphs match brute force (outcome mix {outcomes})")


def test_criterion_5_conservation_every_bundled_scenario(bundled_runs):
    for name, (scenario, built, result, report) in bundled_runs.items():
        grand = result.total()
        assert (
            grand.injected + grand.replicated
            == grand.delivered
            + grand.dropped_unroutable
            + grand.dropped_overflow
            + grand.in_flight
        ), name
        assert grand.in_flight == result.residual_packets, name  # verified by walking state
        assert grand.dropped_unroutable == 0, name
        for sid, stats in result.sessions.items():
            for cid, c in stats.circuits.items():
                assert (
                    c.injected + c.replicated
                    == c.delivered + c.dropped_unroutable + c.dropped_overflow + c.in_flight
                ), (name, sid, cid)
    _ok(5, "packet conservation holds exactly, per label and globally, in all scenarios")


def test_criterion_6_header_and_overhead():
    rng = random.Random(6)
    for _ in range(10_000):
        header = FhHeader(
            label=rng.randrange(1 << 16),
            seq=rng.randrange(1 << 16),
            latency_class=rng.randrange(16),
            flags=rng.randrange(16),
            payload_len=rng.randrange(1 << 16),
        )
        assert deserialize_header(serialize_header(header)) == header

    # constant full-frame flow: measured efficiency equals L/(L+H)
    nodes = [Node(0, NodeKind.RRH, 1), Node(1, NodeKind.BBU, 1)]
    topo = PhysicalTopology(nodes, [PhysLink(0, 0, 1, 0, 1e9, 1e-6)])
    from fhsim.engine import CircuitFeed, World

    feed = CircuitFeed(
        "s", 0, 0, 0, 1, 0, RegulatorPolicy(1000, 1e-3), [80000.0] * 50, 1e-3
    )
    world = World(topo, {}, [feed], {(1, 0, 1): ("s", 0)})
    result = run(world, 0.1)
    assert abs(measured_efficiency(result) - 1000 / 1008) < 1e-9

    rows = overhead_sweep(world, [64, 256, 1000, 4000], horizon=0.06)
    efficiencies = [eff for _, eff, _ in rows]
    assert all(a < b for a, b in zip(efficiencies, efficiencies[1:]))
    _ok(6, "10^4 header round-trips, efficiency matches L/(L+H) within 1e-9, sweep monotone")


def test_criterion_7_sync_decoupling():
    topo = build_topology(
        Ring(n_switches=4, attachments=((0, NodeKind.RRH), (1, NodeKind.RRH), (2, NodeKind.BBU)))
    )
    sources = [ClockSource(node=6, quality_rank=0)]  # the BBU
    baseline = build_sync_tree(topo, sources)

    controller = Controller(topo)
    rng = random.Random(7)
    live = []
    ops = 0
    while ops < 100:
        roll = rng.random()
        try:
            if roll < 0.35 or not live:
                live.append(
                    controller.setup(
                        SessionRequest(
                            pattern=LogicalPattern(PointToPoint(rng.choice([4, 5]), 6)),
                            mean_rate=1e8,
                            peak_rate=rng.choice([2e8, 1e9]),
                            latency_class=1,
                            latency_bound=1.0,
                        )
                    )
                )
            elif roll < 0.55:
                controller.teardown(live.pop(rng.randrange(len(live))))
            elif roll < 0.8:
                session = rng.choice(live)
                controller.migrate(
                    session, LogicalPattern(PointToPoint(rng.choice([4, 5]), 6))
                )
            else:
                controller.reroute_on_failure((0, 1))
                controller.failed_links.clear()  # repaired before the next op
        except Infeasible:
            pass
        ops += 1
        assert build_sync_tree(topo, sources) == baseline

    # every physically reachable radio unit is synchronized
    tree = build_sync_tree(topo, sources)
    rrh_ids = {n.id for n in topo.nodes_of_kind(NodeKind.RRH)}
    assert rrh_ids <= set(tree.source_of)
    assert not tree.unsynchronized

    # two-hop RMS accumulation: sqrt(3^2 + 4^2) = 5 ns, exactly
    chain = PhysicalTopology(
        [Node(0, NodeKind.BBU, 1), Node(1, NodeKind.BBU, 2), Node(2, NodeKind.RRH, 1)],
        [
            PhysLink(0, 0, 1, 0, 1e9, jitter_std=3e-9),
            PhysLink(1, 1, 2, 0, 1e9, jitter_std=4e-9),
        ],
    )
    status = propagate_sync(build_sync_tree(chain, [ClockSource(node=0)]), chain, 1.0)
    assert status[2].accumulated_jitter == math.sqrt((3e-9) ** 2 + (4e-9) ** 2)
    assert status[2].accumulated_jitter == 5e-9
    _ok(7, "clock tree invariant under 100 control ops; RMS example exactly 5 ns")


def test_criterion_8_ledger_safety_and_inverses():
    star = build_topology(Star(leaves=(NodeKind.RRH, NodeKind.RRH, NodeKind.RRH, NodeKind.BBU)))
    rng = random.Random(8)
    for _ in range(60):
        controller = Controller(star)
        initial = controller.ledger.snapshot()
        live = []
        for _ in range(rng.randint(1, 14)):
            if live and rng.random() < 0.45:
                controller.teardown(live.pop(rng.randrange(len(live))))
            else:
                try:
                    live.append(
                        controller.setup(
                            SessionRequest(
                                pattern=LogicalPattern(PointToPoint(rng.choice([1, 2, 3]), 4)),
                                mean_rate=1e8,
                                peak_rate=rng.choice([1e9, 2e9, 4e9]),
                                latency_class=2,
                                latency_bound=1.0,
                            )
                        )
                    )
                except Infeasible:
                    pass
            for key in controller.ledger.link_keys():
                assert controller.ledger.residual(key) >= 0  # after every operation
        for session in live:
            controller.teardown(session)
        assert controller.ledger.snapshot() == initial  # bit-exact restoration

    # ring failure: every session survives on the redundant path
    ring = build_topology(
        Ring(n_switches=4, attachments=((0, NodeKind.RRH), (2, NodeKind.BBU)))
    )
    ring_controller = Controller(ring)
    sessions = [
        ring_controller.setup(
            SessionRequest(
                pattern=LogicalPattern(PointToPoint(4, 5)),
                mean_rate=1e8,
                peak_rate=1e9,
                latency_class=1,
                latency_bound=1.0,
            )
        )
        for _ in range(3)
    ]
    used = {key for s in sessions for key in s.debits if key[0] < 4 and key[1] < 4}
    outcomes = ring_controller.reroute_on_failure(next(iter(used)))
    assert set(outcomes.values()) == {"rerouted"}
    assert all(s.state == "active" for s in sessions)

    # star leaf failure: exactly the attached sessions are victims
    star_controller = Controller(star)
    doomed = star_controller.setup(
        SessionRequest(
            pattern=LogicalPattern(PointToPoint(1, 4)),
            mean_rate=1e8,
            peak_rate=1e9,
            latency_class=1,
            latency_bound=1.0,
        ),
        name="doomed",
    )
    safe = star_controller.setup(
        SessionRequest(
            pattern=LogicalPattern(PointToPoint(2, 4)),
            mean_rate=1e8,
            peak_rate=1e9,
            latency_class=1,
            latency_bound=1.0,
        ),
        name="safe",
    )
    outcomes = star_controller.reroute_on_failure((0, 1))
    assert outcomes == {"doomed": "victim"}
    assert doomed.state == "torn_down" and safe.state == "active"
    _ok(8, "ledger non-negative and bit-exact inverses; reroute semantics on ring and star")


def test_criterion_9_scenario_determinism(tmp_path):
    for name in bundled_scenario_names():
        scenario = _bundled(name)
        dir_a = tmp_path / name / "a"
        dir_b = tmp_path / name / "b"
        assert run_scenario(scenario, str(dir_a)) == 0, name
        assert run_scenario(scenario, str(dir_b)) == 0, name
        files_a = sorted(p.name for p in dir_a.iterdir())
        files_b = sorted(p.name for p in dir_b.iterdir())
        assert files_a == files_b, name
        for child in files_a:
            assert (dir_a / child).read_bytes() == (dir_b / child).read_bytes(), (name, child)
    _ok(9, "all five bundled scenarios byte-identical across repeated runs")
