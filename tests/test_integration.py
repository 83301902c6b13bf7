"""Cross-module checks on the bundled scenarios: each session's packets
must load exactly the hops of its installed circuits, admitted sessions
must hold their latency bounds in the actual packet runs, and the
scenario narratives (infeasible classical aggregation, periodic vs
bursty decoupled cells) must come out of the data, not just the
comments."""

import statistics
from dataclasses import replace

from fhsim.engine import run


def test_every_session_loads_exactly_its_installed_hops(bundled_runs):
    # Each session runs alone, so a port it sends on is busy in the run's
    # per-port figures, and a port no circuit of it crosses stays idle.
    for name, (scenario, built, result, report) in bundled_runs.items():
        world = built.world
        for sid, session in built.controller.sessions.items():
            alone = replace(
                world,
                circuits=[feed for feed in world.circuits if feed.session_id == sid],
                egress={key: bound for key, bound in world.egress.items() if bound[0] == sid},
            )
            res = run(alone, scenario.engine.horizon)
            hops = {hop for c in session.circuits for hop in zip(c.nodes, c.nodes[1:])}
            busy = {(p.src, p.dst) for p in res.ports if p.utilization > 0}
            assert busy == hops, (name, sid)
            for c in session.circuits:
                assert res.sessions[sid].circuits[c.circuit_id].delivered > 0, (name, sid, c.circuit_id)


def test_admitted_sessions_hold_their_bounds(bundled_runs):
    for name, (scenario, built, result, report) in bundled_runs.items():
        for record in report.sessions:
            assert record.bound_violations == 0, (name, record.session_id)
            assert record.out_of_order == 0, (name, record.session_id)


def test_no_unroutable_drops_anywhere(bundled_runs):
    for name, (scenario, built, result, report) in bundled_runs.items():
        assert result.total().dropped_unroutable == 0, name


def test_cran_aggregation_narrative(bundled_runs):
    scenario, built, result, report = bundled_runs["cran-aggregation"]
    assert built.infeasible == [("agg-classical", "no-bandwidth")]
    mod = report.session("agg-mod")
    assert mod.delivered > 0
    # trunk demand of the admitted aggregate stays two orders below classical
    assert built.controller.ledger.reserved((0, 4)) <= 3 * 2.5e8


def test_cd_decoupling_narrative(bundled_runs):
    scenario, built, result, report = bundled_runs["cd-decoupling"]
    cbs = built.traces["cbs1"]
    dbs = built.traces["dbs1"]
    # control cell: control floor every subframe, so never silent and with
    # low spread; data cell: bursty, idle whole subframes
    assert min(cbs.volumes) > 0
    assert min(dbs.volumes) == 0
    cbs_cv = statistics.pstdev(cbs.volumes) / statistics.fmean(cbs.volumes)
    dbs_cv = statistics.pstdev(dbs.volumes) / statistics.fmean(dbs.volumes)
    assert cbs_cv < dbs_cv
    # PRACH gives the control trace its period
    spikes = {i for i, v in enumerate(cbs.volumes) if v >= 800 * 60}
    assert {i for i in range(400) if i % 10 == 0} <= spikes


def test_device_centric_narrative(bundled_runs):
    scenario, built, result, report = bundled_runs["device-centric"]
    joint = report.session("ue7-joint")
    assert joint.replicated == joint.injected  # one branch point, two leaves
    assert joint.delivered == joint.injected + joint.replicated
    session = built.controller.sessions["ue7-joint"]
    assert session.request.pattern.granularity == "ue"
    assert len({c.egress for c in session.circuits}) == 2


def test_ring_exchange_narrative(bundled_runs):
    scenario, built, result, report = bundled_runs["ring-bbu-exchange"]
    x2 = built.controller.sessions["x2-exchange"]
    # a BBU-to-BBU circuit rides the ring between the two cluster switches
    assert x2.circuits[0].nodes[0] == built.node_id["bbu0"]
    assert x2.circuits[0].nodes[-1] == built.node_id["bbu1"]
    assert report.session("x2-exchange").delivered > 0
