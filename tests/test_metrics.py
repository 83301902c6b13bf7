from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import fhsim.metrics
from fhsim.engine import CircuitFeed, Latencies, RegulatorPolicy, RunResult, SessionRunStats, World, run
from fhsim.metrics import (
    SessionRecord,
    _session_latency,
    assemble_report,
    efficiency,
    measured_efficiency,
    overhead_sweep,
    write_report_csvs,
    write_sweep_csv,
)
from fhsim.topology import Node, NodeKind, PhysLink, PhysicalTopology
from metrics_oracle import percentile, session_latency, sweep_p99_ns


class TestEfficiency:
    def test_thousand_byte_payload(self):
        assert efficiency(1000, 8) == 1000 / 1008

    def test_symmetric_point(self):
        assert efficiency(8, 8) == 0.5

    def test_monotone_toward_one(self):
        values = [efficiency(size) for size in (8, 64, 512, 4096, 65535)]
        assert values == sorted(values)
        assert values[-1] > 0.999

    def test_rejects_empty_payload(self):
        with pytest.raises(ValueError):
            efficiency(0)


class TestPercentile:
    def test_hand_computed_three_values(self):
        values = [30.0, 10.0, 20.0]
        assert percentile(values, 50) == 20.0  # ceil(0.5 * 3) = 2nd smallest
        assert percentile(values, 99) == 30.0
        assert percentile(values, 100) == 30.0
        assert percentile(values, 1) == 10.0

    def test_nearest_rank_no_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 75) == 3.0
        assert percentile(values, 76) == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)


def cbr_world(frame=1000, volumes=None, capacity=1e9):
    nodes = [Node(0, NodeKind.RRH, 1), Node(1, NodeKind.BBU, 1)]
    topo = PhysicalTopology(nodes, [PhysLink(0, 0, 1, 0, capacity, 1e-6)])
    feed = CircuitFeed(
        "s",
        0,
        0,
        0,
        5,
        0,
        RegulatorPolicy(max_frame_bytes=frame, frame_timeout=1e-3),
        volumes if volumes is not None else [80000.0] * 20,
        1e-3,
    )
    return World(topo, {}, [feed], {(1, 0, 5): ("s", 0)})


class TestAssembleReport:
    def test_full_frame_flow_matches_analytic_efficiency(self):
        result = run(cbr_world(frame=1000), horizon=0.1)
        assert abs(measured_efficiency(result) - 1000 / 1008) < 1e-9

    def test_violations_counted_against_bound(self):
        result = run(cbr_world(), horizon=0.1)
        tight = assemble_report(result, {"s": 1e-9})
        assert tight.session("s").bound_violations == tight.session("s").delivered
        loose = assemble_report(result, {"s": 1.0})
        assert loose.session("s").bound_violations == 0

    def test_single_packet_within_bound(self):
        result = run(cbr_world(volumes=[8000.0]), horizon=0.1)
        report = assemble_report(result, {"s": 1e-3})
        record = report.session("s")
        assert record.delivered == 1
        assert record.bound_violations == 0
        assert record.min_ns == record.p50_ns == record.p99_ns == record.max_ns

    def test_percentiles_match_hand_computation(self):
        # three packets back to back: latencies l, l+t, l+2t with t = serialization
        result = run(cbr_world(volumes=[24000.0]), horizon=0.1)
        lat = list(result.sessions["s"].latencies)  # ascending
        report = assemble_report(result)
        record = report.session("s")
        assert record.p50_ns == round(lat[1] * 1e9)
        assert record.p99_ns == round(lat[2] * 1e9)
        assert record.min_ns == round(lat[0] * 1e9)

    def test_report_totals(self):
        result = run(cbr_world(), horizon=0.1)
        report = assemble_report(result)
        delivered = report.session("s").delivered
        assert report.total_bits_carried == delivered * 1008 * 8
        assert report.total_bits_offered == report.session("s").injected * 1008 * 8
        assert 0 < report.header_overhead_ratio < 0.01

    def test_report_internal_invariants(self):
        result = run(cbr_world(), horizon=0.1)
        report = assemble_report(result, {"s": 2e-5})
        for record in report.sessions:
            assert record.p50_ns <= record.p99_ns <= record.max_ns
            assert record.bound_violations <= record.delivered
        for link in report.links:
            assert 0.0 <= link.utilization <= 1.0


class TestOverheadSweep:
    def test_efficiency_strictly_increases_with_frame_size(self):
        world = cbr_world()
        rows = overhead_sweep(world, [64, 512, 4096], horizon=0.05)
        effs = [eff for _, eff, _ in rows]
        assert effs[0] < effs[1] < effs[2]

    def test_single_size_single_row(self):
        rows = overhead_sweep(cbr_world(), [256], horizon=0.02)
        assert len(rows) == 1
        assert rows[0][0] == 256

    def test_full_frames_match_analytic_within_1e9(self):
        # 80,000 bits per subframe divide exactly into each frame size
        for size in (625, 1250, 2500):
            rows = overhead_sweep(cbr_world(), [size], horizon=0.05)
            assert abs(rows[0][1] - size / (size + 8)) < 1e-9

    def test_measured_never_exceeds_analytic_at_max_frame(self):
        # volumes that leave timeout remainders: efficiency strictly below L/(L+H)
        world = cbr_world(volumes=[8100.0] * 10)
        rows = overhead_sweep(world, [1000], horizon=0.1)
        assert rows[0][1] <= 1000 / 1008

    def test_rejects_sizes_below_header(self):
        with pytest.raises(ValueError):
            overhead_sweep(cbr_world(), [4], horizon=0.01)

    @pytest.mark.parametrize(
        "bad, message",
        [(4, "frame size 4 below header length"), (70000, r"max_frame_bytes must be in 1\.\.65535, got 70000")],
    )
    def test_checks_every_size_before_the_first_rerun(self, monkeypatch, bad, message):
        reruns = []
        monkeypatch.setattr(fhsim.metrics, "run", lambda world, horizon: reruns.append(world))
        with pytest.raises(ValueError, match=message):
            overhead_sweep(cbr_world(), [512, 1000, bad], horizon=0.01)
        assert reruns == []

    def test_sweep_leaves_template_reusable(self):
        world = cbr_world()
        first = overhead_sweep(world, [512], horizon=0.05)
        second = overhead_sweep(world, [512], horizon=0.05)
        assert first == second


def test_csv_exports(tmp_path):
    result = run(cbr_world(), horizon=0.05)
    report = assemble_report(result, {"s": 1e-3})
    write_report_csvs(report, str(tmp_path))
    sessions = (tmp_path / "sessions.csv").read_text().splitlines()
    assert sessions[0].startswith("session_id,injected,replicated,delivered")
    assert sessions[1].split(",")[0] == "s"
    links = (tmp_path / "links.csv").read_text().splitlines()
    assert links[0] == "link,utilization,peak_queue_bytes"
    assert len(links) == 3  # both directions of the single link
    rows = overhead_sweep(cbr_world(), [64, 128], horizon=0.02)
    write_sweep_csv(rows, str(tmp_path / "sweep.csv"))
    sweep = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "frame_size,efficiency,p99_ns"
    assert len(sweep) == 3


# A few values make heavy duplicates; 0.1 + 0.2 and 0.3 are neighbouring
# floats, so a sum in another order would round differently.
_POOL = [1e-9, 1e-6, 2e-6, 5e-6, 0.1 + 0.2, 0.3]
_samples = st.one_of(st.sampled_from(_POOL), st.floats(0.0, 1e-2))


@st.composite
def latency_lists(draw):
    """n samples: a few values, each repeated, so equal samples are common."""
    # 1, 100 and 101 are the nearest-rank edges: p99 is rank 1, 99 and 100
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 99, 100, 101, 200, 201]), st.integers(0, 300)))
    if n == 0:
        return []
    values = draw(st.lists(_samples, min_size=1, max_size=min(n, 12)))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=len(values) - 1, max_size=len(values) - 1)))
    repeats = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return [v for v, c in zip(values, repeats) for _ in range(c)]


_latency_lists = st.one_of(st.lists(_samples, max_size=30), latency_lists())


@st.composite
def sessions_of_samples(draw):
    """Session id -> samples, and a latency bound for some: None, a sample, or any value."""
    sessions = draw(st.dictionaries(st.sampled_from(["a", "b", "c"]), _latency_lists, max_size=3))
    bounds = {}
    for sid, values in sessions.items():
        choices = [st.none(), st.floats(0.0, 1e-2)] + ([st.sampled_from(values)] if values else [])
        bound = draw(st.one_of(*choices))
        if bound is not None:
            bounds[sid] = bound
    return sessions, bounds


def counted_result(sessions: dict[str, list[float]]) -> RunResult:
    """A finished run whose sessions delivered exactly these latencies."""
    stats = {}
    for sid, values in sessions.items():
        stats[sid] = SessionRunStats(latencies=Latencies(dict(Counter(values))))
        circuit = stats[sid].circuit(0)
        circuit.injected = circuit.delivered = len(values)
    return RunResult(1.0, stats, [], 0, {}, {})


class TestCountsGiveTheListBasedFigures:
    @given(_latency_lists, st.one_of(st.none(), st.sampled_from(_POOL), st.floats(0.0, 1e-2)))
    @example([5e-6], 5e-6)  # n = 1, bound equal to the sample: no violation
    @example([1e-6] * 99 + [2e-6], None)  # n = 100: p99 is rank 99
    @example([1e-6] * 100 + [2e-6], 1e-6)  # n = 101: p99 is rank 100
    @example([0.1 + 0.2] * 7 + [0.3] * 5 + [1e-9] * 3, 0.3)
    @settings(max_examples=300, deadline=None)
    def test_session_figures_equal_bit_for_bit(self, values, bound):
        assert _session_latency(Latencies(dict(Counter(values))), bound) == session_latency(values, bound)

    @given(sessions_of_samples())
    @settings(max_examples=200, deadline=None)
    def test_session_records_equal(self, case):
        sessions, bounds = case
        report = assemble_report(counted_result(sessions), bounds)
        want = []
        for sid in sorted(sessions):
            values = sessions[sid]
            *latency, violations = session_latency(values, bounds.get(sid))
            n = len(values)
            ns = [round(v * 1e9) for v in latency]
            want.append(SessionRecord(sid, n, 0, n, 0, 0, 0, 0, *ns, violations))
        assert report.sessions == want

    @given(st.lists(sessions_of_samples(), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_sweep_rows_equal(self, cases):
        results = [counted_result(sessions) for sessions, _ in cases]
        sizes = [64 * (i + 1) for i in range(len(cases))]
        # keyed by frame size, not call order: the reruns may run in forked children
        reruns = dict(zip(sizes, results))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fhsim.metrics, "run", lambda world, horizon: reruns[world.circuits[0].policy.max_frame_bytes])
            rows = overhead_sweep(cbr_world(), sizes, horizon=0.01)
        want = [
            (size, measured_efficiency(result), sweep_p99_ns(list(sessions.values())))
            for size, result, (sessions, _) in zip(sizes, results, cases)
        ]
        assert rows == want


def test_latency_tiers_holds_counts_not_samples(bundled_runs):
    _, _, result, _ = bundled_runs["latency-tiers"]
    for stats in result.sessions.values():
        delivered = stats.totals().delivered
        assert delivered > 0
        assert len(stats.latencies.counts) <= 0.02 * delivered
        assert len(stats.latencies) == delivered
