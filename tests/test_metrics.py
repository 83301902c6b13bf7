import pytest

from fhsim.engine import CircuitFeed, RegulatorPolicy, World, run
from fhsim.metrics import (
    assemble_report,
    efficiency,
    measured_efficiency,
    overhead_sweep,
    percentile,
    write_report_csvs,
    write_sweep_csv,
)
from fhsim.topology import Node, NodeKind, PhysLink, PhysicalTopology


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
        lat = sorted(result.sessions["s"].latencies)
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
