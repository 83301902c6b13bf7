"""Tests of the benchmark itself (not of fhsim).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# -- inputs are a function of the seed --------------------------------------


def test_cells_text_is_deterministic_per_seed():
    assert workloads.cells_text(7) == workloads.cells_text(7)
    assert workloads.cells_text(7) != workloads.cells_text(8)


def test_cells_text_parses_with_the_promised_shape():
    scenario = workloads.prepare_cells(3)
    import fhsim.scenario

    parsed = fhsim.scenario.parse_scenario(scenario.text)
    assert len(parsed.cells) == 12
    assert sum(c.ues.count for c in parsed.cells) == 576
    assert {s.pattern for s in parsed.sessions} == {"p2p", "multi_bbu"}
    assert parsed.engine.scheduler == "wrr" and parsed.engine.subframes == 2000


def test_ctrl_inputs_are_deterministic_per_seed():
    a, b, c = workloads.prepare_ctrl(5), workloads.prepare_ctrl(5), workloads.prepare_ctrl(6)
    assert a.grow == b.grow and a.churn == b.churn
    assert a.grow != c.grow
    assert len(a.grow) == workloads.CTRL_GROW and len(a.churn) == workloads.CTRL_CHURN


def test_tiers_inputs_are_the_bundled_scenario():
    inputs = workloads.prepare_tiers(9)
    assert inputs.name == "latency-tiers" and inputs.seed == 9


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_direct_children_and_leaves():
    spans = [
        ("scenario.run_scenario", 0.0, 10.0, None),  # 0
        ("engine.run", 1.0, 7.0, 0),  # 1
        ("metrics.assemble_report", 7.5, 8.0, 0),  # 2
        ("control.setup", 8.0, 9.0, 0),  # 3
        ("control.compute_path", 8.2, 8.8, 3),  # 4
    ]
    leaves = {("packet.header_check", 1): (1000, 2.0), ("control.ledger_residual", 4): (50, 0.25)}
    self_s, incl_s, calls = tracing.self_times(spans, leaves)
    assert self_s["scenario.run_scenario"] == pytest.approx(10.0 - 6.0 - 0.5 - 1.0)
    assert self_s["engine.run"] == pytest.approx(6.0 - 2.0)
    assert self_s["control.setup"] == pytest.approx(1.0 - 0.6)
    assert self_s["control.compute_path"] == pytest.approx(0.6 - 0.25)
    assert self_s["packet.header_check"] == pytest.approx(2.0)
    assert incl_s["engine.run"] == pytest.approx(6.0)
    assert calls["packet.header_check"] == 1000 and calls["control.setup"] == 1
    # self times partition the root span
    assert sum(self_s.values()) == pytest.approx(10.0)


class _Toy:
    def outer(self):
        self.inner()
        self.inner()
        return self.hot()

    def inner(self):
        for _ in range(20):
            self.hot()

    def hot(self):
        return sum(range(200))


def test_tracer_wraps_restores_and_partitions_the_root():
    original = _Toy.__dict__["inner"]
    tracer = tracing.Tracer("toy")
    tracer.install([
        (_Toy, "outer", "scenario.outer", "span", None),
        (_Toy, "inner", "engine.inner", "span", None),
        (_Toy, "hot", "packet.hot", "leaf", None),
    ])
    try:
        _Toy().outer()
    finally:
        tracer.remove()
    assert _Toy.__dict__["inner"] is original
    self_s, incl_s, calls = tracing.self_times(tracer.spans, tracer.leaves)
    assert calls == {"scenario.outer": 1, "engine.inner": 2, "packet.hot": 41}
    assert sum(self_s.values()) == pytest.approx(incl_s["scenario.outer"])
    assert all(v >= 0 for v in self_s.values())
    assert {r["name"] for r in tracer.records(1, 0.0)} == set(calls)


# -- the correctness gate -----------------------------------------------------


def _sessions_csv(path, injected=10, delivered=10, in_flight=0):
    with open(path, "w") as fh:
        fh.write("session_id,injected,replicated,delivered,dropped_unroutable,"
                 "dropped_overflow,in_flight\n")
        fh.write(f"a,{injected},0,{delivered},0,0,{in_flight}\n")


def test_conservation_check_flags_a_tampered_table(tmp_path):
    good = tmp_path / "good.csv"
    _sessions_csv(good)
    assert workloads.check_conservation(str(good)) == (10, [])
    bad = tmp_path / "bad.csv"
    _sessions_csv(bad, delivered=9)
    delivered, problems = workloads.check_conservation(str(bad))
    assert delivered == 9 and len(problems) == 1


def _fake_workload(corrupt_on):
    """A workload writing one file; the pass numbered `corrupt_on` writes it wrong."""
    state = {"pass": 0}

    def run_pass(inputs, out_dir):
        state["pass"] += 1
        path = os.path.join(out_dir, "out.csv")
        with open(path, "w") as fh:
            fh.write("x\n1\n" if state["pass"] != corrupt_on else "x\n2\n")
        start = perf_counter()
        return workloads.PassResult(
            wall_s=perf_counter() - start + 1e-9, work=1, attempted=1,
            digests={"out.csv": workloads.sha256_file(path)},
        )

    return workloads.Workload(lambda seed: None, run_pass)


@pytest.fixture
def fake_runner(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "OUT", str(tmp_path))

    def make(corrupt_on, recorded=None):
        monkeypatch.setitem(workloads.WORKLOADS, "fake", _fake_workload(corrupt_on))
        monkeypatch.setattr(workloads, "expected_digests", lambda name, seed: recorded)
        return worker.Runner("fake", 1)

    return make


def test_corrupted_output_counts_as_a_failed_operation(fake_runner):
    runner = fake_runner(corrupt_on=3)
    for _ in range(4):
        assert runner.one_pass() is not None
    assert (runner.attempted, runner.failed) == (4, 1)
    assert runner.problems == ["out.csv: digest mismatch"]


def test_recorded_digest_mismatch_fails_every_pass(fake_runner):
    runner = fake_runner(corrupt_on=0, recorded={"out.csv": "0" * 64})
    runner.one_pass()
    runner.one_pass()
    assert (runner.attempted, runner.failed) == (2, 2)


def test_exception_in_a_pass_is_a_failed_operation(fake_runner, monkeypatch):
    runner = fake_runner(corrupt_on=0)

    def boom(inputs, out_dir):
        raise RuntimeError("engine crashed")

    monkeypatch.setattr(runner, "workload", workloads.Workload(None, boom))
    assert runner.one_pass() is None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_small_ctrl_pass_drains_to_an_empty_ledger(tmp_path):
    inputs = workloads.prepare_ctrl(2)
    inputs.grow, inputs.churn = inputs.grow[:300], inputs.churn[:60]
    first = workloads.ctrl_pass(inputs, str(tmp_path))
    second = workloads.ctrl_pass(inputs, str(tmp_path))
    assert first.problems == [] and first.digests == second.digests
    assert set(first.digests) == {"ledger_grow", "ledger_cut", "ledger_churn", "control_log.csv"}
    assert len(first.phases["setup"]) == 300 and len(first.phases["churn"]) == 60


def test_every_per_layer_metric_is_reported():
    tracer = tracing.Tracer("empty")
    metrics = layers.pass_metrics(tracer, workloads.PassResult(wall_s=1.0, work=0, attempted=1))
    summary = layers.summarize(
        [workloads.PassResult(wall_s=1.0, work=0, attempted=1)],
        [(workloads.PassResult(wall_s=1.1, work=0, attempted=1), metrics)],
    )
    assert set(summary) == set(run.declared("per_layer"))
    assert summary["trace.overhead_share"] == pytest.approx(0.1)
    assert list(run.with_units(summary, "per_layer")) == list(run.declared("per_layer"))


def test_undeclared_or_missing_metric_is_an_error():
    values = dict.fromkeys(run.declared("end_to_end"), 1.0)
    assert run.with_units(values, "end_to_end")["setup_s"] == {"value": 1.0, "unit": "s"}
    with pytest.raises(run.WorkerError):
        run.with_units({**values, "extra": 1.0}, "end_to_end")
    del values["setup_s"]
    with pytest.raises(run.WorkerError):
        run.with_units(values, "end_to_end")


def test_end_to_end_times_are_rescaled_by_the_speed_factor():
    # kernel at twice REF_S around set-up and every pass: the machine ran at half speed
    kernel = [2 * run.REF_S] * 4
    metrics = run.end_to_end([[2.0, 100], None, [4.0, 100]], kernel, [0.3, 0.2, 0.4], 30.0)
    assert metrics == {"pass_s": pytest.approx(1.5), "work_per_s": pytest.approx(75.0),
                       "setup_s": pytest.approx(0.15), "peak_rss_mb": 30.0}
    assert run.calibration_kernel() > 0
