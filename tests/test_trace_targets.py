"""Every name a traced benchmark pass wraps still exists in fhsim, and a traced pass runs.

`perfbench/layers.py` lists the (owner, attribute) pairs a traced pass
replaces through `owner.__dict__[attr]`. Removing or renaming one of
them in fhsim breaks traced benchmark runs and nothing else, so this
installs the real target list on the real package and removes it again,
and runs one traced scenario pass through it.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import fhsim.scenario  # noqa: E402
from fhsim.cli import load_scenario_text  # noqa: E402


def test_traced_targets_install_record_and_restore():
    targets = layers.targets()
    originals = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, *_ in targets]
    assert [f"{owner.__name__}.{attr}" for owner, attr, fn in originals if fn is None] == []
    tracer = tracing.Tracer("targets")
    try:
        tracer.install(targets)
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        fhsim.scenario.parse_scenario(load_scenario_text("latency-tiers")[0])
        assert [span[0] for span in tracer.spans] == ["scenario.parse_scenario"]
    finally:
        tracer.remove()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_scenario_pass_observes_every_field_it_reads(tmp_path):
    # the observers read run results (circuit counters, latency samples,
    # wire bits, residual packets), so a field they need that fhsim drops
    # fails here rather than in a traced benchmark run
    tracer = tracing.Tracer("targets")
    text, name = load_scenario_text("device-centric")
    try:
        tracer.install(layers.targets())
        result = workloads.scenario_pass(workloads.ScenarioInputs(name, text, seed=1), str(tmp_path))
    finally:
        tracer.remove()
    assert result.problems == []
    assert layers.trace_problems(tracer) == []
    assert tracer.counters["engine.pkts_delivered"] > 0
    assert tracer.counters["metrics.latency_samples"] > 0
