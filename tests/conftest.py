import pytest

from fhsim.cli import bundled_scenario_names, load_scenario_text
from fhsim.engine import run
from fhsim.metrics import assemble_report
from fhsim.scenario import build_scenario, parse_scenario


@pytest.fixture(scope="session")
def bundled_runs():
    """One engine run per bundled scenario, shared across test modules.

    Maps scenario name to (scenario, built, result, report).
    """
    runs = {}
    for name in bundled_scenario_names():
        text, _ = load_scenario_text(name)
        scenario = parse_scenario(text, name=name)
        built = build_scenario(scenario)
        result = run(built.world, scenario.engine.horizon)
        report = assemble_report(result, built.bounds)
        runs[name] = (scenario, built, result, report)
    return runs
