import os

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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"the test left a child process behind ({f'pid {pid}, exited' if pid else 'still running'})")
