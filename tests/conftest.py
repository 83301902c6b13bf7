import os

import pytest

import fhsim.fanout
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


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count `fhsim.fanout` sees."""

    def force(n: int) -> None:
        monkeypatch.setattr(fhsim.fanout, "usable_cpus", lambda: n)

    return force


@pytest.fixture
def forks(monkeypatch):
    """The forks made from now on, one entry each."""
    made = []
    real = os.fork

    def counted():
        made.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"the test left a child process behind ({f'pid {pid}, exited' if pid else 'still running'})")


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """Fail a test that leaves a file descriptor open, such as a pipe end of a forked child."""
    if not os.path.isdir("/proc/self/fd"):
        yield  # no way to list this process's descriptors here
        return
    before = set(os.listdir("/proc/self/fd"))
    yield
    left = sorted(set(os.listdir("/proc/self/fd")) - before, key=int)
    if left:
        pytest.fail(f"the test left file descriptors open: {left}")
