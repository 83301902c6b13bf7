"""The README's examples run as written, so they cannot drift from the code."""

import os
import re
from pathlib import Path

from fhsim.scenario import parse_scenario, run_scenario
from fhsim.traffic import CellConfig, ClassicalIQ, peak_rate

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(section: str, language: str) -> str:
    """The first fenced `language` block under the `## section` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"^```{language}\n(.*?)^```$", body, re.S | re.M)
    assert match, f"no {language} block under {section}"
    return match.group(1)


def test_scenario_format_example_runs(tmp_path):
    scenario = parse_scenario(code_block("Scenario format", "ini"))
    assert run_scenario(scenario, str(tmp_path)) == 0
    tables = sorted(name.removesuffix(".csv") for name in os.listdir(tmp_path))
    assert tables == ["control_log", "global", "links", "sessions", "sync", "trace_rrh1"]


def test_library_use_example_runs():
    names: dict = {}
    exec(code_block("Library use", "python"), names)
    assert peak_rate(ClassicalIQ(), CellConfig()) == 9.8304e9
    assert names["session"].state == "active"
    assert names["session"].id in names["controller"].sessions
