"""Command-line entry point: run a scenario file and write report tables.

Exit status: 0 on success, 1 when a mandatory session is infeasible,
2 on bad input, reported on one stderr line before any output file is
written: a ScenarioError (a bad line, a file that is not UTF-8, a bad
seed, subframes or sweep value) after the scenario reference, an
OSError with the path it names. argparse refuses an option value that
is not an integer (or integer list) itself, also with status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from .scenario import ScenarioError, parse_scenario, run_scenario


def bundled_scenario_names() -> list[str]:
    files = resources.files("fhsim").joinpath("scenarios")
    return sorted(p.name[: -len(".scn")] for p in files.iterdir() if p.name.endswith(".scn"))


def load_scenario_text(ref: str) -> tuple[str, str]:
    """Resolve a path or bundled scenario name to (text, name); a file that is not UTF-8 fails at line 0."""
    try:
        if os.path.exists(ref):
            with open(ref, encoding="utf-8") as fh:
                return fh.read(), os.path.splitext(os.path.basename(ref))[0]
        bundled = resources.files("fhsim").joinpath("scenarios", f"{ref}.scn")
        if bundled.is_file():
            return bundled.read_text(encoding="utf-8"), ref
    except UnicodeDecodeError as exc:
        raise ScenarioError(0, f"not UTF-8 text: {exc}") from exc
    raise FileNotFoundError(
        f"no such scenario file or bundled name: {ref!r} "
        f"(bundled: {', '.join(bundled_scenario_names())})"
    )


def frame_sizes(text: str) -> list[int]:
    """A comma-separated list of frame sizes in bytes."""
    return [int(size) for size in text.split(",") if size]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fhsim",
        description="Simulate a packet-switched fronthaul scenario and write CSV reports.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help="scenario file path, or the name of a bundled scenario",
    )
    parser.add_argument("--out", default="fhsim-out", help="output directory (default: fhsim-out)")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--subframes", type=int, default=None, help="override the trace length in subframes"
    )
    parser.add_argument(
        "--sweep",
        type=frame_sizes,
        default=None,
        help="comma-separated frame sizes: rerun per size and write sweep.csv",
    )
    parser.add_argument(
        "--list", action="store_true", help="list bundled scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in bundled_scenario_names():
            print(name)
        return 0
    if not args.scenario:
        parser.print_usage()
        return 2

    try:
        text, name = load_scenario_text(args.scenario)
        scenario = parse_scenario(text, name=name)
        return run_scenario(scenario, args.out, seed=args.seed, subframes=args.subframes, sweep=args.sweep)
    except ScenarioError as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # names the path it could not read, create or write
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
