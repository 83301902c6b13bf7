"""Spans recorded from outside fhsim, by wrapping its public functions.

A traced pass replaces selected functions and methods of the package
with timing wrappers, at the attribute the package itself looks them up
through (for example `fhsim.scenario.run`, the name `run_scenario` calls),
and restores the originals afterwards. Nothing in `src/` changes.

Two kinds of wrapper exist:

* a *span* records (name, start, end, parent) for every call;
* a *leaf* is for functions called hundreds of thousands of times per
  pass (the packet header check, ledger reads). It keeps one
  (count, total seconds) aggregate per (name, parent span) instead of a
  record per call, so the trace stays small. A leaf calls no traced code.

A layer is the module a traced name belongs to: the part before the
first dot. A span's self time is its duration minus the durations of its
direct child spans and of the leaf aggregates attached to it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("scenario", "traffic", "topology", "sync", "control", "engine", "packet", "metrics")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span store for one workload; install() wraps, remove() restores."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple | None] = []  # index = span id; (name, start, end, parent)
        self.leaves: dict[tuple[str, int | None], list] = {}  # (name, parent) -> [count, total_s]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: drop recorded spans, leaves and counters."""
        self.spans.clear()
        self.leaves.clear()
        self.counters.clear()
        self._stack.clear()

    def span(self, name: str, fn, observe=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        leaves, stack = self.leaves, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (name, stack[-1] if stack else None)
                acc = leaves.get(key)
                if acc is None:
                    leaves[key] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, targets) -> None:
        """targets: (owner, attribute, traced name, kind, observe) tuples."""
        for owner, attr, name, kind, observe in targets:
            original = owner.__dict__[attr]
            if kind == "leaf":
                self.patch(owner, attr, self.leaf(name, original))
            else:
                self.patch(owner, attr, self.span(name, original, observe))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def records(self, pass_no: int, origin: float):
        """JSON-ready span and leaf records of the current pass."""
        for sid, (name, start, end, parent) in enumerate(self.spans):
            yield {
                "workload": self.workload,
                "pass": pass_no,
                "id": sid,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
            }
        for (name, parent), (count, total) in self.leaves.items():
            yield {
                "workload": self.workload,
                "pass": pass_no,
                "name": name,
                "parent": parent,
                "count": count,
                "total_s": total,
            }


def self_times(spans, leaves) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per traced name: (self seconds, inclusive seconds, calls).

    spans: list of (name, start, end, parent index or None).
    leaves: {(name, parent index or None): (count, total seconds)}.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, parent), (count, total) in leaves.items():
        if parent is not None:
            child[parent] += total
        self_s[name] += total
        incl_s[name] += total
        calls[name] += count
    for sid, (name, start, end, parent) in enumerate(spans):
        self_s[name] += end - start - child[sid]
        incl_s[name] += end - start
        calls[name] += 1
    return dict(self_s), dict(incl_s), dict(calls)


def write_jsonl(path: str, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
