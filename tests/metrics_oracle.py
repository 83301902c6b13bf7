"""List-based latency figures: what `fhsim.metrics` computed when a run kept one float per packet.

Each function takes every sample in one list, sorts it and reads the
figures off by index, so it is slow on memory but plainly right. The
counts-based code must give the same figures, the mean bit for bit.
"""

import math
from bisect import bisect_right


def _nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of empty list")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    return _nearest_rank(sorted(values), pct)


def session_latency(latencies: list[float], bound: float | None) -> tuple[float, ...]:
    """(min, mean, p50, p99, max) latency in s, then the samples above the bound; all 0 when none."""
    ordered = sorted(latencies)
    latency = (0.0,) * 5
    if ordered:
        mean = sum(ordered) / len(ordered)
        latency = (ordered[0], mean, _nearest_rank(ordered, 50), _nearest_rank(ordered, 99), ordered[-1])
    violations = len(ordered) - bisect_right(ordered, bound) if bound is not None else 0
    return (*latency, violations)


def sweep_p99_ns(sessions: list[list[float]]) -> int:
    """A sweep row's p99 in ns, across every session's samples."""
    latencies = [v for samples in sessions for v in samples]
    return round(_nearest_rank(sorted(latencies), 99) * 1e9) if latencies else 0
