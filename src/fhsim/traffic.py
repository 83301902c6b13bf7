"""Fronthaul traffic model for the supported function-splitting schemes.

Volume per subframe depends on where the processing chain is cut:

* classical I/Q: constant, proportional to sampling rate x antennas x
  quantization width, independent of cell load;
* low-pass-filtered I/Q: the classical stream scaled by a filter factor;
* resource-element extraction: only samples on occupied resource
  elements cross the fronthaul, so volume follows cell load;
* modulation bits: information bits before the modulator, roughly two
  orders of magnitude below classical I/Q at full load;
* PDU level: transport-block bits after rate matching (code rate applied).

One seeded row generator, `trace_rows`, makes a multi-subframe trace a
subframe at a time, as its rows are read, and `generate_trace` collects
them. A trace has two-state on/off user activity, a reflected random
walk over the MCS table, round-robin resource-block scheduling, and
periodic control (PDCCH every subframe, PRACH bursts at a fixed
period). The round-robin grants are computed in closed form, per active
user rather than per PRB, and each subframe's volume comes straight
from its grants and MCS entries through the scheme's one volume
formula, picked once per trace.
A trace keeps three per-subframe columns (volume, granted PRBs, control
resource elements); no per-user record is made.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

# Defaults reproduce a 20 MHz, 8 antenna, 15-bit cell whose classical
# stream is exactly 9.8304 Gbps. The 4/3 overhead is the usual control
# word (16/15) times line code (10/8) expansion.
DEFAULT_SAMPLING_RATE = 30.72e6
DEFAULT_OVERHEAD_FACTOR = 4 / 3
DEFAULT_RES_PER_PRB = 168  # 12 subcarriers x 14 symbols per 1 ms subframe

# Control resource elements are carried as robustly modulated symbols.
CONTROL_MODULATION_ORDER = 2

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class CellConfig:
    """Radio configuration of one cell feeding a fronthaul link."""

    sampling_rate: float = DEFAULT_SAMPLING_RATE  # samples/s
    n_antennas: int = 8
    iq_bitwidth: int = 15  # bits per I or Q component
    n_prb: int = 100
    res_per_prb: int = DEFAULT_RES_PER_PRB
    subframe_duration: float = 1e-3  # s
    transport_overhead_factor: float = DEFAULT_OVERHEAD_FACTOR  # >= 1
    compression_factor: float = 1.0  # (0, 1]

    def __post_init__(self) -> None:
        # the float checks are written so that NaN fails them
        if not 0 < self.sampling_rate < math.inf:
            raise ValueError("sampling_rate must be finite and > 0")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if self.iq_bitwidth < 1:
            raise ValueError("iq_bitwidth must be >= 1")
        if self.n_prb < 1:
            raise ValueError("n_prb must be >= 1")
        if self.res_per_prb < 1:
            raise ValueError("res_per_prb must be >= 1")
        if not 0 < self.subframe_duration < math.inf:
            raise ValueError("subframe_duration must be finite and > 0")
        if not 1 <= self.transport_overhead_factor < math.inf:
            raise ValueError("transport_overhead_factor must be finite and >= 1")
        if not 0 < self.compression_factor <= 1:
            raise ValueError("compression_factor must be in (0, 1]")


@dataclass(frozen=True)
class ClassicalIQ:
    """Time-domain I/Q samples for the whole band."""


@dataclass(frozen=True)
class FilteredIQ:
    """Low-pass-filtered I/Q; the guard band is removed before transport."""

    filter_factor: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.filter_factor <= 1:
            raise ValueError("filter_factor must be in (0, 1]")


@dataclass(frozen=True)
class ReExtraction:
    """I/Q samples on occupied resource elements only."""


@dataclass(frozen=True)
class ModulationBits:
    """Information bits at the modulator input, one spatial layer."""

    n_layers: int = 1

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")


@dataclass(frozen=True)
class PduLevel:
    """MAC/L3 PDU bits; code rate optionally applied (transport-block view)."""

    code_rate_applied: bool = True


SplitScheme = Union[ClassicalIQ, FilteredIQ, ReExtraction, ModulationBits, PduLevel]

_SCHEME_NAMES = {
    ClassicalIQ: "classical_iq",
    FilteredIQ: "filtered_iq",
    ReExtraction: "re_extraction",
    ModulationBits: "modulation_bits",
    PduLevel: "pdu_level",
}


def scheme_name(scheme: SplitScheme) -> str:
    return _SCHEME_NAMES[type(scheme)]


class McsEntry(NamedTuple):
    """Modulation and coding point: bits per symbol and code rate."""

    modulation_order: int  # 2 = QPSK, 4 = 16QAM, 6 = 64QAM
    code_rate: float


# Index ordering is worst to best channel; the random walk moves over it.
DEFAULT_MCS_TABLE: tuple[McsEntry, ...] = (
    McsEntry(2, 1 / 3),
    McsEntry(2, 1 / 2),
    McsEntry(4, 1 / 2),
    McsEntry(4, 3 / 4),
    McsEntry(6, 2 / 3),
    McsEntry(6, 5 / 6),
)


@dataclass(frozen=True)
class ControlSchedule:
    """Periodic control overlay: PDCCH every subframe, PRACH bursts."""

    pdcch_res_per_subframe: int = 0
    prach_period: int = 10  # subframes
    prach_res: int = 0

    def __post_init__(self) -> None:
        if self.pdcch_res_per_subframe < 0 or self.prach_res < 0:
            raise ValueError("control resource counts must be >= 0")
        if self.prach_period < 1:
            raise ValueError("prach_period must be >= 1")


@dataclass(frozen=True)
class UeProfile:
    """Stochastic behaviour of a user; users that behave alike may share one.

    Activity is a two-state process with the given mean on/off durations
    (in subframes, math.inf pins the state). The MCS index performs a
    reflected random walk over the table: each subframe it moves one step
    up or down with probability mcs_step_prob. demand_prbs is how many
    resource blocks the user asks for per subframe while active.
    """

    mean_on: float = 40.0
    mean_off: float = 40.0
    demand_prbs: int = 10
    mcs_step_prob: float = 0.3
    mcs_init: int | None = None

    def __post_init__(self) -> None:
        if not (self.mean_on > 0 and self.mean_off > 0):  # NaN fails too
            raise ValueError("mean on/off durations must be > 0")
        if self.demand_prbs < 1:
            raise ValueError("demand_prbs must be >= 1")
        if not 0 <= self.mcs_step_prob <= 1:
            raise ValueError("mcs_step_prob must be in [0, 1]")
        if self.mcs_init is not None and not 0 <= self.mcs_init < len(DEFAULT_MCS_TABLE):
            raise ValueError("mcs_init outside the MCS table")


@dataclass
class TrafficTrace:
    """Per-subframe fronthaul volumes for one cell under one split scheme.

    A trace keeps three per-subframe columns, index i for subframe i: the
    volume, the PRBs granted and the control resource elements. The
    per-user grants behind them are not kept.
    """

    cell: CellConfig
    scheme: SplitScheme
    volumes: list[float]  # bits per subframe
    prbs: list[int]  # PRBs granted per subframe
    control_res: list[int]  # control resource elements per subframe

    def __post_init__(self) -> None:
        check_columns(self.volumes, self.prbs, self.control_res)

    def mean_rate(self) -> float:
        """Average offered rate in bits/s over the trace."""
        if not self.volumes:
            return 0.0
        return sum(self.volumes) / (len(self.volumes) * self.cell.subframe_duration)


def check_columns(volumes: list[float], prbs: list[int], control_res: list[int]) -> None:
    """The rule of `TrafficTrace`'s columns: equal lengths, every value >= 0 and within a float."""
    if not len(volumes) == len(prbs) == len(control_res):
        raise ValueError("volumes, prbs and control_res must have equal length")
    for name, column in (("volumes", volumes), ("prbs", prbs), ("control_res", control_res)):
        if any(not 0 <= v <= _FLOAT_MAX for v in column):  # NaN fails too
            raise ValueError(f"{name} must be >= 0 and fit in a float")


def _volume_formula(scheme: SplitScheme, cell: CellConfig) -> Callable[..., float]:
    """The one volume formula of `scheme` in `cell`, picked once per trace.

    It takes a subframe's PRB total, its control resource elements, the
    PRBs granted per user and those users' MCS entries, in the same
    order, and returns the subframe's payload bits. A grant of no PRBs
    adds nothing.
    """
    res_per_prb = cell.res_per_prb
    if isinstance(scheme, (ClassicalIQ, FilteredIQ)):
        volume = (
            cell.sampling_rate
            * cell.subframe_duration
            * (2 * cell.iq_bitwidth)
            * cell.n_antennas
            * cell.transport_overhead_factor
            * cell.compression_factor
        )
        if isinstance(scheme, FilteredIQ):
            volume *= scheme.filter_factor
        return lambda prbs, control, grants, mcs: volume
    if isinstance(scheme, ReExtraction):
        bits_per_re = 2 * cell.iq_bitwidth
        n_antennas, compression = cell.n_antennas, cell.compression_factor
        return lambda prbs, control, grants, mcs: (
            (prbs * res_per_prb + control) * bits_per_re * n_antennas * compression
        )
    if isinstance(scheme, ModulationBits):
        n_layers = scheme.n_layers
        return lambda prbs, control, grants, mcs: (
            sum(n * res_per_prb * m.modulation_order for n, m in zip(grants, mcs)) * n_layers
            + control * CONTROL_MODULATION_ORDER
        )
    if isinstance(scheme, PduLevel):
        coded = scheme.code_rate_applied
        return lambda prbs, control, grants, mcs: sum(
            n * res_per_prb * m.modulation_order * (m.code_rate if coded else 1.0)
            for n, m in zip(grants, mcs)
        )
    raise TypeError(f"unknown split scheme: {scheme!r}")


def peak_rate(scheme: SplitScheme, cell: CellConfig, max_control_res: int = 0) -> float:
    """Sustained peak bit rate of `scheme` for the given cell.

    Load-dependent schemes are evaluated with every PRB granted at the
    best entry of the MCS table plus `max_control_res` control elements.
    The constant-rate schemes return their fixed line rate directly.
    """
    if isinstance(scheme, ClassicalIQ):
        return (
            cell.sampling_rate
            * (2 * cell.iq_bitwidth)
            * cell.n_antennas
            * cell.transport_overhead_factor
            * cell.compression_factor
        )
    if isinstance(scheme, FilteredIQ):
        return peak_rate(ClassicalIQ(), cell) * scheme.filter_factor
    if max_control_res < 0:
        raise ValueError("max_control_res must be >= 0")
    full = _volume_formula(scheme, cell)(cell.n_prb, max_control_res, [cell.n_prb], [DEFAULT_MCS_TABLE[-1]])
    return full / cell.subframe_duration


def _stationary_on_probability(profile: UeProfile) -> float:
    if math.isinf(profile.mean_on) and math.isinf(profile.mean_off):
        return 0.5
    if math.isinf(profile.mean_on):
        return 1.0
    if math.isinf(profile.mean_off):
        return 0.0
    return profile.mean_on / (profile.mean_on + profile.mean_off)


def _round_robin_grants(demands: list[int], budget: int, start: int) -> list[int]:
    """PRBs each user holds after `budget` PRBs go out one per visit, round robin.

    The visits run over demands[start:] + demands[:start] and pass over
    users whose demand is met, until the PRBs or the demands run out.
    After k full rounds every user holds min(demand, k); the PRBs left
    then go one each to the next users, in that rotated order, who still
    want more. Grants come back in the order of `demands`.
    """
    if sum(demands) <= budget:
        return demands
    # The most full rounds that fit: with the users sorted by demand, the
    # first `j` are satisfied and the other n - j share what is left.
    held = 0
    n = len(demands)
    for j, demand in enumerate(sorted(demands)):
        if held + demand * (n - j) > budget:
            rounds = (budget - held) // (n - j)
            break
        held += demand
    grants = [demand if demand < rounds else rounds for demand in demands]
    extras = budget - sum(grants)
    for i in range(start - n, start):  # negative indices wrap: the rotated order
        if not extras:
            break
        if demands[i] > rounds:
            grants[i] += 1
            extras -= 1
    return grants


def _mcs_step(getrandbits: Callable[[int], int]) -> int:
    """-1 or 1, drawn as `random.Random.choice((-1, 1))` draws it, from the same stream."""
    k = getrandbits(2)
    while k >= 2:
        k = getrandbits(2)
    return k + k - 1


def trace_rows(
    cell: CellConfig,
    scheme: SplitScheme,
    profiles: list[UeProfile],
    control_schedule: ControlSchedule,
    n_subframes: int,
    seed: int,
) -> Iterator[tuple[float, int, int]]:
    """A deterministic trace's rows, one (volume, granted PRBs, control REs) per subframe.

    Per subframe every user advances its activity and MCS processes, whole
    PRBs are granted round-robin among active users up to their demand,
    and control resources are overlaid. Users are told apart by their
    position in `profiles`, so one profile may stand for many. The grants
    are computed in closed form (`_round_robin_grants`), so a subframe
    costs work per active user, not per PRB granted, and its volume comes
    straight from them through the scheme's one volume formula. Rows are
    made as they are read; the same seed always yields the identical rows.
    Bad arguments raise ValueError at the first read.
    """
    if n_subframes < 1:
        raise ValueError("n_subframes must be >= 1")
    load_dependent = not isinstance(scheme, (ClassicalIQ, FilteredIQ))
    if load_dependent and not profiles:
        raise ValueError("load-dependent schemes require at least one UE profile")

    volume = _volume_formula(scheme, cell)
    table = DEFAULT_MCS_TABLE
    rng = random.Random(seed)
    draw, getrandbits = rng.random, rng.getrandbits
    n_mcs = len(table)
    on = [rng.random() < _stationary_on_probability(p) for p in profiles]
    mcs_idx = [p.mcs_init if p.mcs_init is not None else rng.randrange(n_mcs) for p in profiles]
    # Per user: chance to switch off while on, to switch on while off, to step the MCS.
    users = [(i, 1.0 / p.mean_on, 1.0 / p.mean_off, p.mcs_step_prob) for i, p in enumerate(profiles)]
    demand = [p.demand_prbs for p in profiles]
    n_prb, pdcch = cell.n_prb, control_schedule.pdcch_res_per_subframe
    prach_res, prach_period = control_schedule.prach_res, control_schedule.prach_period

    for sf in range(n_subframes):
        active = []  # ascending user index
        for i, p_off, p_on, step_prob in users:
            if on[i]:
                if draw() < p_off:
                    on[i] = False
                else:
                    active.append(i)
            elif draw() < p_on:
                on[i] = True
                active.append(i)
            if step_prob and draw() < step_prob:
                nxt = mcs_idx[i] + _mcs_step(getrandbits)
                if 0 <= nxt < n_mcs:  # reflect at the edges
                    mcs_idx[i] = nxt
        # rotate the grant order between subframes
        grants = _round_robin_grants([demand[i] for i in active], n_prb, sf % len(active)) if active else []
        control = pdcch + prach_res if prach_res and sf % prach_period == 0 else pdcch
        total = sum(grants)
        yield volume(total, control, grants, [table[mcs_idx[i]] for i in active]), total, control


def generate_trace(
    cell: CellConfig,
    scheme: SplitScheme,
    profiles: list[UeProfile],
    control_schedule: ControlSchedule,
    n_subframes: int,
    seed: int,
) -> TrafficTrace:
    """The whole trace of `trace_rows`, collected into its three columns."""
    rows = trace_rows(cell, scheme, profiles, control_schedule, n_subframes, seed)
    volumes, prbs, control_res = map(list, zip(*rows))
    return TrafficTrace(cell, scheme, volumes, prbs, control_res)


def constant_trace(
    cell: CellConfig, scheme: SplitScheme, rate: float, n_subframes: int
) -> TrafficTrace:
    """Trace with a fixed offered rate in bits/s, for constant-bit-rate sources."""
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be finite and >= 0, got {rate!r}")
    per_subframe = rate * cell.subframe_duration
    return TrafficTrace(cell, scheme, [per_subframe] * n_subframes, [0] * n_subframes, [0] * n_subframes)


def write_trace_csv(trace: TrafficTrace, path: str) -> None:
    """Export a trace as the standard five-column table, one row per subframe."""
    name = scheme_name(trace.scheme)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subframe_index", "scheme", "volume_bits", "allocated_prbs", "control_res"])
        columns = zip(trace.volumes, trace.prbs, trace.control_res)
        writer.writerows(
            [sf, name, repr(volume), prbs, control] for sf, (volume, prbs, control) in enumerate(columns)
        )
