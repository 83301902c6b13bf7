"""Reference trace generator: round-robin grants one PRB per step.

This is the generator `fhsim.traffic` replaced with closed-form grants.
It hands out whole PRBs one at a time, visiting the active users in a
rotated order, so it is slow but plainly right. It keeps its own
on-probability and its own volume formula for each split scheme, and
imports only data types from `fhsim.traffic`. It returns every
subframe's volume, granted PRBs and control resource elements; the
property tests require the same three columns from `generate_trace`,
the volumes bit for bit.
"""

import math
import random

from fhsim.traffic import (
    DEFAULT_MCS_TABLE,
    CellConfig,
    ClassicalIQ,
    ControlSchedule,
    FilteredIQ,
    ModulationBits,
    PduLevel,
    ReExtraction,
    SplitScheme,
    UeProfile,
)


def on_probability(profile: UeProfile) -> float:
    """The share of time a two-state user is on; a pinned state is 1 or 0, both pinned 1/2."""
    on, off = profile.mean_on, profile.mean_off
    if on == math.inf:
        return 0.5 if off == math.inf else 1.0
    return 0.0 if off == math.inf else on / (on + off)


def volume(scheme: SplitScheme, cell: CellConfig, granted: dict, mcs: dict, control: int) -> float:
    """Payload bits of one subframe: `granted` and `mcs` map each active user to its PRBs and MCS entry."""
    if isinstance(scheme, (ClassicalIQ, FilteredIQ)):
        bits = (
            cell.sampling_rate
            * cell.subframe_duration
            * (2 * cell.iq_bitwidth)
            * cell.n_antennas
            * cell.transport_overhead_factor
            * cell.compression_factor
        )
        return bits * scheme.filter_factor if isinstance(scheme, FilteredIQ) else bits
    res = {i: n * cell.res_per_prb for i, n in granted.items()}
    if isinstance(scheme, ReExtraction):
        samples = sum(res.values()) + control
        return samples * (2 * cell.iq_bitwidth) * cell.n_antennas * cell.compression_factor
    if isinstance(scheme, ModulationBits):
        data = sum(r * mcs[i].modulation_order for i, r in res.items())
        return data * scheme.n_layers + control * 2
    if isinstance(scheme, PduLevel):
        return sum(
            r * mcs[i].modulation_order * (mcs[i].code_rate if scheme.code_rate_applied else 1.0)
            for i, r in res.items()
        )
    raise TypeError(f"unknown split scheme: {scheme!r}")


def generate_trace(
    cell: CellConfig,
    scheme: SplitScheme,
    profiles: list[UeProfile],
    control_schedule: ControlSchedule,
    n_subframes: int,
    seed: int,
) -> tuple[list[float], list[int], list[int]]:
    """Generate deterministic per-subframe volumes, granted PRBs and control REs.

    Per subframe every user advances its activity and MCS processes, whole
    PRBs are granted round-robin among active users up to their demand,
    control resources are overlaid, and the scheme volume is recorded.
    The same seed always yields the identical trace.
    """
    if n_subframes < 1:
        raise ValueError("n_subframes must be >= 1")
    load_dependent = not isinstance(scheme, (ClassicalIQ, FilteredIQ))
    if load_dependent and not profiles:
        raise ValueError("load-dependent schemes require at least one UE profile")

    rng = random.Random(seed)
    table = DEFAULT_MCS_TABLE
    on = [rng.random() < on_probability(p) for p in profiles]
    mcs_idx = [
        p.mcs_init if p.mcs_init is not None else rng.randrange(len(table))
        for p in profiles
    ]

    volumes: list[float] = []
    prbs: list[int] = []
    control_res: list[int] = []
    for sf in range(n_subframes):
        for i, p in enumerate(profiles):
            if on[i]:
                if rng.random() < 1.0 / p.mean_on:
                    on[i] = False
            else:
                if rng.random() < 1.0 / p.mean_off:
                    on[i] = True
            if p.mcs_step_prob and rng.random() < p.mcs_step_prob:
                step = rng.choice((-1, 1))
                nxt = mcs_idx[i] + step
                mcs_idx[i] = min(max(nxt, 0), len(table) - 1)  # reflect at the edges

        active = [i for i, a in enumerate(on) if a]
        granted = {i: 0 for i in active}
        if active:
            remaining = cell.n_prb
            start = sf % len(active)  # rotate the grant order between subframes
            queue = active[start:] + active[:start]
            while remaining > 0 and queue:
                nxt = []
                for i in queue:
                    if remaining > 0:
                        granted[i] += 1
                        remaining -= 1
                    if granted[i] < profiles[i].demand_prbs:
                        nxt.append(i)
                queue = nxt

        control = control_schedule.pdcch_res_per_subframe
        if control_schedule.prach_res and sf % control_schedule.prach_period == 0:
            control += control_schedule.prach_res

        held = {i: n for i, n in granted.items() if n > 0}  # ascending user index
        volumes.append(volume(scheme, cell, held, {i: table[mcs_idx[i]] for i in held}, control))
        prbs.append(sum(held.values()))
        control_res.append(control)

    return volumes, prbs, control_res
