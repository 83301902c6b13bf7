"""Reference trace generator: round-robin grants one PRB per step.

This is the generator `fhsim.traffic` replaced with closed-form grants.
It hands out whole PRBs one at a time, visiting the active users in a
rotated order, so it is slow but plainly right. It returns every
subframe's volume and load; the property tests require the same volumes
from `generate_trace`, bit for bit, and the same loads from
`subframe_loads`.
"""

import random

from fhsim.traffic import (
    DEFAULT_MCS_TABLE,
    Allocation,
    CellConfig,
    ClassicalIQ,
    ControlSchedule,
    FilteredIQ,
    SplitScheme,
    SubframeLoad,
    UeProfile,
    _stationary_on_probability,
    subframe_volume,
)


def generate_trace(
    cell: CellConfig,
    scheme: SplitScheme,
    profiles: list[UeProfile],
    control_schedule: ControlSchedule,
    n_subframes: int,
    seed: int,
) -> tuple[list[float], list[SubframeLoad]]:
    """Generate deterministic per-subframe volumes and loads.

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
    on = [rng.random() < _stationary_on_probability(p) for p in profiles]
    mcs_idx = [
        p.mcs_init if p.mcs_init is not None else rng.randrange(len(table))
        for p in profiles
    ]

    volumes: list[float] = []
    loads: list[SubframeLoad] = []
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

        allocations = tuple(
            Allocation(profiles[i].ue_id, granted[i], table[mcs_idx[i]])
            for i in active
            if granted[i] > 0
        )
        load = SubframeLoad(subframe_index=sf, allocations=allocations, control_res=control)
        loads.append(load)
        volumes.append(subframe_volume(scheme, cell, load))

    return volumes, loads
