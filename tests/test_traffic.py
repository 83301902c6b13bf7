import gc
import hashlib
import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from fhsim.traffic import (
    Allocation,
    CellConfig,
    ClassicalIQ,
    ControlSchedule,
    FilteredIQ,
    McsEntry,
    ModulationBits,
    PduLevel,
    ReExtraction,
    SubframeLoad,
    TrafficTrace,
    UeProfile,
    constant_trace,
    generate_trace,
    peak_rate,
    subframe_loads,
    subframe_volume,
    write_trace_csv,
    _mcs_step,
)
import traffic_oracle

MCS64 = McsEntry(6, 5 / 6)
EMPTY = SubframeLoad(subframe_index=0)


def full_load(cell, mcs=MCS64, control=0):
    return SubframeLoad(0, allocations=(Allocation(0, cell.n_prb, mcs),), control_res=control)


class TestSubframeVolume:
    def test_classical_default_cell(self):
        # 30.72e6 samples x 1e-3 s x 30 bits x 8 antennas x 4/3 overhead
        assert subframe_volume(ClassicalIQ(), CellConfig(), EMPTY) == 9830400.0

    def test_classical_is_load_independent(self):
        cell = CellConfig()
        assert subframe_volume(ClassicalIQ(), cell, full_load(cell)) == subframe_volume(
            ClassicalIQ(), cell, EMPTY
        )

    def test_re_extraction_empty_load_is_zero(self):
        assert subframe_volume(ReExtraction(), CellConfig(), EMPTY) == 0

    def test_modulation_bits_one_prb_64qam(self):
        cell = CellConfig(n_antennas=1)
        load = SubframeLoad(0, allocations=(Allocation(0, 1, MCS64),))
        assert subframe_volume(ModulationBits(), cell, load) == 168 * 6

    def test_modulation_vs_classical_order_of_magnitude(self):
        cell = CellConfig()
        mod = subframe_volume(ModulationBits(), cell, full_load(cell))
        classical = subframe_volume(ClassicalIQ(), cell, EMPTY)
        assert mod == 100 * 168 * 6
        assert classical / mod > 10  # actually ~97.5x

    def test_pdu_level_applies_code_rate(self):
        cell = CellConfig(n_antennas=1)
        load = SubframeLoad(0, allocations=(Allocation(0, 2, McsEntry(4, 0.5)),))
        assert subframe_volume(PduLevel(), cell, load) == 2 * 168 * 4 * 0.5
        assert subframe_volume(PduLevel(code_rate_applied=False), cell, load) == 2 * 168 * 4

    def test_rejects_over_budget_load(self):
        cell = CellConfig(n_prb=10)
        load = SubframeLoad(0, allocations=(Allocation(0, 11, MCS64),))
        with pytest.raises(ValueError):
            subframe_volume(ReExtraction(), cell, load)

    def test_control_res_counts_for_re_extraction(self):
        cell = CellConfig()
        load = SubframeLoad(0, control_res=100)
        assert subframe_volume(ReExtraction(), cell, load) == 100 * 2 * 15 * 8


class TestLoadValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Allocation(0, -1, MCS64),
            lambda: Allocation(0, 1, McsEntry(3, 0.5)),
            lambda: Allocation(0, 1, McsEntry(4, 0.0)),
            lambda: Allocation(0, 1, McsEntry(4, 1.5)),
            lambda: SubframeLoad(0, control_res=-1),
        ],
        ids=["negative-prbs", "modulation-3", "code-rate-0", "code-rate-1.5", "negative-control"],
    )
    def test_bad_load_is_refused(self, make):
        with pytest.raises(ValueError):
            make()


class TestPeakRate:
    def test_classical_is_9_8304_gbps(self):
        assert peak_rate(ClassicalIQ(), CellConfig()) == 9.8304e9

    def test_classical_within_5pct_of_10g(self):
        assert abs(peak_rate(ClassicalIQ(), CellConfig()) - 10e9) / 10e9 < 0.05

    def test_filtered_halves_classical(self):
        assert peak_rate(FilteredIQ(0.5), CellConfig()) == 4.9152e9

    def test_modulation_minimal_cell(self):
        cell = CellConfig(n_antennas=1, n_prb=1)
        assert peak_rate(ModulationBits(), cell) == 168 * 6 / 1e-3

    def test_invalid_cell_rejected(self):
        with pytest.raises(ValueError):
            CellConfig(n_antennas=0)


class TestOrderingInvariant:
    # filter_factor >= 0.5 keeps the filtered band at least as wide as the
    # fully loaded resource grid; below that the filtered stream could not
    # physically carry the occupied REs and the ordering claim is vacuous.
    @given(
        n_prbs=st.integers(0, 100),
        control=st.integers(0, 2000),
        mcs_idx=st.integers(0, 5),
        filter_factor=st.floats(0.5, 1.0),
    )
    @settings(max_examples=200)
    def test_scheme_ordering(self, n_prbs, control, mcs_idx, filter_factor):
        from fhsim.traffic import DEFAULT_MCS_TABLE

        cell = CellConfig()
        mcs = DEFAULT_MCS_TABLE[mcs_idx]
        allocations = (Allocation(0, n_prbs, mcs),) if n_prbs else ()
        load = SubframeLoad(0, allocations=allocations, control_res=control)
        volumes = [
            subframe_volume(scheme, cell, load)
            for scheme in (
                ClassicalIQ(),
                FilteredIQ(filter_factor),
                ReExtraction(),
                ModulationBits(),
                PduLevel(),
            )
        ]
        for bigger, smaller in zip(volumes, volumes[1:]):
            assert bigger >= smaller

    @given(extra=st.integers(1, 20), mcs_idx=st.integers(0, 5))
    @settings(max_examples=100)
    def test_load_monotonicity(self, extra, mcs_idx):
        from fhsim.traffic import DEFAULT_MCS_TABLE

        cell = CellConfig()
        mcs = DEFAULT_MCS_TABLE[mcs_idx]
        base = SubframeLoad(0, allocations=(Allocation(0, 30, mcs),))
        more = SubframeLoad(0, allocations=(Allocation(0, 30, mcs), Allocation(1, extra, mcs)))
        for scheme in (ReExtraction(), ModulationBits(), PduLevel()):
            assert subframe_volume(scheme, cell, more) >= subframe_volume(scheme, cell, base)
        assert subframe_volume(ClassicalIQ(), cell, more) == subframe_volume(
            ClassicalIQ(), cell, base
        )

    def test_antenna_doubling_doubles_classical(self):
        v8 = subframe_volume(ClassicalIQ(), CellConfig(n_antennas=8), EMPTY)
        v16 = subframe_volume(ClassicalIQ(), CellConfig(n_antennas=16), EMPTY)
        assert v16 == 2 * v8


def ten_fixed_ues(demand=10):
    return [
        UeProfile(ue_id=i, mean_on=30, mean_off=30, demand_prbs=demand, mcs_step_prob=0.0, mcs_init=5)
        for i in range(10)
    ]


class TestGenerateTrace:
    def test_same_seed_identical(self):
        cell = CellConfig()
        args = (cell, ReExtraction(), ten_fixed_ues(), ControlSchedule(144, 10, 144), 200, 42)
        a = generate_trace(*args)
        b = generate_trace(*args)
        assert (a.volumes, a.prbs, a.control_res) == (b.volumes, b.prbs, b.control_res)

    def test_different_seed_differs(self):
        cell = CellConfig()
        a = generate_trace(cell, ReExtraction(), ten_fixed_ues(), ControlSchedule(), 200, 1)
        b = generate_trace(cell, ReExtraction(), ten_fixed_ues(), ControlSchedule(), 200, 2)
        assert a.volumes != b.volumes

    def test_all_ues_off_modulation_no_control_is_zero(self):
        cell = CellConfig()
        offline = [
            UeProfile(ue_id=i, mean_on=1e-9, mean_off=math.inf, demand_prbs=10)
            for i in range(5)
        ]
        trace = generate_trace(cell, ModulationBits(), offline, ControlSchedule(0, 10, 0), 100, 3)
        assert trace.volumes == [0.0] * 100

    def test_prach_spikes_at_period(self):
        cell = CellConfig()
        always_on = [
            UeProfile(ue_id=i, mean_on=math.inf, mean_off=30, demand_prbs=10, mcs_step_prob=0.0, mcs_init=5)
            for i in range(10)
        ]
        trace = generate_trace(
            cell, ReExtraction(), always_on, ControlSchedule(144, 10, 839), 200, 7
        )
        base = trace.volumes[1]
        spikes = {i for i, v in enumerate(trace.volumes) if v != base}
        assert spikes == {i for i in range(200) if i % 10 == 0}

    def test_load_correlation_above_0_9_at_fixed_mcs(self):
        cell = CellConfig()
        trace = generate_trace(
            cell, ModulationBits(), ten_fixed_ues(), ControlSchedule(144, 10, 144), 1000, 11
        )
        prbs = [float(p) for p in trace.prbs]
        assert statistics.pstdev(prbs) > 0
        corr = statistics.correlation(prbs, trace.volumes)
        assert corr > 0.9

    def test_columns_same_length_and_nonnegative(self):
        cell = CellConfig()
        trace = generate_trace(cell, PduLevel(), ten_fixed_ues(), ControlSchedule(), 50, 5)
        assert len(trace.volumes) == len(trace.prbs) == len(trace.control_res) == 50
        assert all(v >= 0 for v in trace.volumes)

    def test_allocation_respects_prb_budget(self):
        cell = CellConfig(n_prb=17)
        trace = generate_trace(cell, ReExtraction(), ten_fixed_ues(demand=5), ControlSchedule(), 300, 13)
        assert all(p <= 17 for p in trace.prbs)

    def test_load_dependent_scheme_requires_profiles(self):
        with pytest.raises(ValueError):
            generate_trace(CellConfig(), ModulationBits(), [], ControlSchedule(), 10, 0)


def test_constant_trace_rate():
    trace = constant_trace(CellConfig(), ClassicalIQ(), rate=8e6, n_subframes=10)
    assert trace.volumes == [8000.0] * 10
    assert trace.mean_rate() == 8e6


@pytest.mark.parametrize(
    "volumes, prbs, control_res, message",
    [
        ([1.0], [0, 0], [0], "equal length"),
        ([1.0], [0], [], "equal length"),
        ([-1.0], [0], [0], "volumes must be >= 0"),
        ([1.0], [-1], [0], "prbs must be >= 0"),
        ([1.0], [0], [-1], "control_res must be >= 0"),
    ],
)
def test_trace_columns_are_checked(volumes, prbs, control_res, message):
    with pytest.raises(ValueError, match=message):
        TrafficTrace(CellConfig(), ReExtraction(), volumes, prbs, control_res, seed=0)


@pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan])
def test_constant_trace_refuses_a_rate_that_is_not_finite_and_non_negative(rate):
    with pytest.raises(ValueError, match="rate must be finite"):
        constant_trace(CellConfig(), ClassicalIQ(), rate=rate, n_subframes=10)


def test_trace_csv_round_trip(tmp_path):
    cell = CellConfig()
    trace = generate_trace(cell, ModulationBits(), ten_fixed_ues(), ControlSchedule(144, 10, 144), 20, 9)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "subframe_index,scheme,volume_bits,allocated_prbs,control_res"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "modulation_bits"
    assert float(first[2]) == trace.volumes[0]


def contended_cell_args():
    """One cell whose users often want more PRBs than it has, with mixed demands."""
    cell = CellConfig(n_prb=23)
    profiles = [
        UeProfile(
            ue_id=i,
            mean_on=math.inf if i == 0 else 3 + i % 5,
            mean_off=12 + 6 * (i % 4),
            demand_prbs=1 + (i * 5) % 11,
            mcs_step_prob=0.4,
            mcs_init=i % 6 if i % 3 else None,
        )
        for i in range(10)
    ]
    return cell, PduLevel(), profiles, ControlSchedule(36, 5, 72), 600, 2024


def loads_of(cell, scheme, *rest):
    """The loads `generate_trace(cell, scheme, *rest)` reads, as a list."""
    return list(subframe_loads(cell, *rest))


# sha256 of write_trace_csv for the contended cell's trace, recorded from the
# one-PRB-per-step round-robin scheduler that the closed-form grants replace.
CONTENDED_TRACE_SHA256 = "b00eb4c2c846bfbd4745fa6deb1e40f9f68921adaa2552c2899b4a552e6598ef"


def test_contended_trace_csv_is_pinned(tmp_path):
    trace = generate_trace(*contended_cell_args())
    assert any(p == 23 for p in trace.prbs)  # the PRBs really run out
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONTENDED_TRACE_SHA256


def cells_scale_args(scheme, cell, seed):
    """One cell as the `cells` benchmark loads it: 48 users past 100 PRBs, 2,000 subframes."""
    profiles = [
        UeProfile(
            ue_id=u,
            mean_on=20 + u % 41,
            mean_off=20 + (u * 7) % 41,
            demand_prbs=6 + u % 7,
            mcs_step_prob=(0.1, 0.2, 0.3, 0.4)[u % 4],
        )
        for u in range(48)
    ]
    return cell, scheme, profiles, ControlSchedule(144, 10, 144), 2000, seed


# sha256 of write_trace_csv at cells scale, recorded from the generator that
# built a SubframeLoad per subframe and drew MCS steps with rng.choice.
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            cells_scale_args(ReExtraction(), CellConfig(n_antennas=2), 1),
            "1e58623cda712b02dc1b2606d32b901d72ae112b7705bb5cb56e208b94468347",
        ),
        (
            cells_scale_args(ModulationBits(), CellConfig(), 2),
            "488cda5437a3ecf7c43d66a277cc0e9d8ca772bbf6d7b869225b32e9de7f131f",
        ),
    ],
    ids=["re_extraction", "modulation_bits"],
)
def test_cells_scale_trace_csv_is_pinned(tmp_path, args, digest):
    trace = generate_trace(*args)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**40 + 3])
def test_mcs_step_draw_is_random_choice(seed):
    """The MCS step as the generator draws it uses the stream as `choice((-1, 1))` does."""
    ours, theirs = random.Random(seed), random.Random(seed)
    steps = [_mcs_step(ours.getrandbits) for _ in range(500)]
    assert steps == [theirs.choice((-1, 1)) for _ in range(500)]
    assert ours.getstate() == theirs.getstate()


def bitwise(volumes):
    return [(type(v), repr(v)) for v in volumes]


mean_durations = st.one_of(st.just(math.inf), st.floats(1.0, 30.0))
ue_profiles = st.builds(
    UeProfile,
    ue_id=st.integers(0, 99),
    mean_on=mean_durations,
    mean_off=mean_durations,
    demand_prbs=st.integers(1, 15),
    mcs_step_prob=st.sampled_from([0.0, 0.3, 1.0]),
    mcs_init=st.one_of(st.none(), st.integers(0, 5)),
)


class TestGrantsMatchStepwiseReference:
    """The closed-form grants against the one-PRB-per-step generator."""

    @given(
        n_prb=st.integers(1, 30),
        profiles=st.lists(ue_profiles, min_size=1, max_size=12),
        scheme=st.sampled_from([ReExtraction(), ModulationBits(2), PduLevel(), PduLevel(False)]),
        control=st.builds(ControlSchedule, st.integers(0, 50), st.integers(1, 7), st.integers(0, 80)),
        n_subframes=st.integers(1, 60),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_volumes_and_loads(self, n_prb, profiles, scheme, control, n_subframes, seed):
        self.check((CellConfig(n_prb=n_prb), scheme, profiles, control, n_subframes, seed))

    def test_contended_cell_matches(self):
        self.check(contended_cell_args())

    @staticmethod
    def check(args):
        trace = generate_trace(*args)
        volumes, loads = traffic_oracle.generate_trace(*args)
        assert bitwise(trace.volumes) == bitwise(volumes)
        assert loads_of(*args) == loads  # every allocation of every subframe
        assert trace.prbs == [load.total_prbs for load in loads]
        assert trace.control_res == [load.control_res for load in loads]


def busy_cell_args():
    profiles = [
        UeProfile(ue_id=i, mean_on=20, mean_off=20, demand_prbs=1 + i % 9, mcs_step_prob=0.5)
        for i in range(48)
    ]
    return CellConfig(), ModulationBits(), profiles, ControlSchedule(), 2000, 5


def test_equal_allocations_share_one_object():
    loads = loads_of(*busy_cell_args())
    objects = {id(a) for load in loads for a in load.allocations}
    assert len(objects) <= 48 * (9 + 1) * 6


def test_trace_keeps_no_per_user_record():
    trace = generate_trace(*busy_cell_args())
    # Walk everything the trace holds, short of classes and their modules.
    seen, stack = set(), [trace]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (SubframeLoad, Allocation)), obj
        stack.extend(gc.get_referents(obj))
    assert len(seen) > 2000  # the walk reached every volume
