import ast
import gc
import hashlib
import inspect
import math
import random
import statistics
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fhsim.traffic import (
    CellConfig,
    ClassicalIQ,
    ControlSchedule,
    FilteredIQ,
    ModulationBits,
    PduLevel,
    ReExtraction,
    TrafficTrace,
    UeProfile,
    constant_trace,
    generate_trace,
    peak_rate,
    write_trace_csv,
    _mcs_step,
)
import fhsim.traffic
import traffic_oracle

ORACLE = Path(__file__).with_name("traffic_oracle.py")


def pinned(demand, mcs_idx=5):
    """A user that is always on, asks for `demand` PRBs and stays at MCS index `mcs_idx`."""
    return UeProfile(mean_on=math.inf, demand_prbs=demand, mcs_step_prob=0.0, mcs_init=mcs_idx)


OFF = UeProfile(mean_off=math.inf)  # a user that is never on


def volume(scheme, cell, users=(OFF,), control=0):
    """One subframe's volume with `users` on the cell, each granted its whole demand."""
    assert sum(u.demand_prbs for u in users if u.mean_on == math.inf) <= cell.n_prb
    return generate_trace(cell, scheme, list(users), ControlSchedule(control), 1, 0).volumes[0]


class TestSubframeVolume:
    def test_classical_default_cell(self):
        # 30.72e6 samples x 1e-3 s x 30 bits x 8 antennas x 4/3 overhead
        assert volume(ClassicalIQ(), CellConfig()) == 9830400.0

    def test_classical_is_load_independent(self):
        cell = CellConfig()
        assert volume(ClassicalIQ(), cell, [pinned(cell.n_prb)]) == volume(ClassicalIQ(), cell)

    def test_re_extraction_empty_load_is_zero(self):
        assert volume(ReExtraction(), CellConfig()) == 0

    def test_modulation_bits_one_prb_64qam(self):
        cell = CellConfig(n_antennas=1)
        assert volume(ModulationBits(), cell, [pinned(1)]) == 168 * 6

    def test_modulation_vs_classical_order_of_magnitude(self):
        cell = CellConfig()
        mod = volume(ModulationBits(), cell, [pinned(cell.n_prb)])
        classical = volume(ClassicalIQ(), cell)
        assert mod == 100 * 168 * 6
        assert classical / mod > 10  # actually ~97.5x

    def test_pdu_level_applies_code_rate(self):
        cell = CellConfig(n_antennas=1)
        user = [pinned(2, mcs_idx=2)]  # 16QAM, rate 1/2
        assert volume(PduLevel(), cell, user) == 2 * 168 * 4 * 0.5
        assert volume(PduLevel(code_rate_applied=False), cell, user) == 2 * 168 * 4

    def test_control_res_counts_for_re_extraction(self):
        assert volume(ReExtraction(), CellConfig(), control=100) == 100 * 2 * 15 * 8


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

    @pytest.mark.parametrize(
        "scheme",
        [ReExtraction(), ModulationBits(2), PduLevel(), PduLevel(False)],
        ids=["re_extraction", "modulation_bits", "pdu_level", "pdu_level_uncoded"],
    )
    def test_load_dependent_peak_is_a_full_subframe_at_the_best_mcs(self, scheme):
        cell = CellConfig(n_prb=25)
        full = volume(scheme, cell, [pinned(25)], control=300)
        assert peak_rate(scheme, cell, max_control_res=300) == full / cell.subframe_duration

    def test_negative_control_is_refused(self):
        with pytest.raises(ValueError, match="max_control_res"):
            peak_rate(ReExtraction(), CellConfig(), max_control_res=-1)

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
        cell = CellConfig()
        users = [pinned(n_prbs, mcs_idx)] if n_prbs else [OFF]
        volumes = [
            volume(scheme, cell, users, control)
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
        cell = CellConfig()
        base = [pinned(30, mcs_idx)]
        more = [pinned(30, mcs_idx), pinned(extra, mcs_idx)]
        for scheme in (ReExtraction(), ModulationBits(), PduLevel()):
            assert volume(scheme, cell, more) >= volume(scheme, cell, base)
        assert volume(ClassicalIQ(), cell, more) == volume(ClassicalIQ(), cell, base)

    def test_antenna_doubling_doubles_classical(self):
        v8 = volume(ClassicalIQ(), CellConfig(n_antennas=8))
        v16 = volume(ClassicalIQ(), CellConfig(n_antennas=16))
        assert v16 == 2 * v8


def ten_fixed_ues(demand=10):
    return [UeProfile(mean_on=30, mean_off=30, demand_prbs=demand, mcs_step_prob=0.0, mcs_init=5)] * 10


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
        offline = [UeProfile(mean_on=1e-9, mean_off=math.inf, demand_prbs=10)] * 5
        trace = generate_trace(cell, ModulationBits(), offline, ControlSchedule(0, 10, 0), 100, 3)
        assert trace.volumes == [0.0] * 100

    def test_prach_spikes_at_period(self):
        cell = CellConfig()
        always_on = [UeProfile(mean_on=math.inf, mean_off=30, demand_prbs=10, mcs_step_prob=0.0, mcs_init=5)] * 10
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
        ([math.nan], [0], [0], "volumes must be >= 0"),
        ([math.inf], [0], [0], "volumes must be >= 0"),
        ([10**400], [0], [0], "volumes must be >= 0 and fit in a float"),
    ],
)
def test_trace_columns_are_checked(volumes, prbs, control_res, message):
    with pytest.raises(ValueError, match=message):
        TrafficTrace(CellConfig(), ReExtraction(), volumes, prbs, control_res)


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
            mean_on=math.inf if i == 0 else 3 + i % 5,
            mean_off=12 + 6 * (i % 4),
            demand_prbs=1 + (i * 5) % 11,
            mcs_step_prob=0.4,
            mcs_init=i % 6 if i % 3 else None,
        )
        for i in range(10)
    ]
    return cell, PduLevel(), profiles, ControlSchedule(36, 5, 72), 600, 2024


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
            mean_on=20 + u % 41,
            mean_off=20 + (u * 7) % 41,
            demand_prbs=6 + u % 7,
            mcs_step_prob=(0.1, 0.2, 0.3, 0.4)[u % 4],
        )
        for u in range(48)
    ]
    return cell, scheme, profiles, ControlSchedule(144, 10, 144), 2000, seed


# sha256 of write_trace_csv at cells scale, recorded from the generator that
# built a record per user and subframe and drew MCS steps with rng.choice.
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
        scheme=st.sampled_from(
            [ClassicalIQ(), FilteredIQ(0.7), ReExtraction(), ModulationBits(2), PduLevel(), PduLevel(False)]
        ),
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
        volumes, prbs, control_res = traffic_oracle.generate_trace(*args)
        assert bitwise(trace.volumes) == bitwise(volumes)
        assert trace.prbs == prbs
        assert trace.control_res == control_res


def busy_cell_args():
    profiles = [
        UeProfile(mean_on=20, mean_off=20, demand_prbs=1 + i % 9, mcs_step_prob=0.5)
        for i in range(48)
    ]
    return CellConfig(), ModulationBits(), profiles, ControlSchedule(), 2000, 5


def test_trace_keeps_no_per_user_record():
    trace = generate_trace(*busy_cell_args())
    # Walk everything the trace holds, short of classes and their modules.
    seen, stack = set(), [trace]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        # the trace, its cell and scheme, its columns and their numbers; nothing per user
        assert isinstance(obj, (TrafficTrace, CellConfig, ModulationBits, list, dict, str, int, float)), obj
        stack.extend(gc.get_referents(obj))
    assert len(seen) > 2000  # the walk reached every volume


@pytest.mark.parametrize("mean_on, mean_off", [(math.nan, math.nan), (40.0, math.nan), (math.nan, 40.0), (0.0, 40.0)])
def test_mean_durations_that_are_not_positive_numbers_are_refused(mean_on, mean_off):
    with pytest.raises(ValueError, match="mean on/off"):
        UeProfile(mean_on=mean_on, mean_off=mean_off)


def test_oracle_imports_no_function_from_the_code_it_checks():
    """The stepwise reference may share data types and the MCS table with fhsim, never its code."""
    shared = []
    for node in ast.walk(ast.parse(ORACLE.read_text())):
        if isinstance(node, ast.Import):
            shared += [alias.name for alias in node.names if alias.name.startswith("fhsim")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fhsim"):
            module = fhsim.traffic if node.module == "fhsim.traffic" else None
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if module is None or value is None or inspect.isroutine(value):
                    shared.append(f"{node.module}.{alias.name}")
    assert shared == []
