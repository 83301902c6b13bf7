import csv
import math
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

import fhsim.engine
import fhsim.fanout
import fhsim.scenario
from fhsim.cli import bundled_scenario_names, load_scenario_text, main
from fhsim.engine import run
from fhsim.scenario import (
    _CELL_PARTS,
    _ENTRIES,
    _SETTINGS,
    ScenarioError,
    build_scenario,
    parse_scenario,
    render_scenario,
    run_scenario,
)
from fhsim.sync import ClockSource, build_sync_tree, propagate_sync

MINIMAL = """
[topology]
node = r1 rrh
node = hub switch
node = b1 bbu
link = r1 hub cap=1e9 delay=1e-6
link = hub b1 cap=1e9 delay=1e-6

[cells]
cell = r1 scheme=modulation_bits
ues = r1 count=4 mean_on=20 mean_off=20 demand=10 mcs_step=0.2
control = r1 pdcch=100 prach_period=10 prach_res=50

[sync]
source = b1 quality=0

[sessions]
session = dl pattern=p2p src=r1 dst=b1 class=2 mean=5e7 peak=2e8 bound=5e-3 traffic=trace

[engine]
scheduler = strict_priority
horizon = 0.02
subframes = 20
seed = 3
"""


class TestParse:
    def test_minimal_parses(self):
        scenario = parse_scenario(MINIMAL)
        assert len(scenario.nodes) == 3
        assert len(scenario.links) == 2
        assert scenario.sessions[0].name == "dl"
        assert scenario.engine.subframes == 20

    def test_all_bundled_scenarios_parse(self):
        names = bundled_scenario_names()
        assert len(names) == 5
        for name in names:
            text, _ = load_scenario_text(name)
            scenario = parse_scenario(text, name=name)
            assert scenario.sessions

    def test_undeclared_node_reference_diagnosed_with_line(self):
        bad = MINIMAL.replace("session = dl pattern=p2p src=r1", "session = dl pattern=p2p src=r9")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert "r9" in str(exc.value)
        assert exc.value.line > 0

    def test_p2p_with_two_declared_sources_is_refused_at_its_line(self):
        bad = MINIMAL.replace(
            "link = hub b1 cap=1e9 delay=1e-6", "link = hub b1 cap=1e9 delay=1e-6\nnode = r2 rrh\nlink = r2 hub"
        ).replace("src=r1", "srcs=r1,r2 traffic=cbr rate=1e7").replace(" traffic=trace", "")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert exc.value.line == 20

    @pytest.mark.parametrize(
        "name, old, new, line, node",
        [
            ("device-centric", "dsts=bbu1,bbu2", "dsts=bbu1,bbu1", 31, "bbu1"),
            ("cran-aggregation", "srcs=rrh1,rrh2,rrh3", "srcs=rrh1,rrh1,rrh3", 34, "rrh1"),
            ("ring-bbu-exchange", "src=bbu0 dst=bbu1", "src=bbu0 dst=bbu0", 39, "bbu0"),
        ],
    )
    def test_pattern_naming_an_endpoint_twice_is_refused_at_its_line(self, name, old, new, line, node):
        text, _ = load_scenario_text(name)
        assert old in text
        with pytest.raises(ScenarioError, match=f"'{node}' is named twice") as exc:
            parse_scenario(text.replace(old, new))
        assert exc.value.line == line

    def test_unknown_key_diagnosed(self):
        bad = MINIMAL.replace("cap=1e9", "capacity=1e9")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert "capacity" in str(exc.value)

    def test_radio_bandwidth_is_an_unknown_key(self):
        bad = MINIMAL.replace("scheme=modulation_bits", "scheme=modulation_bits bandwidth=20e6")
        with pytest.raises(ScenarioError, match="unknown key 'bandwidth'") as exc:
            parse_scenario(bad)
        assert exc.value.line == 10

    def test_type_mismatch_diagnosed(self):
        bad = MINIMAL.replace("class=2", "class=fast")
        with pytest.raises(ScenarioError):
            parse_scenario(bad)

    def test_cell_on_non_rrh_rejected(self):
        bad = MINIMAL.replace("cell = r1", "cell = b1").replace("ues = r1", "ues = b1").replace(
            "control = r1", "control = b1"
        )
        with pytest.raises(ScenarioError, match="rrh"):
            parse_scenario(bad)

    def test_trace_session_needs_cell(self):
        bad = MINIMAL.replace("cell = r1", "# cell = r1").replace("ues = r1", "# u").replace(
            "control = r1", "# c"
        )
        with pytest.raises(ScenarioError, match="cell"):
            parse_scenario(bad)

    def test_timing_source_node_supported(self, tmp_path):
        text = MINIMAL.replace(
            "[cells]",
            "node = gps timing\nlink = gps hub cap=1e6 delay=1e-6\n\n[cells]",
        ).replace("source = b1 quality=0", "source = gps quality=0")
        scenario = parse_scenario(text)
        assert ("gps", "timing") in [(n.name, n.kind) for n in scenario.nodes]
        assert run_scenario(scenario, str(tmp_path)) == 0
        with open(tmp_path / "sync.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        gps = str([n.name for n in scenario.nodes].index("gps"))
        assert len(rows) == 4  # hub, both hosts, and the timing node
        assert all(row["source_id"] == gps for row in rows)  # it roots the whole tree
        assert next(row["hops"] for row in rows if row["node_id"] == gps) == "0"

    def test_parse_render_parse_identity_minimal(self):
        first = parse_scenario(MINIMAL)
        again = parse_scenario(render_scenario(first))
        assert again == first

    def test_parse_render_parse_identity_bundled(self):
        for name in bundled_scenario_names():
            text, _ = load_scenario_text(name)
            first = parse_scenario(text, name=name)
            again = parse_scenario(render_scenario(first), name=name)
            assert again == first, name


class TestBuild:
    def test_world_has_circuit_per_unicast_session(self):
        built = build_scenario(parse_scenario(MINIMAL))
        assert len(built.world.circuits) == 1
        assert built.world.circuits[0].session_id == "dl"
        assert not built.infeasible

    def test_seed_override_changes_traces(self):
        a = build_scenario(parse_scenario(MINIMAL), seed=1)
        b = build_scenario(parse_scenario(MINIMAL), seed=2)
        assert a.traces["r1"].volumes != b.traces["r1"].volumes

    @pytest.mark.parametrize(
        "extra, delivered, peak", [("", 400, 19 * 1008), ("queue_bytes = 5000\n", 100, 4 * 1008)]
    )
    def test_engine_settings_govern_host_ports(self, extra, delivered, peak):
        # r1 linked straight to b1: r1's own output port is the only queue.
        # Each subframe frames a 20-packet burst; r1 sends one at once and
        # queues the rest, or only four behind a 5,000-byte bound.
        text = (
            MINIMAL.replace("node = hub switch\n", "")
            .replace("r1 hub cap=1e9 delay=1e-6\nlink = hub b1", "r1 b1")
            .replace("traffic=trace", "traffic=cbr rate=1.6e8")
        )
        built = build_scenario(parse_scenario(text + extra))
        assert built.world.switches == {} and built.world.config is built.controller.config
        result = run(built.world, built.scenario.engine.horizon)
        totals = result.total()
        assert (totals.injected, totals.delivered, totals.dropped_overflow) == (400, delivered, 400 - delivered)
        assert [(p.src, p.peak_queue_bytes) for p in result.ports] == [(0, peak), (1, 0)]


class TestRunScenario:
    def test_writes_all_tables(self, tmp_path):
        rc = run_scenario(parse_scenario(MINIMAL), str(tmp_path))
        assert rc == 0
        for name in (
            "sessions.csv",
            "links.csv",
            "global.csv",
            "control_log.csv",
            "sync.csv",
            "trace_r1.csv",
        ):
            assert (tmp_path / name).exists(), name

    def test_mandatory_infeasible_returns_one(self, tmp_path):
        bad = MINIMAL.replace("peak=2e8", "peak=2e12")
        rc = run_scenario(parse_scenario(bad), str(tmp_path))
        assert rc == 1

    def test_optional_infeasible_returns_zero(self, tmp_path):
        bad = MINIMAL.replace("bound=5e-3 traffic=trace", "bound=5e-3 traffic=trace optional=true").replace(
            "peak=2e8", "peak=2e12"
        )
        rc = run_scenario(parse_scenario(bad), str(tmp_path))
        assert rc == 0
        log = (tmp_path / "control_log.csv").read_text()
        assert "infeasible(no-bandwidth)" in log

    def test_byte_identical_reruns(self, tmp_path):
        scenario = parse_scenario(MINIMAL)
        run_scenario(scenario, str(tmp_path / "a"))
        run_scenario(scenario, str(tmp_path / "b"))
        for child in sorted((tmp_path / "a").iterdir()):
            assert child.read_bytes() == (tmp_path / "b" / child.name).read_bytes()

    def test_session_without_mean_runs_as_one_with_mean_at_its_peak(self, tmp_path):
        without = parse_scenario(MINIMAL.replace(" mean=5e7", ""))
        assert without.sessions[0].mean_rate is None
        assert "mean=" not in render_scenario(without)
        assert parse_scenario(render_scenario(without)) == without
        at_peak = parse_scenario(MINIMAL.replace("mean=5e7", "mean=2e8"))
        assert run_scenario(without, str(tmp_path / "a")) == run_scenario(at_peak, str(tmp_path / "b")) == 0
        written = sorted(child.name for child in (tmp_path / "a").iterdir())
        assert written == sorted(child.name for child in (tmp_path / "b").iterdir())
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("class=2", "class=16", 18),
            ("traffic=trace", "traffic=trace frame=0", 18),
            ("traffic=trace", "traffic=trace timeout=0", 18),
            ("bound=5e-3", "bound=-1", 18),
            ("peak=2e8", "peak=inf", 18),
            ("link = hub b1 cap=1e9", "link = hub b1 cap=0", 7),
            ("link = hub b1", "link = hub hub", 7),
            ("scheme=modulation_bits", "scheme=modulation_bits prb=0", 10),
            ("mcs_step=0.2", "mcs_step=0.2 mcs_init=99", 11),
            ("pdcch=100", "pdcch=-100", 12),
            ("horizon = 0.02", "horizon = -1", 22),
            ("horizon = 0.02", "horizon = inf", 22),
            ("seed = 3", "seed = 3\nqueue_bytes = 0", 25),
            ("source = b1 quality=0", "source = b1 quality=0\nregen = 0.5 junk", 16),
            ("src=r1", "src=r1 srcs=r1", 18),
            ("scheme=modulation_bits", "scheme=modulation_bits filter=0.5", 10),
            ("control = r1", "ues = r1 count=2\ncontrol = r1", 12),
            ("prach_period=10", "prach_period=0", 12),
            ("source = b1", "source = r1", 15),
            ("source = b1 quality=0", "source = b1 quality=0\nregen = 2", 16),
            ("delay=1e-6\n\n", "delay=1e-6\nlink = b1 hub\n\n", 8),
            ("count=4", "count=-5", 11),
            ("node = b1 bbu", "node = b1 bbu\nnode = lone bbu", 6),
            ("delay=1e-6\n\n", "delay=1e-6\nnode = x1 rrh\nnode = x2 bbu\nlink = x1 x2\n\n", 0),
            ("src=r1", "srcs=r1,r2", 18),
            ("dst=b1", "dst=r1", 18),
            ("link = hub b1 cap=1e9", "link = hub b1 cap=nan", 7),
            ("link = hub b1 cap=1e9 delay=1e-6", "link = hub b1 cap=1e9 delay=nan", 7),
            ("seed = 3", "seed = 3\nheader_proc = nan", 25),
            ("seed = 3", "seed = 3\nheader_proc = inf", 25),
            ("horizon = 0.02", "horizon = nan", 22),
            ("traffic=trace", "traffic=cbr rate=nan", 18),
            ("traffic=trace", "traffic=cbr rate=inf", 18),
            ("mean_on=20", "mean_on=nan", 11),
            ("seed = 3", "seed = 3\nwrr_weights = 0:3,0:5", 25),
            ("scheme=modulation_bits", "scheme=modulation_bits sampling=inf", 10),
            ("scheme=modulation_bits", "scheme=modulation_bits subframe=inf", 10),
            ("scheme=modulation_bits", "scheme=modulation_bits overhead=inf", 10),
            ("link = hub b1 cap=1e9", "link = hub b1 cap=inf", 7),
            ("link = hub b1 cap=1e9 delay=1e-6", "link = hub b1 cap=1e9 delay=inf", 7),
            ("link = hub b1 cap=1e9", "link = hub b1 cap=1e9 jitter=inf", 7),
            ("source = b1 quality=0", "source = b1 quality=0 offset_ppb=inf", 15),
            ("source = b1 quality=0", "source = b1 quality=0 offset_ppb=-inf", 15),
            ("source = b1 quality=0", "source = b1 quality=0 offset_ppb=nan", 15),
            ("scheme=modulation_bits", "scheme=modulation_bits bandwidth=20e6", 10),
            ("scheme=modulation_bits", "scheme=modulation_bits role=dbs", 10),
            ("link = hub b1 cap=1e9", "link = hub b1 cap=1e9 jitter=1e308", 7),
            ("link = hub b1 cap=1e9", "link = hub b1 cap=1e9 jitter=1.5", 7),
            ("link = hub b1 cap=1e9", "link = hub b1 cap=1.01e15", 7),
            ("link = hub b1 cap=1e9", "link = hub b1 cap=1e300", 7),
            ("traffic=trace", "traffic=cbr rate=2.5e8", 18),
            ("traffic=trace", "traffic=cbr rate=1e11", 18),
            ("traffic=trace", "traffic=cbr rate=1e308", 18),
            ("node = b1 bbu", "node = b1 bbu\nnode = b1 rrh", 6),
            ("scheme=modulation_bits", "scheme=modulation_bits\ncell = r1", 11),
            ("source = b1 quality=0", "source = b1 quality=0\nsource = b1", 16),
            ("traffic=trace", "traffic=trace\nsession = dl src=r1 dst=b1 mean=1 peak=2 traffic=cbr rate=1", 19),
            ("source = b1", "source = zz", 15),
            ("cell = r1 scheme=modulation_bits", "cell = r1 scheme=classical_iq", 18),
            (
                "scheme=modulation_bits\nues = r1 count=4 mean_on=20 mean_off=20 demand=10",
                "scheme=modulation_bits prb=2000\nues = r1 count=4 mean_on=20 mean_off=20 demand=1000",
                18,
            ),
            # integers too large for a float, and volumes that overflow one
            pytest.param(
                "cell = r1 scheme=modulation_bits",
                f"cell = r1 scheme=classical_iq iq_bits={'9' * 400}",
                10,
                id="iq_bits-400-digits",
            ),
            pytest.param(
                "scheme=modulation_bits", f"scheme=modulation_bits layers={'9' * 400}", 10, id="layers-400-digits"
            ),
            pytest.param(
                "scheme=modulation_bits",
                f"scheme=modulation_bits res_per_prb={'9' * 400}",
                10,
                id="res_per_prb-400-digits",
            ),
            pytest.param("pdcch=100", f"pdcch={'9' * 400}", 12, id="pdcch-400-digits"),
            pytest.param(
                "scheme=modulation_bits", f"scheme=modulation_bits layers={'9' * 308}", 10, id="layers-308-digits"
            ),
            pytest.param(
                "scheme=modulation_bits", f"scheme=re_extraction iq_bits={'9' * 306}", 10, id="iq_bits-306-digits"
            ),
            ("count=4", "count=0", 10),  # a load-dependent scheme with no UE
            # a link has no class; users and subframes have upper bounds
            ("link = hub b1 cap=1e9", "link = hub b1 cap=1e9 class=wireless", 7),
            ("count=4", "count=65536", 11),
            pytest.param("count=4", f"count={'9' * 20}", 11, id="count-20-digits"),
            ("subframes = 20", "subframes = 10485761", 23),
            pytest.param("subframes = 20", f"subframes = {'9' * 20}", 23, id="subframes-20-digits"),
        ],
    )
    def test_malformed_input_names_its_line_before_any_output(self, tmp_path, old, new, line):
        text = MINIMAL.replace(old, new)
        assert text != MINIMAL
        out = tmp_path / "out"
        with pytest.raises(ScenarioError) as exc:
            run_scenario(parse_scenario(text), str(out))
        assert exc.value.line == line
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("node = lone bbu", "node 'lone' has no link"),
            ("node = x1 rrh\nnode = x2 bbu\nlink = x1 x2", "unreachable nodes: ['x1', 'x2']"),
        ],
    )
    def test_unlinked_or_unreachable_nodes_are_named(self, tmp_path, extra, message):
        text = MINIMAL.replace("[cells]", f"{extra}\n\n[cells]")
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run_scenario(parse_scenario(text), str(tmp_path / "out"))

    def test_largest_link_jitter_and_a_cbr_rate_at_its_peak_run(self, tmp_path):
        text = MINIMAL.replace("delay=1e-6", "delay=1e-6 jitter=1")
        text = text.replace("traffic=trace", "traffic=cbr rate=2e8")
        assert run_scenario(parse_scenario(text), str(tmp_path)) == 0
        rows = (tmp_path / "sync.csv").read_text().splitlines()[1:]
        assert [math.isfinite(float(row.split(",")[3])) for row in rows] == [True] * 3

    def test_largest_user_count_and_subframe_count_parse(self):
        text = MINIMAL.replace("count=4", "count=65535").replace("subframes = 20", "subframes = 10485760")
        scenario = parse_scenario(text)
        assert (scenario.cells[0].ues.count, scenario.engine.subframes) == (65535, 10485760)

    def test_every_user_of_a_cell_shares_one_profile(self, monkeypatch):
        real = fhsim.scenario.trace_rows
        seen = []

        def recording(cell, scheme, profiles, control, n_subframes, seed):
            seen.append(profiles)
            return real(cell, scheme, profiles, control, n_subframes, seed)

        monkeypatch.setattr(fhsim.scenario, "trace_rows", recording)
        build_scenario(parse_scenario(MINIMAL))
        [profiles] = seen
        assert len(profiles) == 4
        assert all(profile is profiles[0] for profile in profiles)

    def test_largest_link_capacity_runs(self, tmp_path):
        text = MINIMAL.replace("cap=1e9", "cap=1e15")
        assert run_scenario(parse_scenario(text), str(tmp_path)) == 0

    def test_scenario_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(ScenarioError(5, "bad")))
        assert (type(error), error.line, error.message, str(error)) == (ScenarioError, 5, "bad", "line 5: bad")

    def test_trace_error_in_a_forked_child_names_its_cell_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fhsim.fanout, "usable_cpus", lambda: 2)
        lines = ["[topology]", "node = hub switch", "node = b1 bbu", "link = hub b1 cap=1e9"]
        lines += [f"node = r{i} rrh\nlink = r{i} hub cap=1e9" for i in range(1, 5)]
        lines += ["[cells]"] + [f"cell = r{i} scheme=modulation_bits\nues = r{i} count=2" for i in range(1, 5)]
        lines += ["[sync]", "source = b1 quality=0", "[sessions]"]
        lines += ["session = dl src=r1 dst=b1 class=2 mean=5e7 peak=2e8 bound=5e-3 traffic=trace"]
        lines += ["[engine]", "horizon = 0.02", "subframes = 20", "seed = 3"]
        scenario = parse_scenario("\n".join(lines))
        assert [cell.node for cell in scenario.cells] == ["r1", "r2", "r3", "r4"]
        real = fhsim.scenario.trace_rows

        def failing(cell, scheme, profiles, control, n_subframes, seed):
            if seed == scenario.engine.seed + 3:
                raise ValueError("no trace for the last cell")
            yield from real(cell, scheme, profiles, control, n_subframes, seed)  # a generator, as trace_rows is

        monkeypatch.setattr(fhsim.scenario, "trace_rows", failing)
        out = tmp_path / "out"
        with pytest.raises(ScenarioError, match="no trace for the last cell") as exc:
            run_scenario(scenario, str(out))
        assert exc.value.line == scenario.cells[3].line
        assert not out.exists()

    def test_sweep_size_above_payload_limit_refused_before_any_output(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ScenarioError, match="got 70000"):
            run_scenario(parse_scenario(MINIMAL), str(out), sweep=[64, 70000])
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sweep": [64, 4]}, "line 0: sweep: frame size 4 below header length"),
            ({"sweep": [70000]}, "line 0: sweep: .*got 70000"),
            ({"subframes": 0}, "line 0: subframes: subframes must be >= 1, got 0"),
            ({"subframes": 10**20}, f"line 0: subframes: subframes must be <= 10485760, got {10**20}"),
            ({"seed": 1.5}, "line 0: seed: .*'1.5'"),
        ],
    )
    def test_bad_override_is_a_line_0_error_before_any_output(self, tmp_path, overrides, message):
        out = tmp_path / "out"
        with pytest.raises(ScenarioError, match=message) as exc:
            run_scenario(parse_scenario(MINIMAL), str(out), **overrides)
        assert exc.value.line == 0
        assert not out.exists()

    def test_sweep_mode(self, tmp_path):
        rc = run_scenario(parse_scenario(MINIMAL), str(tmp_path), sweep=[64, 512])
        assert rc == 0
        sweep = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 3


class TestStreamedTraceErrors:
    """On two CPUs run_scenario streams the cell traces from one forked producer.

    Every way out of it reaps that child, closes its pipe (both checked
    after every test) and leaves no output directory.
    """

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(fhsim.fanout, "usable_cpus", lambda: 2)

    @pytest.mark.parametrize(
        "old, new",
        [("class=2", "class=16"), ("traffic=trace", "traffic=trace frame=0"), ("mean=5e7", "mean=3e8")],
    )
    def test_a_session_line_failing_after_the_fork(self, tmp_path, forks, old, new):
        out = tmp_path / "out"
        with pytest.raises(ScenarioError) as exc:
            run_scenario(parse_scenario(MINIMAL.replace(old, new)), str(out))
        assert (exc.value.line, len(forks)) == (18, 1)
        assert not out.exists()

    def test_a_trace_above_its_peak_only_past_the_horizon(self, tmp_path, forks):
        # at seed 3 the cell's first 21 subframes (to the horizon) offer at
        # most 33,800 bits, and subframe 230 is the first to offer more
        text = MINIMAL.replace("mean=5e7 peak=2e8", "mean=1e7 peak=3.385e7")
        text = text.replace("subframes = 20", "subframes = 400")
        out = tmp_path / "out"
        with pytest.raises(ScenarioError, match="offers 33900 bits in subframe 230") as exc:
            run_scenario(parse_scenario(text), str(out))
        assert (exc.value.line, len(forks)) == (18, 1)
        assert not out.exists()

    def test_an_interrupt_inside_the_run(self, tmp_path, forks, monkeypatch):
        offers = []

        def interrupted(reg, now, bits):
            offers.append(now)
            if len(offers) == 5:
                raise KeyboardInterrupt
            return real_offer(reg, now, bits)

        real_offer = fhsim.engine.Regulator.offer
        monkeypatch.setattr(fhsim.engine.Regulator, "offer", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run_scenario(parse_scenario(MINIMAL), str(out))
        assert (len(offers), len(forks)) == (5, 1)
        assert not out.exists()


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "latency-tiers" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("[topology]\nnode = r1 spaceship\n")
        assert main([str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_rejected_value_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(MINIMAL.replace("scheme=modulation_bits", "scheme=modulation_bits prb=0"))
        assert main([str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "line 10" in capsys.readouterr().err

    def test_sweep_below_header_exit_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ring-bbu-exchange", "--out", str(out), "--sweep", "64,4"]) == 2
        assert "below header length" in capsys.readouterr().err
        assert not out.exists()

    def test_file_that_is_not_utf8_exit_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "binary.scn"
        bad.write_bytes(bytes(range(56, 256)))  # 200 bytes, the first non-ASCII one at offset 72
        out = tmp_path / "out"
        assert main([str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{bad}: line 0: not UTF-8")
        assert not out.exists()

    def test_bad_subframes_flag_exit_2_at_line_0(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["cran-aggregation", "--out", str(out), "--subframes", "0"]) == 2
        assert capsys.readouterr().err == "cran-aggregation: line 0: subframes: subframes must be >= 1, got 0\n"
        assert not out.exists()

    def test_sweep_that_is_not_a_number_list_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["cran-aggregation", "--out", str(out), "--sweep", "64,abc"])
        assert exc.value.code == 2
        assert "argument --sweep: invalid frame_sizes value: '64,abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scenario_exit_2(self, tmp_path, capsys):
        assert main(["no-such-scenario", "--out", str(tmp_path)]) == 2

    def test_directory_as_scenario_exit_2_naming_it(self, tmp_path, capsys):
        assert main([str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(tmp_path) in err[0]

    def test_file_as_output_directory_exit_2_naming_it(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["cran-aggregation", "--out", str(taken)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(taken) in err[0]

    def test_run_bundled_by_name(self, tmp_path):
        assert main(["cran-aggregation", "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "sessions.csv").exists()

    def test_subframes_and_seed_flags(self, tmp_path):
        rc = main(
            [
                "cran-aggregation",
                "--out",
                str(tmp_path / "out"),
                "--seed",
                "99",
                "--subframes",
                "10",
            ]
        )
        assert rc == 0
        trace = (tmp_path / "out" / "trace_rrh1.csv").read_text().splitlines()
        assert len(trace) == 11


# MINIMAL with a CBR session beside the traced one, a regen factor and
# every [engine] key, so that each key of each line kind is on a line.
FUZZ_BASE = (
    MINIMAL.replace("source = b1 quality=0", "source = b1 quality=0 offset_ppb=0\nregen = 0.5")
    .replace(
        "traffic=trace\n",
        "traffic=trace\nsession = bg src=r1 dst=b1 class=5 mean=1e7 peak=2e7 bound=1e-2"
        " traffic=cbr rate=1e7 frame=500 timeout=1e-3 ue=1 optional=false scheme=classical_iq\n",
    )
    .replace("scheduler = strict_priority\n", "scheduler = wrr\nwrr_weights = 2:3,5:1\n")
    .replace(
        "seed = 3\n",
        "seed = 3\nqueue_bytes = 262144\ninput_buffer_bytes = 262144\nheader_proc = 1e-6\n"
        "frame_bytes = 1000\nframe_timeout = 1e-3\n",
    )
)
FUZZ_VALUES = ["0", "-1", "2.5", "1e-308", "1e308", "inf", "-inf", "nan", str(10**20), "x", ""]


def fuzz_targets(text: str) -> list[tuple[int, str, tuple[str, ...]]]:
    """(line index, key, the keys filling its field) for every key the tables of each line's kind read."""
    targets, section = [], None
    for index, line in enumerate(text.splitlines()):
        head = line.partition("=")[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif section in _SETTINGS and head in _SETTINGS[section].codecs:
            targets.append((index, head, (head,)))
        elif section == "cells" and head in _CELL_PARTS:
            table = _CELL_PARTS[head]
            targets += keys_of(index, [table, *table.parts.values()])
        elif (section, head) in _ENTRIES:
            table = _ENTRIES[section, head].keys
            targets += keys_of(index, [table, *table.parts.values()])
    return targets


def keys_of(index: int, tables: list) -> list[tuple[int, str, tuple[str, ...]]]:
    return [
        (index, key, tuple(k for k, (other, *_) in table.codecs.items() if other == name))
        for table in tables
        for key, (name, *_) in table.codecs.items()
    ]


def with_value(text: str, target: tuple[int, str, tuple[str, ...]], raw: str) -> str:
    """`text` with the key of `target` set to raw on its line, in place of any key filling the same field."""
    index, key, same = target
    lines = text.splitlines()
    head, _, rest = lines[index].partition("=")
    if head.strip() == key:  # a `key = value` setting
        lines[index] = f"{key} = {raw}"
    else:
        tokens = [token for token in rest.split() if token.partition("=")[0] not in same]
        lines[index] = " ".join([f"{head.strip()} =", *tokens, f"{key}={raw}"])
    return "\n".join(lines)


FUZZ_TARGETS = fuzz_targets(FUZZ_BASE)


class TestOneBadValue:
    """Any one key set to any one odd value fails, if at all, as ScenarioError."""

    def test_the_base_holds_every_key(self):
        assert parse_scenario(FUZZ_BASE).engine.scheduler == "wrr"
        keys = {key for _, key, _ in FUZZ_TARGETS}
        tables = [entry.keys for entry in _ENTRIES.values()] + [*_CELL_PARTS.values(), *_SETTINGS.values()]
        tables += [part for table in tables for part in table.parts.values()]
        assert keys == {key for table in tables for key in table.codecs}

    @given(target=st.sampled_from(FUZZ_TARGETS), raw=st.sampled_from(FUZZ_VALUES))
    @settings(derandomize=True, max_examples=1500, deadline=None)
    def test_fails_only_as_scenario_error(self, target, raw):
        # the engine runs only on worlds of a bounded size: a huge but
        # valid rate is a resource question, not a crash
        try:
            scenario = parse_scenario(with_value(FUZZ_BASE, target, raw))
        except ScenarioError:
            return
        assert parse_scenario(render_scenario(scenario)) == scenario
        try:
            built = build_scenario(scenario)
        except ScenarioError:
            return
        topology = built.world.topology
        sources = [ClockSource(built.node_id[s.node], s.quality, s.offset_ppb) for s in scenario.sources]
        propagate_sync(build_sync_tree(topology, sources), topology, scenario.regen_factor)
        if packet_bound(built.world) > 20_000:
            return
        # the controller's wiring passes every check before the first event,
        # and the same world runs to the same result again
        result = run(built.world, scenario.engine.horizon)
        assert run(built.world, scenario.engine.horizon) == result
        # conservation: what was injected or replicated and neither delivered
        # nor dropped is still queued or on the wire at the horizon
        assert result.total().in_flight == result.residual_packets


def packet_bound(world) -> int:
    """More packets than the world's feeds can offer: whole frames, plus a flush per subframe."""
    return sum(
        math.ceil(sum(feed.volumes) / (8 * feed.policy.max_frame_bytes)) + len(feed.volumes)
        for feed in world.circuits
    )
