import math
import pickle
import re

import pytest

import fhsim.fanout
import fhsim.scenario
from fhsim.cli import bundled_scenario_names, load_scenario_text, main
from fhsim.scenario import (
    ScenarioError,
    build_scenario,
    parse_scenario,
    render_scenario,
    run_scenario,
)

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
        ).replace("source = b1 quality=0", "source = hub quality=0")
        scenario = parse_scenario(text)
        assert ("gps", "timing") in [(n.name, n.kind) for n in scenario.nodes]
        assert run_scenario(scenario, str(tmp_path)) == 0
        sync = (tmp_path / "sync.csv").read_text().splitlines()
        assert len(sync) == 1 + 4  # hub, both hosts, and the timing node

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
        real = fhsim.scenario.generate_trace

        def failing(cell, scheme, profiles, control, n_subframes, seed):
            if seed == scenario.engine.seed + 3:
                raise ValueError("no trace for the last cell")
            return real(cell, scheme, profiles, control, n_subframes, seed)

        monkeypatch.setattr(fhsim.scenario, "generate_trace", failing)
        out = tmp_path / "out"
        with pytest.raises(ScenarioError, match="no trace for the last cell") as exc:
            run_scenario(scenario, str(out))
        assert exc.value.line == scenario.cells[3].line
        assert not out.exists()

    def test_sweep_size_above_payload_limit_refused_before_any_output(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="got 70000"):
            run_scenario(parse_scenario(MINIMAL), str(out), sweep=[64, 70000])
        assert not out.exists()

    def test_sweep_mode(self, tmp_path):
        rc = run_scenario(parse_scenario(MINIMAL), str(tmp_path), sweep=[64, 512])
        assert rc == 0
        sweep = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 3


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
