"""Golden outputs: the sha256 of every file `run_scenario` writes.

Each bundled scenario runs at its default seed, each one with cells
both on one usable CPU and on two, where its traces stream from a
forked child. Three of them also run with a frame-size sweep, which
reruns the same world and so catches run state left behind on ports or
packets. Any change to these digests is a
change in what fhsim computes and must be named as such.
"""

import hashlib
from dataclasses import replace

import pytest

from fhsim.cli import load_scenario_text
from fhsim.scenario import parse_scenario, run_scenario

GOLDEN = {
    "cd-decoupling": {
        "control_log.csv": "dde0bfc4142e28877987a27e6cc776aef727fa74407d30fd0eac8b216a7ba268",
        "global.csv": "54a7e1c916ea387dbdd7c392a8b7838568d20704ef9cc0c20a64a831ebd14516",
        "links.csv": "5115417d3420d30e834f8c1d59edc37957408761271359c616044e1ed870cd4e",
        "sessions.csv": "2c8bdb7a0ed3e9bca9cd45f849689a2064b81e4f8073356c53ee3bb863492f8c",
        "sync.csv": "25ae4867973feaba26ba1b3e359db253584b6119b1bf1d707b6921aa331c661a",
        "trace_cbs1.csv": "dfbbee4c1b7ca44c16ef04842a89661e52b90fafb45b160572a67eec9bf9f8ff",
        "trace_dbs1.csv": "d644283dc710d86e30f4df96394caa4cdd8b33d25f0c4cfe5e9e11bfeb3e4b57",
        "trace_dbs2.csv": "bb3b817dd413b32537e433ea6093b336ea5e63461cd2092b2f039b40f89c7ce8",
    },
    "cran-aggregation": {
        "control_log.csv": "63cebe8219bb39e4d8cc9fdb4f6db185f02e0e4ac5e70e37fd6bb1b7da31e862",
        "global.csv": "578fd4265f08bb1c9a74fef6e3ff5884913d9e2dc212499c8b02d5fc4a8256f1",
        "links.csv": "3c1b4ed7c4e3bfb04c8b3fd814a017996fc853b2be4b0da28a93291e33506582",
        "sessions.csv": "c9500679557b0783e151d47aaffcdcc982f3e50910ad966e4bd9f5602581d244",
        "sync.csv": "ac50c74c1253acceacbcec0628a002f98e85601a66acb20e3145c4b59edf989f",
        "trace_rrh1.csv": "26df9c05c60adfd092fd03f082b2178eae2963ae785c9dab0cf18fc539ee6730",
        "trace_rrh2.csv": "82cf8139dbf3c594a09fa45842cdb54545d79401edee8de3d805eb64d8022375",
        "trace_rrh3.csv": "3776e03fc2fb482689215453204623153ff7189e78283837558d4927b111cccb",
    },
    "device-centric": {
        "control_log.csv": "3cc70bd63fd1f791804ed28a86069a1c2d71fd9d1f6b4b88a2de3b1aed54b1b8",
        "global.csv": "57b600bf57f797ea908dfd9fb7aa3ef20182af6aa30fd8039fd148f07e984e0f",
        "links.csv": "2dcd85fea3fb79ddb08cb3a771aa928e35022f0588ba810f295f6a4dd3d9547a",
        "sessions.csv": "6302a8427cd5ca9e8490b45ac1397fd9105eabbdd6f13f6316f5eb760fa0a1b9",
        "sync.csv": "60f9751ef6743aaa13cf49cc198449ee22bbb6454c370ea2c14ab39535063cee",
        "trace_rrh2.csv": "bd8745702c0946118fdf6c6f8ab01ec3d80ea89d8667b24db31d759441606066",
    },
    "latency-tiers": {
        "control_log.csv": "a0429d76d72b84ae4445b95c0efbb2b2b6cd646fffb71f41ea003f3594188729",
        "global.csv": "f420a52edbd35044bc1b8b33e677890104fb3551855a316542fabe9e2e5372b6",
        "links.csv": "e98809775626e0a1cabf67da68f99396856099ce3c04d2999d3cfc0a7afae601",
        "sessions.csv": "9026ed7413a75469e52d13d704926cb83e95dcf0cf78e971c9f9f77374b65871",
        "sync.csv": "1532617bb7936c10d097d9459202ced30fcfbf4b7351cf9b25b9c039459f7ebb",
    },
    "ring-bbu-exchange": {
        "control_log.csv": "4b82fdd9b96057b3ce40adf2340685ec87c9f50e5a5315154165540db23b0766",
        "global.csv": "033aaa4281224a55ca0eda627c2732905ab0ea9e6c47c9613a4c6650a92873c3",
        "links.csv": "c70766f5754058671187d7fefe6b4a806d3ad8e0743bc35ac2351f83936f4e02",
        "sessions.csv": "a1b5d42af67a27cb00b3f54fb666d333c9810fa4e33cb65f9d89f61720e2b38c",
        "sync.csv": "3914bd862e7134a6b241714fdb9a64c6f3622304de391c3f6e4d60aa83c09c91",
        "trace_rrh0.csv": "d5b5f910e5d3801e6b329189a71d8e9eba8d233cb4f1b9878061988bd42fb9ec",
        "trace_rrh1.csv": "ee99129b5bb3be4d814b5175a7b44c9fe29f701bfc74eb07956851f50ab8c204",
    },
}

# sweep=[64, 512]: every file above unchanged, plus sweep.csv
SWEEP_CSV = {
    "cd-decoupling": "6449d2d08b59f357302f9a93a473f12c97cfd8713ab40b930fcbb9964e4fbef4",
    "cran-aggregation": "9d4dcd0e37c8d1d2139b53212b1c4e85c548590c6edf3046ce28f11728467718",
    "device-centric": "d3e398ac825b059bd8351abe468b0ba6e41cc4c79e43f34403cbba19f891d007",
}

# latency-tiers rerun with scheduler = fifo (the control run of
# acceptance criterion 3): no bundled scenario runs FIFO.
FIFO_TIERS = {
    "global.csv": "f420a52edbd35044bc1b8b33e677890104fb3551855a316542fabe9e2e5372b6",
    "links.csv": "e98809775626e0a1cabf67da68f99396856099ce3c04d2999d3cfc0a7afae601",
    "sessions.csv": "c9f8b8399ff90b9a74b895927c9c5ef2c0bb40121e068d90fb36d282ea715ca1",
}

# latency-tiers rerun with scheduler = wrr, 3 packets a visit for the
# urgent class 0 and 2 for class 7: no bundled scenario runs WRR.
WRR_TIERS = {
    "global.csv": "f420a52edbd35044bc1b8b33e677890104fb3551855a316542fabe9e2e5372b6",
    "links.csv": "345721b18a8aea846640fba1d2632071723fe2759e9ddcea8e7744b1d05d4599",
    "sessions.csv": "4bdb5d8d8d962c46783be161a6a5880ead4e2e3fc7ebe77754a3f0c8fa987903",
}


def _digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


# every scenario with cells runs with its traces made in-process (1 CPU)
# and streamed from one forked producer (2 CPUs); latency-tiers has none
CPU_CASES = [
    (name, n)
    for name in sorted(GOLDEN)
    for n in ((1, 2) if parse_scenario(load_scenario_text(name)[0]).cells else (1,))
]


@pytest.mark.parametrize("name, n", CPU_CASES)
def test_bundled_outputs_match_golden(cpus, forks, tmp_path, name, n):
    cpus(n)
    text, _ = load_scenario_text(name)
    assert run_scenario(parse_scenario(text, name=name), str(tmp_path)) == 0
    assert len(forks) == (n > 1)
    assert _digests(tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SWEEP_CSV))
def test_sweep_outputs_match_golden(tmp_path, name):
    text, _ = load_scenario_text(name)
    assert run_scenario(parse_scenario(text, name=name), str(tmp_path), sweep=[64, 512]) == 0
    assert _digests(tmp_path) == {**GOLDEN[name], "sweep.csv": SWEEP_CSV[name]}


def test_fifo_outputs_match_golden(tmp_path):
    text, _ = load_scenario_text("latency-tiers")
    scenario = parse_scenario(text, name="latency-tiers")
    fifo = replace(scenario, engine=replace(scenario.engine, scheduler="fifo"))
    assert run_scenario(fifo, str(tmp_path)) == 0
    digests = _digests(tmp_path)
    assert {name: digests[name] for name in FIFO_TIERS} == FIFO_TIERS


def test_wrr_outputs_match_golden(tmp_path):
    text, _ = load_scenario_text("latency-tiers")
    scenario = parse_scenario(text, name="latency-tiers")
    engine = replace(scenario.engine, scheduler="wrr", wrr_weights=((0, 3), (7, 2)))
    assert run_scenario(replace(scenario, engine=engine), str(tmp_path)) == 0
    digests = _digests(tmp_path)
    assert {name: digests[name] for name in WRR_TIERS} == WRR_TIERS
