"""The three benchmark workloads: input generation, one pass, output checks.

Every workload is a closed loop with one caller: the next call into
fhsim starts only after the previous one returned. All inputs are made
from the seed in `prepare` (counted in set-up time); `run_pass` then
drives fhsim's public API and returns host timings, output digests and
any broken invariant. fhsim modules are looked up through their module
attributes at call time so that a traced pass sees its wrappers.

* tiers: the bundled `latency-tiers` scenario through `parse_scenario`
  and `run_scenario`; the seed is passed as the run seed. Every source
  is constant-bit-rate, so the outputs are the same for every seed.
* cells: a `.scn` text generated from the seed (4-switch ring, 12 cells
  of about 48 users, modulation-bits and RE-extraction splits, weighted
  round robin trunks, one multi-BBU distribution tree) through
  `parse_scenario` and `run_scenario`.
* ctrl: the controller alone on an 8-switch ring (16 RRHs, 4 BBUs):
  grow (3000 setups), cut (one trunk, `reroute_on_failure`), churn
  (1000 teardown + setup pairs), drain (teardown of every session).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import fhsim
import fhsim.cli
import fhsim.scenario

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
# latency-tiers has only CBR sources, so one digest set covers every seed.
ANY_SEED = "any"


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


@dataclass
class PassResult:
    wall_s: float
    work: int  # delivered packets (tiers, cells) or controller calls (ctrl)
    attempted: int  # public-API operations the pass made
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)  # broken invariants, bad exit codes
    phases: dict[str, list[float]] = field(default_factory=dict)  # host seconds per operation


# ---------------------------------------------------------------------------
# tiers and cells: whole scenarios through run_scenario


@dataclass
class ScenarioInputs:
    name: str
    text: str
    seed: int


def scenario_pass(inputs: ScenarioInputs, out_dir: str) -> PassResult:
    start = perf_counter()
    scenario = fhsim.scenario.parse_scenario(inputs.text, name=inputs.name)
    status = fhsim.scenario.run_scenario(scenario, out_dir, seed=inputs.seed)
    wall = perf_counter() - start
    result = PassResult(wall_s=wall, work=0, attempted=2)
    if status != 0:
        result.problems.append(f"run_scenario returned {status}, expected 0")
    result.digests = {
        name: sha256_file(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))
    }
    delivered, problems = check_conservation(os.path.join(out_dir, "sessions.csv"))
    result.work = delivered
    result.problems.extend(problems)
    return result


def check_conservation(sessions_csv: str) -> tuple[int, list[str]]:
    """Delivered packets and broken invariants of a sessions.csv table.

    Per session: injected + replicated = delivered + dropped + in_flight,
    with every count non-negative.
    """
    problems = []
    delivered = 0
    with open(sessions_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        problems.append("sessions.csv has no sessions")
    for row in rows:
        try:
            n = {k: int(row[k]) for k in (
                "injected", "replicated", "delivered", "dropped_unroutable",
                "dropped_overflow", "in_flight",
            )}
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"sessions.csv row {row.get('session_id')!r}: {exc}")
            continue
        if min(n.values()) < 0:
            problems.append(f"session {row['session_id']}: negative count {n}")
        if n["injected"] + n["replicated"] != (
            n["delivered"] + n["dropped_unroutable"] + n["dropped_overflow"] + n["in_flight"]
        ):
            problems.append(f"session {row['session_id']}: packets not conserved {n}")
        delivered += n["delivered"]
    return delivered, problems


def prepare_tiers(seed: int) -> ScenarioInputs:
    text, name = fhsim.cli.load_scenario_text("latency-tiers")
    fhsim.scenario.parse_scenario(text, name=name)
    return ScenarioInputs(name=name, text=text, seed=seed)


def cells_text(seed: int) -> str:
    """A 12-cell ring scenario drawn from `seed`.

    Every cell is loaded past its 100 PRBs (about 48 users asking for
    several PRBs each), and user counts, on/off means and PRB demands come
    in mirrored pairs, so offered volume, packet count, memory and run
    time vary little between seeds. Frames are large (40 kB for RE extraction, 8 kB
    for modulation bits) to keep the run near 50k delivered packets.
    """
    rng = random.Random(seed)
    n_cells = 12
    schemes = ["modulation_bits"] * 6 + ["re_extraction"] * 6
    rng.shuffle(schemes)

    def mirrored(center: int, spread: int) -> list[int]:
        """Per-cell values in pairs center +/- x, so their sum is the same for every seed."""
        offsets = [rng.randint(-spread, spread) for _ in range(n_cells // 2)]
        return [center + x for x in offsets] + [center - x for x in offsets]

    ue_counts = mirrored(48, 4)  # 576 users in all
    mean_on, mean_off, demand = mirrored(40, 20), mirrored(40, 20), mirrored(9, 3)
    tree_cell = rng.randrange(n_cells)

    out = ["[topology]"]
    out += [f"node = s{i} switch" for i in range(4)]
    out += ["node = bbu0 bbu", "node = bbu1 bbu"]
    out += [f"node = c{i} rrh" for i in range(n_cells)]
    out += [f"link = s{i} s{(i + 1) % 4} cap=10e9 delay=5e-6 jitter=1e-9" for i in range(4)]
    out += ["link = bbu0 s0 cap=10e9 delay=2e-6 jitter=1e-9"]
    out += ["link = bbu1 s2 cap=10e9 delay=2e-6 jitter=1e-9"]
    out += [f"link = c{i} s{i % 4} cap=10e9 delay=2e-6 jitter=1e-9" for i in range(n_cells)]

    out += ["", "[cells]"]
    for i, scheme in enumerate(schemes):
        extra = " antennas=2" if scheme == "re_extraction" else ""
        out.append(f"cell = c{i} scheme={scheme}{extra}")
        out.append(
            f"ues = c{i} count={ue_counts[i]} mean_on={mean_on[i]} "
            f"mean_off={mean_off[i]} demand={demand[i]} "
            f"mcs_step={rng.choice((0.1, 0.2, 0.3, 0.4))}"
        )
        out.append(f"control = c{i} pdcch=144 prach_period=10 prach_res=144")

    out += ["", "[sync]", "source = bbu0 quality=0 offset_ppb=0"]
    out += [f"source = bbu1 quality=1 offset_ppb={rng.choice((-3.0, -1.5, 2.0))}", "regen = 0.5"]

    out += ["", "[sessions]"]
    for i, scheme in enumerate(schemes):
        if scheme == "re_extraction":
            rates = "mean=8e8 peak=1.1e9 frame=40000"
        else:
            rates = "mean=8e7 peak=1.2e8 frame=8000"
        if i == tree_cell:
            shape = "pattern=multi_bbu dsts=bbu0,bbu1"
        else:
            shape = f"pattern=p2p dst=bbu{rng.randrange(2)}"
        out.append(
            f"session = cell{i} {shape} src=c{i} class={rng.randint(1, 6)} "
            f"{rates} bound=3e-3 scheme={scheme} traffic=trace"
        )

    out += ["", "[engine]", "scheduler = wrr", "wrr_weights = 1:6,2:5,3:4,4:3,5:2,6:1"]
    out += ["queue_bytes = 1048576", "input_buffer_bytes = 1048576", "header_proc = 1e-6"]
    out += ["frame_bytes = 16000", "frame_timeout = 1e-3", "horizon = 2.005", "subframes = 2000"]
    out += [f"seed = {seed}", ""]
    return "\n".join(out)


def prepare_cells(seed: int) -> ScenarioInputs:
    text = cells_text(seed)
    fhsim.scenario.parse_scenario(text, name="cells")
    return ScenarioInputs(name="cells", text=text, seed=seed)


# ---------------------------------------------------------------------------
# ctrl: the controller alone

CTRL_GROW = 3000
CTRL_CHURN = 1000
CTRL_SWITCHES = 8


@dataclass
class CtrlInputs:
    topology: object
    grow: list  # SessionRequest, one per grow setup
    churn: list  # (pick in [0, 1), SessionRequest): which active session goes, what replaces it


def _ctrl_requests(topology, rng: random.Random, count: int) -> list:
    """Point-to-point requests; 60% go to the BBU nearest the RRH's switch."""
    rrhs = [n.id for n in topology.nodes_of_kind(fhsim.NodeKind.RRH)]
    bbus = [n.id for n in topology.nodes_of_kind(fhsim.NodeKind.BBU)]
    switch_of = {leaf: next(iter(topology.neighbors(leaf)))[0] for leaf in rrhs + bbus}

    def ring_distance(a, b):
        d = (switch_of[a] - switch_of[b]) % CTRL_SWITCHES
        return min(d, CTRL_SWITCHES - d)

    nearest = {r: min(bbus, key=lambda b: (ring_distance(r, b), b)) for r in rrhs}
    requests = []
    for _ in range(count):
        rrh = rng.choice(rrhs)
        bbu = nearest[rrh] if rng.random() < 0.6 else rng.choice(bbus)
        peak = rng.uniform(5e6, 40e6)
        requests.append(
            fhsim.SessionRequest(
                pattern=fhsim.LogicalPattern(fhsim.PointToPoint(rrh, bbu)),
                mean_rate=peak / 2,
                peak_rate=peak,
                latency_class=rng.randrange(16),
                latency_bound=1e-3,
                policy=fhsim.RegulatorPolicy(max_frame_bytes=rng.choice((500, 1000, 1500))),
            )
        )
    return requests


def prepare_ctrl(seed: int) -> CtrlInputs:
    rng = random.Random(seed)
    attachments = tuple((i // 2, fhsim.NodeKind.RRH) for i in range(16))
    attachments += tuple((2 * i, fhsim.NodeKind.BBU) for i in range(4))
    topology = fhsim.build_topology(
        fhsim.Ring(CTRL_SWITCHES, attachments, attach_link=fhsim.LinkParams(capacity=40e9))
    )
    grow = _ctrl_requests(topology, rng, CTRL_GROW)
    churn = list(zip((rng.random() for _ in range(CTRL_CHURN)), _ctrl_requests(topology, rng, CTRL_CHURN)))
    return CtrlInputs(topology=topology, grow=grow, churn=churn)


def _ledger_digest(ledger) -> str:
    snapshot = ledger.snapshot()
    return sha256_json(
        [[list(key), sorted((sid, repr(rate)) for sid, rate in held.items())]
         for key, held in sorted(snapshot.items())]
    )


def ctrl_pass(inputs: CtrlInputs, out_dir: str) -> PassResult:
    """grow, cut, churn, drain; wall time excludes the digests taken between phases."""
    Infeasible = fhsim.Infeasible
    controller = fhsim.Controller(inputs.topology)
    result = PassResult(wall_s=0.0, work=0, attempted=0)
    setup_s, churn_s = [], []
    active = []

    start = perf_counter()
    for request in inputs.grow:
        t = perf_counter()
        try:
            active.append(controller.setup(request))
        except Infeasible:
            pass
        setup_s.append(perf_counter() - t)
    grow = perf_counter() - start
    result.digests["ledger_grow"] = _ledger_digest(controller.ledger)

    trunks = [k for k in controller.ledger.link_keys() if max(k) < CTRL_SWITCHES]
    cut = max(trunks, key=lambda k: (controller.ledger.reserved(k), k))
    start = perf_counter()
    controller.reroute_on_failure(cut)
    reroute = perf_counter() - start
    result.digests["ledger_cut"] = _ledger_digest(controller.ledger)

    alive = [s for s in active if s.state == "active"]
    start = perf_counter()
    for pick, request in inputs.churn:
        t = perf_counter()
        controller.teardown(alive.pop(int(pick * len(alive))))
        try:
            alive.append(controller.setup(request))
        except Infeasible:
            pass
        churn_s.append(perf_counter() - t)
    churn = perf_counter() - start
    result.digests["ledger_churn"] = _ledger_digest(controller.ledger)

    log_path = os.path.join(out_dir, "control_log.csv")
    start = perf_counter()
    for session in alive:
        controller.teardown(session)
    controller.write_log_csv(log_path)
    drain = perf_counter() - start
    result.digests["control_log.csv"] = sha256_file(log_path)

    if controller.ledger.snapshot():
        result.problems.append("ledger not empty after drain")
    if any(sw.table for sw in controller.switches.values()) or controller.egress:
        result.problems.append("forwarding entries left after drain")

    result.wall_s = grow + reroute + churn + drain
    result.attempted = len(inputs.grow) + 1 + 2 * len(inputs.churn) + len(alive) + 1
    result.work = result.attempted
    result.phases = {"setup": setup_s, "churn": churn_s, "reroute": [reroute]}
    return result


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    prepare: object  # seed -> inputs
    run_pass: object  # (inputs, out_dir) -> PassResult


WORKLOADS = {
    "tiers": Workload(prepare_tiers, scenario_pass),
    "cells": Workload(prepare_cells, scenario_pass),
    "ctrl": Workload(prepare_ctrl, ctrl_pass),
}


def expected_digests(workload: str, seed: int) -> dict | None:
    """Recorded digests for (workload, seed), or None when the seed was not recorded."""
    recorded = load_digests().get(workload, {})
    return recorded.get(ANY_SEED) or recorded.get(str(seed))


def digest_problems(expected: dict, got: dict) -> list[str]:
    problems = [f"{name}: digest mismatch" for name in sorted(expected) if got.get(name) != expected[name]]
    problems += [f"{name}: unexpected output" for name in sorted(set(got) - set(expected))]
    return problems
