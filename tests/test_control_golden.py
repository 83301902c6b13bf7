"""Golden control state: the forwarding entries and circuits setup installs.

For each bundled scenario at its default seed, the sha256 of the sorted
switch tables and of every circuit's (session, circuit id, nodes, ingress
port, ingress label, egress label, entries), its entries being the
(node, in_port, label_in, out_port, label_out) of each switch it crosses,
derived from its arrivals. The bundled scenarios cover point-to-point,
aggregation, bbu-to-bbu and multi-BBU tree sessions, so these digests
pin the labels and entries of every session shape. Any change to them
is a change in what the controller installs.

The benchmark's `ctrl` workload at seed 0 pins labels beyond those
sessions: the sha256 of the sorted switch tables and egress bindings
after its 3,000 grow setups, and again after its trunk cut reroutes
every session on the most loaded trunk.
"""

import hashlib
import os
import sys

import pytest

from fhsim.cli import load_scenario_text
from fhsim.control import Controller, Infeasible
from fhsim.scenario import build_scenario, parse_scenario

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

GOLDEN = {
    "cd-decoupling": (
        "e78a6cd270aefb71767c893abb2f7a504cd1efb9e5981725503f2ba9eb81e34d",
        "9a485ae0f6f9fdc2280abd45c5409f57b4449a5caf54bcd1efa769a1ce85914e",
    ),
    "cran-aggregation": (
        "e78a6cd270aefb71767c893abb2f7a504cd1efb9e5981725503f2ba9eb81e34d",
        "bc37d5769d11d9bdf799c74570fb12c5d4bb2541b073b1ca29f04deafa2c78fb",
    ),
    "device-centric": (
        "10cc6db5b9e2a88b1ea2f359f0e0a254613264c9d75d679ae44b6d7639c7d247",
        "58e011fb0efdaf465b1f2fe5e345db1af59df8971230e84b2ff2fd43ab483437",
    ),
    "latency-tiers": (
        "53ce1275973a57fa9b8c5bde10fb0a104692741a6e2d817f2885ec78580aec52",
        "bcddabb2918b3da16e1c24e6456b21d6828c70ebef29511981e5cb12ee531659",
    ),
    "ring-bbu-exchange": (
        "4312f53255de28dc9dfc82cffc5ce6f099ed19a907478bd83458fe2b408d3d99",
        "e4cbbf702a12214597c5c8143c5384587f46673f9186c056f8961e83c01a02e6",
    ),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def control_state_digests(controller) -> tuple[str, str]:
    tables = [
        (node, sorted(switch.table.items())) for node, switch in sorted(controller.switches.items())
    ]
    circuits = [
        (
            session.id,
            c.circuit_id,
            c.nodes,
            c.ingress_port,
            c.ingress_label,
            c.egress_label,
            entries(controller.topology, c),
        )
        for session in controller.sessions.values()
        for c in session.circuits
    ]
    return _sha(tables), _sha(circuits)


def entries(topology, circuit):
    """(node, in_port, label_in, out_port, label_out) of each switch the circuit crosses, in order."""
    return [
        (*at, topology.link_between(node, peer).port_of(node), label_out)
        for at, (_, _, label_out), node, peer in zip(
            circuit.arrivals, circuit.arrivals[1:], circuit.nodes[1:], circuit.nodes[2:]
        )
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_control_state_matches_golden(name):
    text, _ = load_scenario_text(name)
    built = build_scenario(parse_scenario(text, name=name))
    assert control_state_digests(built.controller) == GOLDEN[name]


CTRL_SEED_0 = (
    "b39da3068ef986e78777e11a24d79cc96b63b63f778157fc2bdf123274faaf34",
    "6420b7a8d9326463ca692263424f8a8fdcc2555464d4520aa4e0299b996d1d4f",
)


def forwarding_digest(controller) -> str:
    tables = [(node, sorted(switch.table.items())) for node, switch in sorted(controller.switches.items())]
    return _sha((tables, sorted(controller.egress.items())))


def test_ctrl_seed_0_forwarding_state_matches_golden():
    inputs = workloads.prepare_ctrl(0)
    controller = Controller(inputs.topology)
    for request in inputs.grow:
        try:
            controller.setup(request)
        except Infeasible:
            pass
    grown = forwarding_digest(controller)
    # the trunk the benchmark cuts: the most reserved, the largest key on a tie
    trunks = [k for k in controller.ledger.link_keys() if max(k) < workloads.CTRL_SWITCHES]
    controller.reroute_on_failure(max(trunks, key=lambda k: (controller.ledger.reserved(k), k)))
    assert (grown, forwarding_digest(controller)) == CTRL_SEED_0
