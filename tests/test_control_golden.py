"""Golden control state: the forwarding entries and circuits setup installs.

For each bundled scenario at its default seed, the sha256 of the sorted
switch tables and of every circuit's (session, circuit id, nodes, ingress
port, ingress label, egress label, hops). The bundled scenarios cover
point-to-point, aggregation, bbu-to-bbu and multi-BBU tree sessions, so
these digests pin the labels and entries of every session shape. Any
change to them is a change in what the controller installs.
"""

import hashlib

import pytest

from fhsim.cli import load_scenario_text
from fhsim.scenario import build_scenario, parse_scenario

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
            [(h.node, h.in_port, h.label_in, h.out_port, h.label_out) for h in c.hops],
        )
        for session in controller.sessions.values()
        for c in session.circuits
    ]
    return _sha(tables), _sha(circuits)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_control_state_matches_golden(name):
    text, _ = load_scenario_text(name)
    built = build_scenario(parse_scenario(text, name=name))
    assert control_state_digests(built.controller) == GOLDEN[name]
