"""Stand-alone regulator pass: one circuit's framing, outside the engine.

Drives `fhsim.engine.Regulator` through a volume sequence: at each
subframe, the timeouts due by then, then that subframe's offer.
"""

from fhsim.engine import CircuitFeed, Regulator, RegulatorPolicy
from fhsim.packet import FhPacket


def regulate(
    volumes: list[float],
    subframe_duration: float,
    policy: RegulatorPolicy,
    label: int,
    latency_class: int,
    first_seq: int = 0,
) -> list[tuple[float, FhPacket]]:
    """Stand-alone regulator pass over a volume sequence.

    Returns (emission time, packet) pairs: full frames the moment the
    buffer reaches max_frame_bytes, remainders when the oldest buffered
    bit has waited frame_timeout. The tail is flushed at its natural
    timeout after the last subframe. The first frame gets seq first_seq.
    """
    feed = CircuitFeed(
        session_id="",
        circuit_id=0,
        ingress_node=0,
        ingress_port=0,
        label=label,
        latency_class=latency_class,
        policy=policy,
        volumes=volumes,
        subframe_duration=subframe_duration,
    )
    reg = Regulator(feed)
    reg.seq = first_seq
    emissions: list[tuple[float, FhPacket]] = []
    for sf, bits in enumerate(volumes):
        now = sf * subframe_duration
        deadline = reg.deadline()
        while deadline is not None and deadline <= now:
            emissions.extend((deadline, p) for p in reg.flush())
            deadline = reg.deadline()
        emissions.extend((now, p) for p in reg.offer(now, bits))
    deadline = reg.deadline()
    if deadline is not None:
        emissions.extend((deadline, p) for p in reg.flush())
    return emissions
