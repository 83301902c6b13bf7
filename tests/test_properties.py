"""Property-based checks over randomized inputs: the regulator never
drops or duplicates payload bits and only emits packets whose header
validates, and arbitrary small worlds keep the packet-conservation
identity exact whatever the scheduler, frame size, or cut-off horizon."""

from hypothesis import given, settings, strategies as st

from fhsim.engine import (
    CircuitFeed,
    Regulator,
    RegulatorPolicy,
    Scheduler,
    SwitchConfig,
    SwitchState,
    World,
    run,
)
from fhsim.packet import (
    HEADER_BYTES,
    MAX_LABEL,
    MAX_LATENCY_CLASS,
    SEQ_MODULUS,
    FhHeader,
    deserialize_header,
    serialize_header,
)
from fhsim.topology import Node, NodeKind, PhysLink, PhysicalTopology
from regulator_oracle import regulate

volume_lists = st.lists(
    st.one_of(st.just(0.0), st.integers(0, 120_000).map(float)),
    min_size=1,
    max_size=30,
)


class TestRegulatorConservation:
    @given(volumes=volume_lists, frame=st.integers(16, 4000))
    @settings(max_examples=200, deadline=None)
    def test_no_bit_dropped_or_duplicated(self, volumes, frame):
        policy = RegulatorPolicy(max_frame_bytes=frame, frame_timeout=3e-3)
        emissions = regulate(volumes, 1e-3, policy, label=1, latency_class=0)
        offered = sum(volumes)
        emitted = sum(p.header.payload_len * 8 for _, p in emissions)
        # everything offered leaves, padded at most to the next byte per frame
        assert offered <= emitted
        assert emitted - offered < 8 * max(len(emissions), 1)

    @given(volumes=volume_lists, frame=st.integers(16, 4000))
    @settings(max_examples=100, deadline=None)
    def test_emission_order_and_seq(self, volumes, frame):
        policy = RegulatorPolicy(max_frame_bytes=frame, frame_timeout=3e-3)
        emissions = regulate(volumes, 1e-3, policy, label=1, latency_class=0)
        times = [t for t, _ in emissions]
        assert times == sorted(times)
        for k, (t, pkt) in enumerate(emissions):
            assert pkt.header.seq == k % 65536
            assert pkt.created_at <= t
            assert 1 <= pkt.header.payload_len <= frame

    @given(
        offers=st.lists(
            st.one_of(st.just(0.0), st.just(5e-6), st.floats(0, 120_000)),
            max_size=30,
        ),
        frame=st.integers(1, 4000),
    )
    @settings(max_examples=200, deadline=None)
    def test_flush_leaves_nothing_buffered(self, offers, frame):
        # the engine pushes no timeout after a flush, so none may be due
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, RegulatorPolicy(frame, 1e-3), [], 1e-3)
        reg = Regulator(feed)
        for k, bits in enumerate(offers):
            reg.offer(k * 1e-4, bits)
        reg.flush()
        assert reg.deadline() is None
        assert reg.buffered_bits == 0.0


class TestRegulatorEmitsSerializablePackets:
    """The regulator builds packets from plain ints, with no per-frame
    header check: the feed checks label and class, seq wraps, and no
    frame exceeds max_frame_bytes <= 0xFFFF. So every packet's header
    must validate."""

    @given(
        frame=st.sampled_from([1, 7, 1000, 65535]),
        frames_offered=st.lists(
            st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=20
        ),
        first_seq=st.integers(SEQ_MODULUS - 6, SEQ_MODULUS - 1),
        label=st.integers(0, MAX_LABEL),
        latency_class=st.integers(0, MAX_LATENCY_CLASS),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_header_validates_and_round_trips(
        self, frame, frames_offered, first_seq, label, latency_class
    ):
        policy = RegulatorPolicy(max_frame_bytes=frame, frame_timeout=2.5e-3)
        volumes = [x * frame * 8 for x in frames_offered]  # up to three frames a subframe
        emissions = regulate(volumes, 1e-3, policy, label, latency_class, first_seq)
        for k, (_, pkt) in enumerate(emissions):
            header = pkt.header  # FhHeader.__post_init__ range-checks every field
            assert deserialize_header(serialize_header(header)) == header
            seq = (first_seq + k) % SEQ_MODULUS
            assert header == FhHeader(label, seq, latency_class, 0, pkt.payload_len)
            assert pkt.payload_len <= frame
            assert pkt.wire_bytes == pkt.payload_len + HEADER_BYTES


def fuzz_world(scheduler, frame_a, frame_b, volumes_a, volumes_b, queue_bytes):
    nodes = [
        Node(0, NodeKind.RRH, 1),
        Node(1, NodeKind.RRH, 1),
        Node(2, NodeKind.FH_SWITCH, 3),
        Node(3, NodeKind.BBU, 1),
    ]
    links = [
        PhysLink(0, 0, 2, 0, 5e8, 2e-6),
        PhysLink(1, 0, 2, 1, 5e8, 2e-6),
        PhysLink(2, 2, 3, 0, 5e8, 2e-6),
    ]
    topo = PhysicalTopology(nodes, links)
    switch = SwitchState()
    switch.install(0, 1, ((2, 10),))
    switch.install(1, 1, ((2, 11),))
    feeds = [
        CircuitFeed("a", 0, 0, 0, 1, 0, RegulatorPolicy(frame_a, 1e-3), volumes_a, 1e-3),
        CircuitFeed("b", 0, 1, 0, 1, 5, RegulatorPolicy(frame_b, 1e-3), volumes_b, 1e-3),
    ]
    egress = {(3, 0, 10): ("a", 0), (3, 0, 11): ("b", 0)}
    return World(topo, {2: switch}, feeds, egress, SwitchConfig(scheduler=scheduler, queue_bytes=queue_bytes))


class TestEngineConservationFuzz:
    @given(
        scheduler=st.sampled_from(list(Scheduler)),
        frame_a=st.integers(64, 2000),
        frame_b=st.integers(64, 2000),
        volumes_a=volume_lists,
        volumes_b=volume_lists,
        queue_bytes=st.sampled_from([3000, 20_000, 1 << 20]),
        horizon_ms=st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_identity_holds_at_any_cutoff(
        self, scheduler, frame_a, frame_b, volumes_a, volumes_b, queue_bytes, horizon_ms
    ):
        world = fuzz_world(scheduler, frame_a, frame_b, volumes_a, volumes_b, queue_bytes)
        result = run(world, horizon_ms * 1e-3)
        grand = result.total()
        assert (
            grand.injected + grand.replicated
            == grand.delivered
            + grand.dropped_unroutable
            + grand.dropped_overflow
            + grand.in_flight
        )
        assert grand.in_flight == result.residual_packets
        assert grand.in_flight >= 0
        assert grand.dropped_unroutable == 0
        # single fixed path per circuit: order must always be preserved
        assert grand.out_of_order == 0
        for port in result.ports:
            assert 0.0 <= port.utilization <= 1.0 + 1e-12
