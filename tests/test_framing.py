"""`Regulator.offer` and `flush` frame exactly as the one-frame-per-call reference.

Random offer and flush sequences drive `fhsim.engine.Regulator` and
`framing_reference.ReferenceRegulator` side by side. After every call
both must have emitted the same packets (label, seq, class, payload,
created_at) and hold the same buffered and peak bits, chunks and next
seq, compared with `==` on floats, so any change in float operations or
their order shows. Volumes include float dust (5e-6), exact frame
multiples and values straddling `EPS_BITS`; seqs start near the 65,536
wrap.
"""

from hypothesis import given, settings, strategies as st

from fhsim.engine import EPS_BITS, CircuitFeed, Regulator, RegulatorPolicy
from fhsim.packet import SEQ_MODULUS
from framing_reference import ReferenceRegulator

FRAMES = [1, 3, 125, 1000, 0xFFFF]  # bytes


def _volume(frame_bits: int):
    near_eps = [EPS_BITS, EPS_BITS * (1 - 1e-9), EPS_BITS * (1 + 1e-9), 2 * EPS_BITS, 5e-6]
    return st.one_of(
        st.sampled_from([0.0, *near_eps]),
        st.integers(1, 6).map(lambda k: float(k * frame_bits)),  # exact frame multiples
        st.tuples(st.integers(1, 6), st.sampled_from(near_eps), st.sampled_from([-1, 1])).map(
            lambda t: t[0] * frame_bits + t[2] * t[1]  # a frame multiple give or take dust
        ),
        st.floats(0, 6.0 * frame_bits, allow_nan=False),
        st.integers(0, 6 * frame_bits).map(float),
    )


@st.composite
def sequences(draw):
    frame = draw(st.sampled_from(FRAMES))
    first_seq = draw(st.sampled_from([0, 17, SEQ_MODULUS - 3, SEQ_MODULUS - 1]))
    ops = draw(st.lists(st.one_of(st.just(None), _volume(frame * 8)), min_size=1, max_size=40))
    return frame, first_seq, ops  # None is a flush, a float an offer of that many bits


def _packet(pkt):
    return (pkt.label, pkt.seq, pkt.latency_class, pkt.payload_len, pkt.wire_bytes, pkt.created_at)


def _state(reg):
    return (reg.buffered_bits, reg.peak_buffered_bits, [list(c) for c in reg.chunks], reg.seq, reg.deadline())


class TestFramingMatchesTheReference:
    @given(sequences())
    @settings(max_examples=300, deadline=None)
    def test_same_packets_and_state_after_every_call(self, case):
        frame, first_seq, ops = case
        feed = CircuitFeed("s", 0, 0, 0, 42, 3, RegulatorPolicy(frame, 1e-3), [], 1e-3)
        reg, ref = Regulator(feed), ReferenceRegulator(feed)
        reg.seq = ref.seq = first_seq
        for k, bits in enumerate(ops):
            now = k * 2.5e-4
            if bits is None:
                got, want = reg.flush(), ref.flush()
            else:
                got, want = reg.offer(now, bits), ref.offer(now, bits)
            assert list(map(_packet, got)) == list(map(_packet, want))
            assert _state(reg) == _state(ref)

    def test_dust_kept_from_popped_chunks_does_not_run_the_chunks_out(self):
        # the 2e-6 chunk is popped with about 1e-6 bits left, which stay
        # buffered; the next full frame finds its chunks short by that dust
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, RegulatorPolicy(0xFFFF, 1e-3), [], 1e-3)
        reg, ref = Regulator(feed), ReferenceRegulator(feed)
        for k, bits in enumerate([524279.999999, 2e-06, 524279.999999]):
            got, want = reg.offer(k * 2.5e-4, bits), ref.offer(k * 2.5e-4, bits)
            assert [p.payload_len for p in got] == [0xFFFF] * (k > 0)
            assert list(map(_packet, got)) == list(map(_packet, want))
            assert _state(reg) == _state(ref)
        assert not reg.chunks and reg.buffered_bits == 0.0

    def test_a_burst_wraps_the_seq(self):
        feed = CircuitFeed("s", 0, 0, 0, 1, 0, RegulatorPolicy(1, 1e-3), [], 1e-3)
        reg, ref = Regulator(feed), ReferenceRegulator(feed)
        reg.seq = ref.seq = SEQ_MODULUS - 2
        got, want = reg.offer(0.0, 8 * 5 + 3.0), ref.offer(0.0, 8 * 5 + 3.0)
        assert [p.seq for p in got] == [SEQ_MODULUS - 2, SEQ_MODULUS - 1, 0, 1, 2]
        assert list(map(_packet, got)) == list(map(_packet, want))
        assert [p.payload_len for p in reg.flush()] == [p.payload_len for p in ref.flush()] == [1]
        assert _state(reg) == _state(ref)
