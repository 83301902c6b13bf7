import pytest
from hypothesis import given, strategies as st

from fhsim.packet import (
    HEADER_BYTES,
    FhHeader,
    FhPacket,
    deserialize_header,
    serialize_header,
)


def test_zero_header_is_eight_zero_bytes():
    h = FhHeader(label=0, seq=0, latency_class=0, flags=0, payload_len=0)
    assert serialize_header(h) == bytes(8)


def test_maxed_header_is_eight_ff_bytes():
    h = FhHeader(label=0xFFFF, seq=0xFFFF, latency_class=0xF, flags=0xF, payload_len=0xFFFF)
    assert serialize_header(h) == b"\xff" * 8


def test_field_layout_by_hand():
    h = FhHeader(label=0x0102, seq=0x0304, latency_class=0x5, flags=0x6, payload_len=0x0708)
    wire = serialize_header(h)
    assert wire[0:2] == b"\x01\x02"
    assert wire[2:4] == b"\x03\x04"
    assert wire[4] == 0x56
    assert wire[5:7] == b"\x07\x08"
    assert wire[7] == 0x01 ^ 0x02 ^ 0x03 ^ 0x04 ^ 0x56 ^ 0x07 ^ 0x08
    assert len(wire) == HEADER_BYTES


@given(
    label=st.integers(0, 0xFFFF),
    seq=st.integers(0, 0xFFFF),
    latency_class=st.integers(0, 0xF),
    flags=st.integers(0, 0xF),
    payload_len=st.integers(0, 0xFFFF),
)
def test_round_trip_identity(label, seq, latency_class, flags, payload_len):
    h = FhHeader(label, seq, latency_class, flags, payload_len)
    assert deserialize_header(serialize_header(h)) == h


def test_deserialize_rejects_wrong_length():
    with pytest.raises(ValueError):
        deserialize_header(b"\x00" * 7)
    with pytest.raises(ValueError):
        deserialize_header(b"\x00" * 9)


def test_deserialize_rejects_corrupt_check_byte():
    wire = bytearray(serialize_header(FhHeader(1, 2, 3, 0, 100)))
    wire[7] ^= 0xFF
    with pytest.raises(ValueError):
        deserialize_header(bytes(wire))


def test_header_field_ranges_validated():
    with pytest.raises(ValueError):
        FhHeader(label=0x10000, seq=0, latency_class=0, flags=0, payload_len=0)
    with pytest.raises(ValueError):
        FhHeader(label=0, seq=0, latency_class=16, flags=0, payload_len=0)


def test_wire_bytes_includes_header():
    p = FhPacket(label=1, seq=0, latency_class=0, payload_len=1000, created_at=0.0)
    assert p.wire_bytes == 1008


def test_packet_header_round_trips_through_wire():
    h = FhHeader(label=0x1234, seq=0xBEEF, latency_class=5, payload_len=1000)
    pkt = FhPacket(label=0x1234, seq=0xBEEF, latency_class=5, payload_len=1000, created_at=0.0)
    assert deserialize_header(serialize_header(pkt.header)) == h


def test_relabelled_packet_serializes_new_label_only():
    pkt = FhPacket(label=1, seq=2, latency_class=3, payload_len=10, created_at=0.0)
    clone = pkt.copy()
    clone.label = 9
    assert deserialize_header(serialize_header(clone.header)) == FhHeader(9, 2, 3, 0, 10)
    assert pkt.header == FhHeader(1, 2, 3, 0, 10)
