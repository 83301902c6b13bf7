"""Fronthaul packet wire format.

Every payload frame travels with a fixed 8-byte header carrying the
circuit label, a per-label wrapping counter, the latency class used by
switch schedulers, and the payload length. The last header byte is an
XOR check over the first seven, so a header is self-validating without
any out-of-band length field.

Inside the simulator a packet keeps its header fields as plain ints, so
a switch relabels it by assigning one; a validated `FhHeader` is built
only at serialization (`FhPacket.header`). The header's four flag bits
are part of the wire format, but no simulated packet sets one, so a
packet keeps no flags and serializes them as 0. Labels are range-checked
where forwarding entries and circuit feeds are created, not per hop or
per frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

HEADER_BYTES = 8
SEQ_MODULUS = 1 << 16
MAX_LABEL = 0xFFFF
MAX_LATENCY_CLASS = 0xF

_HEADER_STRUCT = struct.Struct(">HHBH")  # label, seq, class|flags, payload_len


def _xor_check(data: bytes) -> int:
    acc = 0
    for b in data:
        acc ^= b
    return acc


@dataclass(frozen=True)
class FhHeader:
    """Fixed header attached to every fronthaul frame.

    label: circuit identifier, scoped per (node, input port).
    seq: wrapping per-label frame counter.
    latency_class: 0 is the most urgent class.
    payload_len: payload size in bytes (the header is not included).
    """

    label: int
    seq: int
    latency_class: int
    flags: int = 0
    payload_len: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.label <= MAX_LABEL:
            raise ValueError(f"label out of range: {self.label}")
        if not 0 <= self.seq <= 0xFFFF:
            raise ValueError(f"seq out of range: {self.seq}")
        if not 0 <= self.latency_class <= MAX_LATENCY_CLASS:
            raise ValueError(f"latency_class out of range: {self.latency_class}")
        if not 0 <= self.flags <= 0xF:
            raise ValueError(f"flags out of range: {self.flags}")
        if not 0 <= self.payload_len <= 0xFFFF:
            raise ValueError(f"payload_len out of range: {self.payload_len}")


def serialize_header(header: FhHeader) -> bytes:
    """Encode a header into its 8-byte big-endian wire form."""
    body = _HEADER_STRUCT.pack(
        header.label,
        header.seq,
        (header.latency_class << 4) | header.flags,
        header.payload_len,
    )
    return body + bytes([_xor_check(body)])


def deserialize_header(data: bytes) -> FhHeader:
    """Decode an 8-byte wire header; rejects wrong lengths and bad check bytes."""
    if len(data) != HEADER_BYTES:
        raise ValueError(f"header must be exactly {HEADER_BYTES} bytes, got {len(data)}")
    if _xor_check(data[:7]) != data[7]:
        raise ValueError("header check byte mismatch")
    label, seq, class_flags, payload_len = _HEADER_STRUCT.unpack(data[:7])
    return FhHeader(
        label=label,
        seq=seq,
        latency_class=class_flags >> 4,
        flags=class_flags & 0xF,
        payload_len=payload_len,
    )


class FhPacket:
    """A framed payload unit moving through the simulated network.

    Holds its header fields as plain ints (`label` is rewritten at every
    switch); `header` builds a validated `FhHeader` from them, only at
    serialization. The regulator makes every field in range: the feed
    checks label and class, seq wraps mod 2^16, and a frame's payload is
    at most max_frame_bytes <= 0xFFFF. created_at is the arrival time of
    the oldest payload bit in the frame, so latency measured from it
    covers regulator wait plus transport. stats (the origin circuit's
    counters) is simulation bookkeeping, not wire state.
    """

    __slots__ = (
        "label",
        "seq",
        "latency_class",
        "payload_len",
        "wire_bytes",
        "created_at",
        "stats",
    )

    def __init__(
        self,
        label: int,
        seq: int,
        latency_class: int,
        payload_len: int,
        created_at: float,
    ):
        self.label = label
        self.seq = seq
        self.latency_class = latency_class
        self.payload_len = payload_len
        self.wire_bytes = payload_len + HEADER_BYTES
        self.created_at = created_at
        self.stats = None

    @property
    def header(self) -> FhHeader:
        return FhHeader(self.label, self.seq, self.latency_class, 0, self.payload_len)

    def copy(self) -> FhPacket:
        """A replica sharing every field; relabelling it leaves this one alone."""
        clone = object.__new__(FhPacket)
        for name in FhPacket.__slots__:
            setattr(clone, name, getattr(self, name))
        return clone
