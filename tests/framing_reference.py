"""Reference framing: one frame per call, as the regulator first framed.

`ReferenceRegulator` keeps the state layout of `fhsim.engine.Regulator`
(chunks of [arrival time, bits], buffered and peak bits, next seq) and
frames with `_emit`, which consumes one frame's bits from the oldest
chunks and builds its packet. `offer` calls it once per full frame and
`flush` once for the rounded-up remainder. The engine's regulator
frames a whole offer in one loop; property tests require both to give
the same packets and the same state after every call, float for float.
It shares no code with `fhsim.engine.Regulator`.
"""

import math
from collections import deque

from fhsim.engine import EPS_BITS, CircuitFeed
from fhsim.packet import SEQ_MODULUS, FhPacket


class ReferenceRegulator:
    def __init__(self, feed: CircuitFeed):
        self.feed = feed
        self.chunks: deque[list[float]] = deque()  # [arrival_time, bits]
        self.buffered_bits = 0.0
        self.peak_buffered_bits = 0.0
        self.seq = 0

    def deadline(self) -> float | None:
        if not self.chunks:
            return None
        return self.chunks[0][0] + self.feed.policy.frame_timeout

    def _emit(self, payload_bytes: int, consume_bits: float) -> FhPacket:
        created_at = self.chunks[0][0]
        need = consume_bits
        while need > EPS_BITS and self.chunks:
            head = self.chunks[0]
            bits = head[1]
            take = bits if bits < need else need
            head[1] -= take
            need -= take
            if head[1] <= EPS_BITS:
                self.chunks.popleft()
        self.buffered_bits -= consume_bits
        if self.buffered_bits <= EPS_BITS:
            self.buffered_bits = 0.0
            self.chunks.clear()
        pkt = FhPacket(self.feed.label, self.seq, self.feed.latency_class, payload_bytes, created_at)
        self.seq = (self.seq + 1) % SEQ_MODULUS
        return pkt

    def offer(self, now: float, bits: float) -> list[FhPacket]:
        if bits <= EPS_BITS:
            return []
        self.chunks.append([now, bits])
        self.buffered_bits += bits
        self.peak_buffered_bits = max(self.peak_buffered_bits, self.buffered_bits)
        frame_bits = self.feed.policy.max_frame_bytes * 8
        out = []
        while self.buffered_bits >= frame_bits:
            out.append(self._emit(self.feed.policy.max_frame_bytes, float(frame_bits)))
        return out

    def flush(self) -> list[FhPacket]:
        payload_bytes = math.ceil(self.buffered_bits / 8 - EPS_BITS)
        if payload_bytes < 1:
            self.buffered_bits = 0.0
            self.chunks.clear()
            return []
        return [self._emit(payload_bytes, self.buffered_bits)]
