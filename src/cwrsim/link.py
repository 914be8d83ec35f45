"""Per-path link emulation: line-rate serialization, fixed one-way delay, random drop."""
from __future__ import annotations

from .engine import RngStream

MICROS_PER_SECOND = 1_000_000


class PathConfig:
    """Static description of one bidirectional path."""

    __slots__ = ("path_id", "owd_us", "rate_bps", "loss_rate",
                 "ack_loss_enabled")

    def __init__(self, path_id: int, owd_us: int,
                 rate_bps: int = 100_000_000, loss_rate: float = 0.0,
                 ack_loss_enabled: bool = False):
        self.path_id = path_id
        self.owd_us = owd_us
        self.rate_bps = rate_bps
        self.loss_rate = loss_rate
        self.ack_loss_enabled = ack_loss_enabled


def nominal_rtt_us(cfg: PathConfig) -> int:
    """Configured round-trip time; forward and reverse delay are equal."""
    return 2 * cfg.owd_us


def serialization_us(size_bytes: int, rate_bps: int) -> int:
    """Time to clock size_bytes onto the wire, rounded up to whole microseconds."""
    bits = size_bytes * 8
    return -(-bits * MICROS_PER_SECOND // rate_bps)


class OneWayLink:
    """One direction of a path: a FIFO serializer feeding a fixed delay.

    Packets never reorder within a direction: serialization starts at
    max(now, previous transmission end). Drops apply to packets that carry
    stream data; pure acknowledgment packets are exempt unless the path is
    configured with ack_loss_enabled. A drop is silent (no arrival).
    Each packet size's serialization time is computed once, at its first
    send, and kept in `_serialization`.
    """

    def __init__(self, cfg: PathConfig, rng: RngStream):
        # one draw per data packet, skipped on a lossless link: there no
        # draw can drop a packet, and the stream feeds nothing else
        self._draw = rng.random
        self.rate_bps = cfg.rate_bps
        self.owd_us = cfg.owd_us
        self.loss_rate = cfg.loss_rate
        self.ack_loss_enabled = cfg.ack_loss_enabled
        self._serialization: dict[int, int] = {}
        self.busy_until = 0
        self.data_dropped = 0

    def send(self, size_bytes: int, carries_data: bool, now: int) -> int | None:
        """Serialize a packet; returns its arrival time, or None when dropped."""
        busy = self.busy_until
        start = busy if busy > now else now
        wire = self._serialization.get(size_bytes)
        if wire is None:
            wire = serialization_us(size_bytes, self.rate_bps)
            self._serialization[size_bytes] = wire
        end = start + wire
        self.busy_until = end
        if carries_data:
            if self.loss_rate and self._draw() < self.loss_rate:
                self.data_dropped += 1
                return None
        elif self.ack_loss_enabled:
            if self._draw() < self.loss_rate:
                return None
        return end + self.owd_us
