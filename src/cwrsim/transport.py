"""Connection-layer building blocks: framing, per-path congestion state, reassembly."""
from __future__ import annotations

from heapq import heappushpop

from .engine import InvariantError

MAX_PACKET_BYTES = 1350
HEADER_BYTES = 50
MAX_PAYLOAD_BYTES = MAX_PACKET_BYTES - HEADER_BYTES
ACK_PACKET_BYTES = HEADER_BYTES
APP_ACK_BYTES = 1

INITIAL_CWND = 10 * MAX_PACKET_BYTES
INITIAL_SSTHRESH = 100 * MAX_PACKET_BYTES
MIN_CWND = 2 * MAX_PACKET_BYTES

# Loss alarm fires at sent_time + 9/8 * srtt, so a retransmission lands one
# OWD later: 1.125 RTT + 0.5 RTT = 1.625 RTT after the original send.
LOSS_ALARM_NUM = 9
LOSS_ALARM_DEN = 8
# A packet is also declared lost once this many higher numbers are acked.
GAP_LOSS_THRESHOLD = 3

_NO_GAPS: list[int] = []


class Frame:
    """One stream frame; a packet carries at most one of these.

    Every message packet builds one and reads its fields several times,
    which a slotted class does faster than a tuple. Frames compare by
    identity. The repr names every field,
    `Frame(stream_id=1, ..., app_ack=False)`; trace digests hash it.
    """

    __slots__ = ("stream_id", "epoch", "offset", "length", "fin", "priority",
                 "message_id", "app_ack")

    def __init__(self, stream_id: int, epoch: int, offset: int, length: int,
                 fin: bool, priority: bool, message_id: int | None = None,
                 app_ack: bool = False):
        self.stream_id = stream_id
        # per-stream message counter; disambiguates stream reuse
        self.epoch = epoch
        self.offset = offset
        self.length = length
        self.fin = fin
        self.priority = priority
        self.message_id = message_id
        self.app_ack = app_ack

    def __repr__(self) -> str:
        return (f"Frame(stream_id={self.stream_id!r}, epoch={self.epoch!r}, "
                f"offset={self.offset!r}, length={self.length!r}, "
                f"fin={self.fin!r}, priority={self.priority!r}, "
                f"message_id={self.message_id!r}, app_ack={self.app_ack!r})")


def packetize(stream_id: int, epoch: int, data_length: int, priority: bool,
              message_id: int | None = None, app_ack: bool = False) -> list[Frame]:
    """Split a message into per-packet frames with contiguous offsets.

    Produces ceil(data_length / MAX_PAYLOAD_BYTES) frames; the last one
    carries the remainder and the fin marker.
    """
    if data_length <= 0:
        raise ValueError("data_length must be positive")
    frames = []
    offset = 0
    # the final frame starts at or past `last`
    last = data_length - MAX_PAYLOAD_BYTES
    while offset < last:
        frames.append(Frame(stream_id, epoch, offset, MAX_PAYLOAD_BYTES, False,
                            priority, message_id, app_ack))
        offset += MAX_PAYLOAD_BYTES
    frames.append(Frame(stream_id, epoch, offset, data_length - offset, True,
                        priority, message_id, app_ack))
    return frames


class PathSendState:
    """Per-path congestion control and sent-packet ledger for one sender.

    The path is in slow start exactly while cwnd < ssthresh, as in RFC 9002
    Appendix B: slow start adds every acked byte to cwnd; congestion
    avoidance adds one max packet per cwnd of acked bytes, with the
    fractional remainder carried exactly between acks. A loss halves cwnd
    (floor 2 packets) at most once per RTT round and sets ssthresh to the
    new cwnd. Packets are numbered from 0 in send order, so the next number
    is sent_packets. srtt is the configured RTT until the first sample
    replaces it; each later sample moves it by a 7/8 EWMA.
    """

    __slots__ = (
        "path_id", "cwnd", "ssthresh", "in_flight",
        "srtt", "growth_carry", "last_decrease", "ledger", "top_acked",
        "oldest", "alarm_entry", "min_alarm_delay",
        "sent_packets", "lost_packets", "retransmissions", "srtt_sum",
        "srtt_samples",
    )

    def __init__(self, path_id: int, nominal_rtt: int):
        self.path_id = path_id
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.in_flight = 0
        self.srtt = nominal_rtt
        self.growth_carry = 0
        self.last_decrease: int | None = None
        self.ledger: dict[int, tuple] = {}
        # min-heap of the GAP_LOSS_THRESHOLD highest numbers acked while a
        # lower one was outstanding; -1 stands for one not yet acked
        self.top_acked = [-1] * GAP_LOSS_THRESHOLD
        # no outstanding number is below this: numbers enter the ledger in
        # increasing order and never return to it
        self.oldest = 0
        self.alarm_entry: tuple | None = None
        # no deadline is closer than this to its send: srtt >= nominal RTT
        self.min_alarm_delay = LOSS_ALARM_NUM * nominal_rtt // LOSS_ALARM_DEN
        self.sent_packets = 0
        self.lost_packets = 0
        self.retransmissions = 0
        self.srtt_sum = 0
        self.srtt_samples = 0

    def register_sent(self, size: int, payload: Frame | int, now: int,
                      is_rtx: bool = False) -> tuple:
        """Enter a packet of `size` bytes into the ledger; `payload` (what
        the packet carries, kept for the ack and the loss) is stored as-is.
        Returns the entry (number, size, payload, sent_time, deadline)."""
        if size > self.cwnd - self.in_flight:
            raise InvariantError(
                f"path {self.path_id}: send of {size} B exceeds free cwnd "
                f"({self.cwnd} - {self.in_flight})"
            )
        number = self.sent_packets
        entry = (number, size, payload, now,
                 now + LOSS_ALARM_NUM * self.srtt // LOSS_ALARM_DEN)
        self.ledger[number] = entry
        self.in_flight += size
        self.sent_packets = number + 1
        if is_rtx:
            self.retransmissions += 1
        return entry

    def ack_packet(self, number: int, now: int) -> tuple[tuple | None, list[int]]:
        """Process one acked number; returns its entry (None if unknown or
        already settled) and any packets the gap rule now declares lost."""
        ledger = self.ledger
        entry = ledger.pop(number, None)
        if entry is None:
            return None, _NO_GAPS
        _, size, _, sent_time, _ = entry
        self.in_flight -= size
        sample = now - sent_time
        self.srtt = (sample if self.srtt_samples == 0
                     else (7 * self.srtt + sample) // 8)
        self.srtt_sum += sample
        self.srtt_samples += 1
        if self.cwnd < self.ssthresh:
            self.cwnd += size
        else:
            total = MAX_PACKET_BYTES * size + self.growth_carry
            inc, self.growth_carry = divmod(total, self.cwnd)
            self.cwnd += inc
        if not ledger:
            return entry, _NO_GAPS
        # the smallest outstanding number, found by membership tests: asking
        # the dict for its first key walks every slot freed at its front
        oldest = self.oldest
        while oldest not in ledger:
            oldest += 1
        self.oldest = oldest
        if oldest < number:
            # a number below the least in top_acked has that many acks above
            heappushpop(self.top_acked, number)
            bound = min(self.top_acked[0], number)
            gap_lost = []
            for num in ledger:
                if num >= bound:
                    break
                gap_lost.append(num)
            return entry, gap_lost
        return entry, _NO_GAPS

    def alarm_scan(self, now: int) -> tuple[list[int], int | None]:
        """Numbers whose loss deadline is at or before now, in ledger order,
        and the earliest deadline after now (None when there is none).

        Send times rise through the ledger and every deadline is at least
        min_alarm_delay after its send, so the scan stops at the first entry
        whose earliest possible deadline is no earlier than the best found
        (which is after now): no later entry can be expired or earlier.
        """
        expired = []
        nxt = None
        delay = self.min_alarm_delay
        for num, _, _, sent_time, deadline in self.ledger.values():
            if nxt is not None and sent_time + delay >= nxt:
                break
            if deadline <= now:
                expired.append(num)
            elif nxt is None or deadline < nxt:
                nxt = deadline
        return expired, nxt

    def declare_lost(self, number: int, now: int) -> tuple[tuple, bool]:
        """Remove an outstanding packet from the ledger as lost; returns
        (entry, decreased)."""
        entry = self.ledger.pop(number)
        _, size, _, _, _ = entry
        self.in_flight -= size
        self.lost_packets += 1
        decreased = False
        if (self.last_decrease is None
                or now - self.last_decrease >= self.srtt):
            self.ssthresh = max(self.cwnd // 2, MIN_CWND)
            self.cwnd = self.ssthresh
            self.last_decrease = now
            decreased = True
        return entry, decreased

    def mean_srtt(self) -> int | None:
        if self.srtt_samples == 0:
            return None
        return self.srtt_sum // self.srtt_samples


class ReceivedOffsets:
    """The offsets of one stream that have arrived.

    Frames cut a stream at fixed offsets, so an offset has arrived exactly
    when it lies below `floor`, the end of the contiguous prefix received,
    or is a key of `above`, which maps each segment received past the first
    gap to its end. Filling a gap moves the floor up through `above`, so the
    table holds only what reordering and loss leave out of order.
    """

    __slots__ = ("floor", "above")

    def __init__(self) -> None:
        self.floor = 0
        self.above: dict[int, int] = {}

    def add(self, offset: int, length: int) -> int:
        """Record a received segment; returns its new bytes, 0 for a repeat."""
        if offset < self.floor or offset in self.above:
            return 0
        if offset != self.floor:
            self.above[offset] = offset + length
            return length
        floor = offset + length
        above = self.above
        while floor in above:
            floor = above.pop(floor)
        self.floor = floor
        return length


class StreamReassembly:
    """Receiver-side state for one message stream: its current message's
    received offsets and, once its fin has arrived, its length `total`. The
    message is whole exactly when the received floor reaches `total`."""

    __slots__ = ("stream_id", "epoch", "received", "total")

    def __init__(self, stream_id: int):
        self.stream_id = stream_id
        self.epoch = 0
        self.received = ReceivedOffsets()
        self.total: int | None = None

    def accept(self, frame: Frame) -> tuple[int, bool]:
        """Place a frame; returns (new_bytes, completed_now).

        new_bytes is 0 for a second copy of an offset and for any frame of
        an already finished message.
        """
        whole = self.received.floor == self.total
        if frame.epoch < self.epoch or (frame.epoch == self.epoch and whole):
            return 0, False
        if frame.epoch > self.epoch:
            if frame.epoch != self.epoch + 1 or not whole:
                raise InvariantError(
                    f"stream {self.stream_id}: message {frame.epoch} arrived "
                    f"while message {self.epoch} is incomplete"
                )
            self.epoch = frame.epoch
            self.received = ReceivedOffsets()
            self.total = None
        new_bytes = self.received.add(frame.offset, frame.length)
        if frame.fin:
            self.total = frame.offset + frame.length
        return new_bytes, self.received.floor == self.total
