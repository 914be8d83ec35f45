"""Stream scheduling, path scheduling and the congestion-window reservation ledger."""
from __future__ import annotations

from collections import deque
from operator import attrgetter

from .engine import InvariantError
from .link import OneWayLink, serialization_us
from .transport import (Frame, HEADER_BYTES, MAX_PACKET_BYTES,
                        MAX_PAYLOAD_BYTES, PathSendState, packetize)

# Background first transmissions only enter a serializer with a short
# backlog (six max packets); the retry wake waits for it to nearly drain so
# sends batch instead of waking per packet. Message frames and
# retransmissions bypass this.
GATE_PACKETS = 6


class SendStream:
    """Sender-side queue of one stream: its current message's frames, and the
    retransmissions it still owes. A stream is priority exactly when it is
    not the background stream.

    A stream holds at most one in-flight message; the background stream is the
    exception, one endless message of full-size frames. Each of its packets
    is sent as its bare offset, first or resent: first transmissions are
    never queued in `pending` but handed out from bg_offset
    (next_background_offset), and background_frame(offset) builds the Frame
    where one is needed, such as the one a lost packet queues in `rtx`. A lost
    copy of a frame is owed again only while its message is the stream's
    current one (its epoch, and its message id until message_done) and no
    copy of its offset has been acked, which is what `delivered` records for
    the current message.
    """

    __slots__ = ("stream_id", "priority", "epoch", "enqueue_time", "pending",
                 "rtx", "message_id", "dup_mode", "delivered", "urgent",
                 "bg_offset")

    def __init__(self, stream_id: int, *, background: bool = False,
                 urgent: set[SendStream]):
        self.stream_id = stream_id
        self.priority = not background
        # a message stream's first message is epoch 0; background is one
        # endless message from the start
        self.epoch = 0 if background else -1
        self.enqueue_time = 0
        self.pending: deque[Frame] = deque()
        self.rtx: deque[tuple[int, Frame, int]] = deque()  # (time, frame, path)
        self.message_id: int | None = None
        self.dup_mode: str | None = None  # None undecided, 'all', 'off'
        self.delivered: set[int] = set()
        # the node's streams with rtx or pending data
        self.urgent = urgent
        self.bg_offset = 0

    def _settle(self) -> None:
        urgent = self.rtx or self.pending
        (self.urgent.add if urgent else self.urgent.discard)(self)

    def load_message(self, size: int, message_id: int | None, now: int,
                     app_ack: bool = False) -> None:
        """Packetize the stream's next message at its next epoch."""
        if self.pending or self.message_id is not None:
            raise InvariantError(
                f"stream {self.stream_id} already carries message {self.message_id}"
            )
        self.epoch += 1
        self.pending.extend(packetize(self.stream_id, self.epoch, size,
                                      message_id=message_id, app_ack=app_ack))
        self.message_id = message_id
        self.enqueue_time = now
        self.dup_mode = None
        self.delivered.clear()
        self._settle()

    def peek_pending(self) -> Frame:
        return self.pending[0]

    def pop_pending(self) -> Frame:
        frame = self.pending.popleft()
        if not self.pending:
            self._settle()
        return frame

    def next_background_offset(self) -> int:
        """Return bg_offset, then advance it by one full-size payload."""
        offset = self.bg_offset
        self.bg_offset = offset + MAX_PAYLOAD_BYTES
        return offset

    def background_frame(self, offset: int) -> Frame:
        """The full-size frame a background packet at `offset` carries."""
        return Frame(self.stream_id, 0, offset, MAX_PAYLOAD_BYTES, False, False)

    def message_done(self) -> None:
        # The message's completion response has arrived: no copy of it is
        # owed any more, queued or declared lost later.
        self.message_id = None
        self.rtx.clear()
        self._settle()

    def remaining_message_bytes(self) -> int:
        return sum(f.length + HEADER_BYTES for f in self.pending)

    def _owes(self, frame: Frame) -> bool:
        return (frame.epoch == self.epoch
                and frame.message_id == self.message_id
                and frame.offset not in self.delivered)

    def on_acked(self, frame: Frame) -> None:
        """A copy of one of this stream's message frames was acked."""
        if frame.epoch == self.epoch:
            self.delivered.add(frame.offset)

    def on_lost(self, frame: Frame, now: int, path_id: int) -> None:
        """A copy was declared lost on path_id; queue it again for that
        path if it is still owed."""
        if self._owes(frame):
            self.rtx.append((now, frame, path_id))
            self.urgent.add(self)

    def next_rtx(self) -> tuple[Frame, int] | None:
        """The oldest retransmission still owed and its path, after dropping
        the queued ones no longer owed; it stays queued until pop_rtx."""
        rtx = self.rtx
        while rtx:
            _t, frame, path_id = rtx[0]
            if self._owes(frame):
                return frame, path_id
            rtx.popleft()
            if not rtx:
                self._settle()
        return None

    def pop_rtx(self) -> None:
        self.rtx.popleft()
        self._settle()


def _pfifo_key(s: SendStream) -> tuple[int, int, int]:
    if s.rtx:
        return 0, s.rtx[0][0], s.stream_id
    return 1 if s.priority else 2, s.enqueue_time, s.stream_id


def order(streams: list[SendStream]) -> list[SendStream]:
    """Retransmissions first, then message streams, then background; FIFO
    within class, as one sort on (class, time, stream id)."""
    return sorted(streams, key=_pfifo_key)


class ReservationLedger:
    """Per-path pools of congestion-window space held free for upcoming messages.

    A path's rows map each source with a live reservation there to its
    [bytes_left, due_time], in reservation order: consume and drop_path
    remove the rows they end and reserve replaces a source's rows, so a
    path's rows' bytes sum to active_bytes.
    """

    def __init__(self, path_ids: list[int]):
        self._by_path: dict[int, dict[int, list[int]]] = {
            pid: {} for pid in path_ids}
        self._active_bytes: dict[int, int] = {pid: 0 for pid in path_ids}
        self.clamped = 0
        self.drop_events = 0

    def active_bytes(self, path_id: int) -> int:
        return self._active_bytes[path_id]

    def reserve(self, source_id: int, paths: list[PathSendState],
                bytes_needed: int, due_time: int) -> None:
        """Replace the source's rows on every path by one on each of
        `paths`, each clamped to what that path's window can still hold."""
        active = self._active_bytes
        for pid, rows in self._by_path.items():
            row = rows.pop(source_id, None)
            if row is not None:
                active[pid] -= row[0]
        for path in paths:
            pid = path.path_id
            room = path.cwnd - active[pid]
            granted = bytes_needed
            if granted > room:
                granted = max(room, 0)
                self.clamped += 1
            self._by_path[pid][source_id] = [granted, due_time]
            active[pid] += granted

    def drop_path(self, path_id: int) -> None:
        """A loss on the path invalidates its reserved space until renewal.

        A row clamped to 0 bytes still counts as one dropped: it stays live
        until a consume reaches it.
        """
        rows = self._by_path[path_id]
        if rows:
            rows.clear()
            self._active_bytes[path_id] = 0
            self.drop_events += 1

    def consume(self, path_id: int, size: int, now: int) -> None:
        """A priority send claims reserved space that has come due, oldest
        first, ties in reservation order."""
        rows = self._by_path[path_id]
        # most priority sends find no row due: leave before building a list
        for _, due_time in rows.values():
            if due_time <= now:
                break
        else:
            return
        due = [item for item in rows.items() if item[1][1] <= now]
        due.sort(key=lambda item: item[1][1])
        remaining = size
        for source_id, row in due:
            if remaining <= 0:
                break
            take = min(row[0], remaining)
            row[0] -= take
            self._active_bytes[path_id] -= take
            remaining -= take
            if row[0] == 0:
                del rows[source_id]


_rtt_key = attrgetter("srtt", "path_id")


def paths_by_rtt(paths: list[PathSendState]) -> list[PathSendState]:
    return sorted(paths, key=_rtt_key)


class LowRttScheduler:
    """Baseline: lowest-srtt path whose free window fits the packet.

    Every path scheduler keeps a ReservationLedger on its
    reservation_paths(), none here. A background frame may use a path only
    while cwnd - in_flight - reserved bytes still fits it; message frames
    (priority) use the raw free window, reserved space being there for them.

    A background first transmission also passes the serializer gate of the
    path's link, gate_room; when a path is held back only by that gate,
    gated_wake is left set so the caller can retry once the serializer
    drains. Message frames and retransmissions bypass the gate.
    """

    reserving = False

    def __init__(self, paths: list[PathSendState],
                 links: dict[int, OneWayLink]):
        self.paths = paths
        self.ledger = ReservationLedger([p.path_id for p in paths])
        self.refrain_count = 0
        self.gated_wake: int | None = None
        self._links = links
        # each path's drain time of one max packet
        self._max_packet_us = {pid: serialization_us(MAX_PACKET_BYTES,
                                                     link.rate_bps)
                               for pid, link in links.items()}

    def reservation_paths(self) -> list[PathSendState]:
        return []

    def register_reservation(self, source_id: int, bytes_needed: int,
                             due_time: int) -> None:
        self.ledger.reserve(source_id, self.reservation_paths(), bytes_needed,
                            due_time)

    def gate_room(self, path_id: int, now: int) -> int:
        """Max packets the path's serializer gate accepts back to back now.

        At 0, gated_wake is lowered to the time the serializer has nearly
        drained, when the gate takes GATE_PACKETS again.
        """
        drain = self._max_packet_us[path_id]
        busy_until = self._links[path_id].busy_until
        backlog = busy_until - now
        if backlog < 0:
            backlog = 0
        room = (GATE_PACKETS * drain - 1 - backlog) // drain + 1
        if room > 0:
            return room
        wake = busy_until - drain + 1
        if self.gated_wake is None or wake < self.gated_wake:
            self.gated_wake = wake
        return 0

    def admit(self, stream: SendStream, frame: Frame, now: int,
              rtx_path: int | None = None) -> tuple[PathSendState, ...]:
        """The first path, lowest RTT first, that admits the frame. A
        retransmission names rtx_path, the path that lost it, and may use
        only that one."""
        size = frame.length + HEADER_BYTES
        self.gated_wake = None
        reserved = None if frame.priority else self.ledger._active_bytes
        for path in paths_by_rtt(self.paths):
            if rtx_path is not None and path.path_id != rtx_path:
                continue
            room = path.cwnd - path.in_flight
            if reserved is not None:
                room -= reserved[path.path_id]
            if room >= size and (frame.priority or rtx_path is not None
                                 or self.gate_room(path.path_id, now) > 0):
                return (path,)
        return ()

    def background_room(self, path: PathSendState, now: int) -> int:
        """Full-size background packets the path admits back to back now.

        The free window less the reserved bytes, in max packets, capped by
        gate_room. Positive exactly when admit takes a background first
        transmission on this path, with the same gate side effects.
        """
        k = (path.cwnd - path.in_flight
             - self.ledger._active_bytes[path.path_id]) // MAX_PACKET_BYTES
        if k <= 0:
            return 0
        room = self.gate_room(path.path_id, now)
        return room if room < k else k


class ReservationScheduler(LowRttScheduler):
    """Keeps window space free for periodic priority messages on one path.

    Reservations sit on the lowest-RTT path and use the base admission rule:
    other traffic leaves cwnd - in_flight covering the reserved bytes. The
    property test_admitted_background_keeps_reservations_whole_when_due checks
    that this keeps each reservation whole at its due time too.
    """

    reserving = True

    def reservation_paths(self) -> list[PathSendState]:
        return [paths_by_rtt(self.paths)[0]]


class RedundantScheduler(ReservationScheduler):
    """Reservation scheduling plus duplication of priority packets on all paths.

    The duplication decision is taken once, when a message first reaches the
    scheduler: duplicate only if every path can hold the entire message right
    then. Otherwise the message is never duplicated and its packets fall back
    to per-packet lowest-RTT admission (single path when one fits everything,
    a split across paths when only the combined free space suffices). So do
    retransmissions. A packet sent without its copies never gains a duplicate
    later; each priority packet sent on one path counts as a refrain.

    A duplicated message's packets go to every path unchecked: each fits.
    Its stream holds no retransmission (a stream takes a message only once
    its last one is done), so the send pass (one try_send) that decided
    offers it first until the message is sent: each stream ranked ahead was
    refused or skipped, and a pass moves no stream's key earlier and only
    shrinks what each needs (free window, window less reserved bytes, gate).
    Every path's free window held the whole message, and each packet takes
    its own bytes from each path. register_sent raises InvariantError if a
    packet ever does not fit.
    """

    def reservation_paths(self) -> list[PathSendState]:
        return paths_by_rtt(self.paths)

    def admit(self, stream: SendStream, frame: Frame, now: int,
              rtx_path: int | None = None) -> tuple[PathSendState, ...]:
        if frame.priority and rtx_path is None:
            if stream.dup_mode is None:
                remaining = stream.remaining_message_bytes()
                stream.dup_mode = "all" if all(
                    p.cwnd - p.in_flight >= remaining
                    for p in self.paths) else "off"
            if stream.dup_mode == "all":
                return tuple(paths_by_rtt(self.paths))
        targets = super().admit(stream, frame, now, rtx_path)
        if targets and frame.priority:
            self.refrain_count += 1
        return targets


# a scenario's path_scheduler name -> the class a Node builds, in the
# order compare ranks them
PATH_SCHEDULERS = {"lowrtt": LowRttScheduler, "cwr": ReservationScheduler,
                   "cwr_red": RedundantScheduler}


def reservation_bytes(message_size: int) -> int:
    """Reserved space for a message: its packet count at full packet size."""
    packets = -(-message_size // MAX_PAYLOAD_BYTES)
    return packets * MAX_PACKET_BYTES
