"""Stream scheduling, path scheduling and the congestion-window reservation ledger."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .engine import InvariantError
from .transport import Frame, HEADER_BYTES, MAX_PACKET_BYTES, MAX_PAYLOAD_BYTES, PathSendState

STREAM_SCHEDULERS = ("rr", "pfifo")
PATH_SCHEDULERS = ("lowrtt", "cwr", "cwr_red")

ACTIVE = "active"
CONSUMED = "consumed"
DROPPED = "dropped"
REPLACED = "replaced"


class SendStream:
    """Sender-side queue of one stream: current message frames plus retransmits.

    A stream holds at most one in-flight message; the background stream is the
    exception and fabricates an endless sequence of full-size frames.
    """

    __slots__ = ("stream_id", "priority", "background", "epoch", "enqueue_time",
                 "pending", "rtx", "message_id", "dup_mode", "_bg_offset")

    def __init__(self, stream_id: int, priority: bool, background: bool = False):
        self.stream_id = stream_id
        self.priority = priority
        self.background = background
        self.epoch = -1
        self.enqueue_time = 0
        self.pending: deque[Frame] = deque()
        self.rtx: deque[tuple[int, Frame, int]] = deque()  # (time, frame, path)
        self.message_id: int | None = None
        self.dup_mode: str | None = None  # None undecided, 'all', 'off'
        self._bg_offset = 0

    def load_message(self, frames: list[Frame], message_id: int | None, now: int) -> None:
        if self.pending or self.message_id is not None:
            raise InvariantError(
                f"stream {self.stream_id} already carries message {self.message_id}"
            )
        self.epoch += 1
        self.pending.extend(frames)
        self.message_id = message_id
        self.enqueue_time = now
        self.dup_mode = None

    def has_pending(self) -> bool:
        return self.background or bool(self.pending)

    def _new_background_frame(self) -> Frame:
        offset = self._bg_offset
        self._bg_offset = offset + MAX_PAYLOAD_BYTES
        # tuple.__new__ skips the NamedTuple's Python-level constructor
        return tuple.__new__(Frame, (self.stream_id, 0, offset, MAX_PAYLOAD_BYTES,
                                     False, False, None, False))

    def peek_pending(self) -> Frame:
        if self.background and not self.pending:
            self.pending.append(self._new_background_frame())
        return self.pending[0]

    def pop_pending(self) -> Frame:
        return self.pending.popleft()

    def next_background_frame(self) -> Frame:
        if self.pending:
            return self.pending.popleft()
        return self._new_background_frame()

    def message_done(self) -> None:
        # Any queued retransmissions belong to the acknowledged message and
        # would be discarded as stale at the receiver; drop them.
        self.message_id = None
        self.rtx.clear()

    def remaining_message_bytes(self) -> int:
        return sum(f.length + HEADER_BYTES for f in self.pending)

    def enqueue_rtx(self, frame: Frame, now: int, path_id: int) -> None:
        # a retransmission goes back out on the path that lost it
        self.rtx.append((now, frame, path_id))


class RoundRobinStreams:
    """Cyclic service over all streams with sendable data; priority ignored."""

    name = "rr"

    def __init__(self) -> None:
        self._last = -1

    def order(self, streams: list[SendStream], now: int) -> list[SendStream]:
        ordered = sorted(streams, key=lambda s: s.stream_id)
        after = [s for s in ordered if s.stream_id > self._last]
        before = [s for s in ordered if s.stream_id <= self._last]
        return after + before

    def note_sent(self, stream: SendStream) -> None:
        self._last = stream.stream_id


def _pfifo_key(s: SendStream) -> tuple[int, int, int]:
    if s.rtx:
        return 0, s.rtx[0][0], s.stream_id
    return 1 if s.priority else 2, s.enqueue_time, s.stream_id


class PriorityFifoStreams:
    """Retransmissions first, then priority streams, then the rest; FIFO within class.

    Every stream passed in has retransmissions or pending data, so one sort
    on (class, time, stream id) orders them all.
    """

    name = "pfifo"

    def order(self, streams: list[SendStream], now: int) -> list[SendStream]:
        return sorted(streams, key=_pfifo_key)

    def note_sent(self, stream: SendStream) -> None:
        pass


def make_stream_scheduler(name: str):
    if name == "rr":
        return RoundRobinStreams()
    if name == "pfifo":
        return PriorityFifoStreams()
    raise ValueError(f"unknown stream scheduler: {name}")


@dataclass(slots=True)
class Reservation:
    source_id: int
    path_id: int
    bytes_total: int
    bytes_left: int
    due_time: int
    state: str = ACTIVE


class ReservationLedger:
    """Per-path pools of congestion-window space held free for upcoming messages."""

    def __init__(self, path_ids: list[int]):
        self._by_path: dict[int, list[Reservation]] = {pid: [] for pid in path_ids}
        self._active_bytes: dict[int, int] = {pid: 0 for pid in path_ids}
        self.clamped = 0
        self.drop_events = 0

    def active(self, path_id: int) -> list[Reservation]:
        return [r for r in self._by_path[path_id] if r.state == ACTIVE]

    def active_bytes(self, path_id: int) -> int:
        return self._active_bytes[path_id]

    def install(self, source_id: int, path: PathSendState, bytes_needed: int,
                due_time: int) -> Reservation:
        """Reserve space on one path, clamped to what the window can still hold."""
        room = path.cwnd - self._active_bytes[path.path_id]
        granted = bytes_needed
        if granted > room:
            granted = max(room, 0)
            self.clamped += 1
        res = Reservation(source_id, path.path_id, granted, granted, due_time)
        self._by_path[path.path_id].append(res)
        self._active_bytes[path.path_id] += granted
        return res

    def retire_source(self, source_id: int) -> None:
        """Drop a source's previous reservations everywhere (renewal or shutdown).

        Only active rows become REPLACED: a dropped row keeps its state,
        whether or not a consume has already taken it off the path's rows.
        """
        for pid, rows in self._by_path.items():
            kept = []
            for r in rows:
                if r.source_id == source_id:
                    if r.state == ACTIVE:
                        self._active_bytes[pid] -= r.bytes_left
                        r.state = REPLACED
                else:
                    kept.append(r)
            rows[:] = kept

    def drop_path(self, path_id: int) -> None:
        """A loss on the path invalidates its reserved space until renewal."""
        dropped_any = False
        for r in self._by_path[path_id]:
            if r.state == ACTIVE:
                self._active_bytes[path_id] -= r.bytes_left
                r.state = DROPPED
                dropped_any = True
        if dropped_any:
            self.drop_events += 1

    def consume(self, path_id: int, size: int, now: int) -> None:
        """A priority send claims reserved space that has come due, oldest first."""
        due = [r for r in self._by_path[path_id]
               if r.state == ACTIVE and r.due_time <= now]
        if not due:
            # rows already dropped wait for their source's retire_source;
            # every reader skips them
            return
        due.sort(key=lambda r: r.due_time)
        remaining = size
        for r in due:
            if remaining <= 0:
                break
            take = min(r.bytes_left, remaining)
            r.bytes_left -= take
            self._active_bytes[path_id] -= take
            remaining -= take
            if r.bytes_left == 0:
                r.state = CONSUMED
        self._by_path[path_id] = [r for r in self._by_path[path_id]
                                  if r.state == ACTIVE]

    def at_risk(self, path: PathSendState, candidate_size: int, now: int) -> bool:
        """Would sending candidate_size now break a reservation at its due time?

        Prediction holds cwnd constant and assumes a packet sent at s is acked
        at s + srtt. With several reservations pooled on a path, the space
        required at a due time T is the sum of active reservations due at or
        before T.
        """
        total = self._active_bytes[path.path_id]
        if total == 0:
            return False
        # predicted_free(T) >= free_cwnd for any future T, so enough free
        # window right now settles every due time without a ledger scan
        if path.free_cwnd() - candidate_size >= total:
            return False
        rows = self.active(path.path_id)
        srtt = path.effective_srtt()
        rows.sort(key=lambda r: r.due_time)
        required = 0
        for res in rows:
            required += res.bytes_left
            t_due = res.due_time
            if t_due >= now + srtt:
                # everything in flight now is acked by then; candidate too
                if path.cwnd < required:
                    return True
                continue
            cutoff = t_due - srtt
            still_in_flight = 0
            for entry in reversed(path.ledger.values()):
                if entry.sent_time <= cutoff:
                    break
                still_in_flight += entry.size
            predicted = path.cwnd - still_in_flight - candidate_size
            if predicted < required:
                return True
        return False


def _rtt_key(p: PathSendState) -> tuple[int, int]:
    # effective_srtt() inlined: this runs on every priority admission
    srtt = p.srtt
    return (p.nominal_rtt if srtt is None else srtt), p.path_id


def _paths_by_rtt(paths: list[PathSendState]) -> list[PathSendState]:
    return sorted(paths, key=_rtt_key)


class LowRttScheduler:
    """Baseline: lowest-srtt path whose free window fits the packet.

    Background frames additionally honor link_ready (the sender's serializer
    backpressure); when a path is held back only by that gate, gated_wake is
    left set so the caller can retry once the serializer drains. Priority
    frames bypass the gate.
    """

    name = "lowrtt"
    reserving = False

    def __init__(self, paths: list[PathSendState]):
        self.paths = paths
        self.refrain_count = 0
        self.gated_wake: int | None = None
        self.link_ready = None  # set by the owning node; None means always ready
        self.gate_room = None  # node callback: packets the serializer can take

    def _gate(self, path: PathSendState, frame: Frame) -> bool:
        """True when the path may be used for this frame right now."""
        if frame.priority or self.link_ready is None:
            return True
        ready_at = self.link_ready(path.path_id)
        if ready_at is None:
            return True
        if self.gated_wake is None or ready_at < self.gated_wake:
            self.gated_wake = ready_at
        return False

    def admit(self, stream: SendStream, frame: Frame, is_rtx: bool,
              now: int, rtx_path: int | None = None) -> tuple[PathSendState, ...]:
        size = frame.length + HEADER_BYTES
        self.gated_wake = None
        if rtx_path is not None:
            for path in self.paths:
                if path.path_id == rtx_path:
                    if path.cwnd - path.in_flight >= size:
                        return (path,)
                    return ()
            return ()
        for path in _paths_by_rtt(self.paths):
            if path.cwnd - path.in_flight >= size and self._gate(path, frame):
                return (path,)
        return ()

    def background_reserved(self, path_id: int) -> int:
        return 0

    def background_plan(self, now: int) -> list[tuple[PathSendState, int]]:
        """Per-path runs of full-size background packets admissible right now.

        Equivalent to repeated single-packet admission: each send shrinks one
        path's free window by one packet and paths do not interact, so the
        counts reproduce exactly the per-packet instantaneous guard, and
        passing that guard implies the reservation prediction holds
        (predicted free at any due time is at least the current free window).
        """
        self.gated_wake = None
        plan = []
        for path in _paths_by_rtt(self.paths):
            reserved = self.background_reserved(path.path_id)
            k = (path.cwnd - path.in_flight - reserved) // MAX_PACKET_BYTES
            if k <= 0:
                continue
            if self.link_ready is not None:
                room = self.gate_room(path.path_id)
                if room <= 0:
                    ready_at = self.link_ready(path.path_id)
                    if ready_at is not None and (self.gated_wake is None
                                                 or ready_at < self.gated_wake):
                        self.gated_wake = ready_at
                    continue
                if room < k:
                    k = room
            plan.append((path, k))
        return plan

    def on_priority_sent(self, path_id: int, size: int, now: int) -> None:
        pass

    def on_path_loss(self, path_id: int) -> None:
        pass


class ReservationScheduler(LowRttScheduler):
    """Keeps window space free for periodic priority messages on one path.

    Priority traffic is admitted against the raw free window (reserved space
    is there for it to use). Background traffic must leave the active
    reservations untouched both instantaneously and at their due times.
    """

    name = "cwr"
    reserving = True

    def __init__(self, paths: list[PathSendState]):
        super().__init__(paths)
        self.ledger = ReservationLedger([p.path_id for p in paths])

    def reservation_paths(self) -> list[PathSendState]:
        return [_paths_by_rtt(self.paths)[0]]

    def background_reserved(self, path_id: int) -> int:
        return self.ledger._active_bytes[path_id]

    def register_reservation(self, source_id: int, bytes_needed: int,
                             due_time: int) -> list[Reservation]:
        self.ledger.retire_source(source_id)
        return [self.ledger.install(source_id, path, bytes_needed, due_time)
                for path in self.reservation_paths()]

    def admit(self, stream: SendStream, frame: Frame, is_rtx: bool,
              now: int, rtx_path: int | None = None) -> tuple[PathSendState, ...]:
        if frame.priority:
            return LowRttScheduler.admit(self, stream, frame, is_rtx, now,
                                         rtx_path)
        size = frame.length + HEADER_BYTES
        self.gated_wake = None
        ledger = self.ledger
        reserved_by_path = ledger._active_bytes
        for path in _paths_by_rtt(self.paths):
            if rtx_path is not None and path.path_id != rtx_path:
                continue
            reserved = reserved_by_path[path.path_id]
            if path.cwnd - path.in_flight - reserved < size:
                continue
            if reserved and ledger.at_risk(path, size, now):
                continue
            if not is_rtx and not self._gate(path, frame):
                continue
            return (path,)
        return ()

    def on_priority_sent(self, path_id: int, size: int, now: int) -> None:
        self.ledger.consume(path_id, size, now)

    def on_path_loss(self, path_id: int) -> None:
        self.ledger.drop_path(path_id)


class RedundantScheduler(ReservationScheduler):
    """Reservation scheduling plus duplication of priority packets on all paths.

    The duplication decision is taken once, when a message first reaches the
    scheduler: duplicate only if every path can hold the entire message right
    then. Otherwise the message is never duplicated and its packets fall back
    to per-packet lowest-RTT admission (single path when one fits everything,
    a split across paths when only the combined free space suffices). A packet
    sent without its copies never gains a duplicate later.
    """

    name = "cwr_red"

    def reservation_paths(self) -> list[PathSendState]:
        return _paths_by_rtt(self.paths)

    def admit(self, stream: SendStream, frame: Frame, is_rtx: bool,
              now: int, rtx_path: int | None = None) -> tuple[PathSendState, ...]:
        size = frame.packet_bytes
        self.gated_wake = None
        if not frame.priority:
            return ReservationScheduler.admit(self, stream, frame, is_rtx, now,
                                              rtx_path)
        if is_rtx:
            targets = LowRttScheduler.admit(self, stream, frame, is_rtx, now,
                                            rtx_path)
            if targets:
                self.refrain_count += 1
            return targets

        if stream.dup_mode is None:
            remaining = stream.remaining_message_bytes()
            stream.dup_mode = "all" if all(
                p.free_cwnd() >= remaining for p in self.paths) else "off"

        if stream.dup_mode == "all":
            ordered = _paths_by_rtt(self.paths)
            if all(p.free_cwnd() >= size for p in ordered):
                return tuple(ordered)
            for path in ordered:
                if path.free_cwnd() >= size:
                    self.refrain_count += 1
                    return (path,)
            return ()

        targets = LowRttScheduler.admit(self, stream, frame, is_rtx, now)
        if targets:
            self.refrain_count += 1
        return targets


def make_path_scheduler(name: str, paths: list[PathSendState]):
    if name == "lowrtt":
        return LowRttScheduler(paths)
    if name == "cwr":
        return ReservationScheduler(paths)
    if name == "cwr_red":
        return RedundantScheduler(paths)
    raise ValueError(f"unknown path scheduler: {name}")


def reservation_bytes(message_size: int) -> int:
    """Reserved space for a message: its packet count at full packet size."""
    packets = -(-message_size // MAX_PAYLOAD_BYTES)
    return packets * MAX_PACKET_BYTES
