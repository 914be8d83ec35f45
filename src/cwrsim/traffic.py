"""Periodic message sources, the stream pool, and application-level completion acks."""
from __future__ import annotations

from .engine import InvariantError
from .scheduling import reservation_bytes

BACKGROUND_STREAM_ID = 0
FIRST_MESSAGE_STREAM_ID = 1

DEFAULT_START_OFFSET_US = 200_000


class DataSourceConfig:
    """A periodic source emitting fixed-size messages at fixed intervals."""

    __slots__ = ("source_id", "inter_arrival_us", "message_size_bytes",
                 "priority", "start_offset_us")

    def __init__(self, source_id: int, inter_arrival_us: int,
                 message_size_bytes: int, priority: bool = True,
                 start_offset_us: int = DEFAULT_START_OFFSET_US):
        self.source_id = source_id
        self.inter_arrival_us = inter_arrival_us
        self.message_size_bytes = message_size_bytes
        self.priority = priority
        self.start_offset_us = start_offset_us

    def validate(self) -> None:
        if self.inter_arrival_us <= 0:
            raise ValueError(f"source {self.source_id}: inter_arrival_us must be > 0")
        if self.message_size_bytes <= 0:
            raise ValueError(f"source {self.source_id}: message_size_bytes must be > 0")
        if self.start_offset_us < 0:
            raise ValueError(f"source {self.source_id}: start_offset_us must be >= 0")


class MessageRecord:
    """Lifecycle of one generated message, from tick to completion."""

    __slots__ = ("message_id", "source_id", "generated_at", "size",
                 "priority", "stream_id", "completed_at", "loss_involved",
                 "duplicated", "completing_path", "completed_by_duplicate",
                 "app_acked_at")

    def __init__(self, message_id: int, source_id: int, generated_at: int,
                 size: int, priority: bool, stream_id: int | None = None,
                 completed_at: int | None = None, loss_involved: bool = False,
                 duplicated: bool = False, completing_path: int | None = None,
                 completed_by_duplicate: bool = False,
                 app_acked_at: int | None = None):
        self.message_id = message_id
        self.source_id = source_id
        self.generated_at = generated_at
        self.size = size
        self.priority = priority
        self.stream_id = stream_id
        self.completed_at = completed_at
        self.loss_involved = loss_involved
        self.duplicated = duplicated
        self.completing_path = completing_path
        self.completed_by_duplicate = completed_by_duplicate
        self.app_acked_at = app_acked_at

    @property
    def mct(self) -> int | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.generated_at


class StreamPool:
    """Reusable stream ids for messages; a busy stream never takes a second one.

    Priority and non-priority messages draw from separate free lists, so a
    stream keeps its class for its whole life.
    """

    def __init__(self):
        self._free: dict[bool, list[int]] = {True: [], False: []}
        self._busy: dict[int, int] = {}
        self._next = FIRST_MESSAGE_STREAM_ID

    def acquire(self, message_id: int, priority: bool) -> int:
        free = self._free[priority]
        if free:
            free.sort()
            stream_id = free.pop(0)
        else:
            stream_id = self._next
            self._next += 1
        self._busy[stream_id] = message_id
        return stream_id

    def release(self, stream_id: int, priority: bool) -> None:
        if stream_id not in self._busy:
            raise InvariantError(f"stream {stream_id} released while not busy")
        del self._busy[stream_id]
        self._free[priority].append(stream_id)


class TrafficManager:
    """Drives the sources: ticks messages onto streams and renews reservations."""

    def __init__(self, sources: list[DataSourceConfig], server, engine,
                 duration_us: int, background: bool):
        self.sources = sources
        self.server = server
        self.engine = engine
        self.duration_us = duration_us
        self.background = background
        self.pool = StreamPool()
        # a message's id is its index here
        self.messages: list[MessageRecord] = []

    def start(self) -> None:
        if self.background:
            self.server.ensure_background_stream(BACKGROUND_STREAM_ID)
        sched = self.server.path_sched
        for src in self.sources:
            if src.priority:
                sched.register_reservation(
                    src.source_id, reservation_bytes(src.message_size_bytes),
                    src.start_offset_us)
            self.engine.schedule(src.start_offset_us, self.tick,
                                 "source_tick", args=(src,))
        if self.background:
            self.server.try_send(0)

    def tick(self, src: DataSourceConfig) -> None:
        now = self.engine.now
        if now >= self.duration_us:
            return
        record = MessageRecord(len(self.messages), src.source_id, now,
                               src.message_size_bytes, src.priority)
        self.messages.append(record)
        stream_id = self.pool.acquire(record.message_id, src.priority)
        record.stream_id = stream_id
        stream = self.server.get_send_stream(stream_id, src.priority)
        stream.load_message(src.message_size_bytes, record.message_id, now)
        if src.priority:
            self.server.path_sched.register_reservation(
                src.source_id, reservation_bytes(src.message_size_bytes),
                now + src.inter_arrival_us)
        self.engine.schedule(now + src.inter_arrival_us, self.tick,
                             "source_tick", args=(src,))
        self.server.try_send(now)

    def on_frame_lost(self, message_id: int | None) -> None:
        if message_id is not None:
            self.messages[message_id].loss_involved = True

    def on_message_complete(self, message_id: int, now: int, path_id: int,
                            by_duplicate: bool) -> None:
        record = self.messages[message_id]
        if record.completed_at is not None:
            return
        record.completed_at = now
        record.completing_path = path_id
        record.completed_by_duplicate = by_duplicate

    def on_duplicated(self, message_id: int) -> None:
        self.messages[message_id].duplicated = True

    def on_app_ack(self, message_id: int, now: int) -> None:
        record = self.messages[message_id]
        if record.app_acked_at is not None:
            return
        record.app_acked_at = now
        self.pool.release(record.stream_id, record.priority)
        stream = self.server.streams.get(record.stream_id)
        if stream is not None:
            stream.message_done()
