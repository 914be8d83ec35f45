"""Periodic message sources, the stream each message takes, and the
application-level completion response that frees it.

A message holds its server stream from its tick until the client's one-byte
completion response for it arrives; a server stream is idle exactly when its
`SendStream.message_id` is None.
"""
from __future__ import annotations

from .engine import InvariantError
from .scheduling import SendStream, reservation_bytes
from .transport import APP_ACK_BYTES, Frame

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


class MessageRecord:
    """Lifecycle of one generated message, from tick to completion."""

    __slots__ = ("message_id", "source_id", "generated_at", "priority",
                 "stream_id", "completed_at", "loss_involved", "duplicated",
                 "completing_path", "completed_by_duplicate", "app_acked_at")

    def __init__(self, message_id: int, source_id: int, generated_at: int,
                 priority: bool):
        self.message_id = message_id
        self.source_id = source_id
        self.generated_at = generated_at
        self.priority = priority
        self.stream_id: int | None = None
        self.completed_at: int | None = None
        self.loss_involved = False
        self.duplicated = False
        self.completing_path: int | None = None
        self.completed_by_duplicate = False
        self.app_acked_at: int | None = None

    @property
    def mct(self) -> int:
        """Completion time; read only once the message is complete."""
        return self.completed_at - self.generated_at


class TrafficManager:
    """Drives the sources: ticks messages onto idle server streams, renews
    reservations, and runs the completion response on both nodes."""

    def __init__(self, sources: list[DataSourceConfig], server, client, engine,
                 duration_us: int, background: bool):
        self.sources = sources
        self.server = server
        self.client = client
        self.engine = engine
        self.duration_us = duration_us
        self.background = background
        # a message's id is its index here
        self.messages: list[MessageRecord] = []

    def start(self) -> None:
        if self.background:
            self.server.get_send_stream(BACKGROUND_STREAM_ID, False,
                                        background=True)
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
                               src.priority)
        self.messages.append(record)
        stream = self._idle_stream(src.priority)
        record.stream_id = stream.stream_id
        stream.load_message(src.message_size_bytes, record.message_id, now)
        if src.priority:
            self.server.path_sched.register_reservation(
                src.source_id, reservation_bytes(src.message_size_bytes),
                now + src.inter_arrival_us)
        self.engine.schedule(now + src.inter_arrival_us, self.tick,
                             "source_tick", args=(src,))
        self.server.try_send(now)

    def _idle_stream(self, priority: bool) -> SendStream:
        """The lowest-id idle server stream of the class, else the next id.

        Message streams are numbered contiguously from FIRST_MESSAGE_STREAM_ID
        and keep their class for life.
        """
        streams = self.server.streams
        stream_id = FIRST_MESSAGE_STREAM_ID
        while stream_id in streams:
            stream = streams[stream_id]
            if stream.message_id is None and stream.priority == priority:
                return stream
            stream_id += 1
        return self.server.get_send_stream(stream_id, priority)

    def on_frame_lost(self, frame: Frame) -> None:
        if frame.message_id is not None and not frame.app_ack:
            self.messages[frame.message_id].loss_involved = True

    def on_duplicated(self, frame: Frame) -> None:
        if not frame.app_ack:
            self.messages[frame.message_id].duplicated = True

    def on_message_complete(self, frame: Frame, now: int, path_id: int,
                            by_duplicate: bool) -> None:
        """The client holds a whole message, once per message: record its
        completion and queue the one-byte response on the same stream."""
        record = self.messages[frame.message_id]
        record.completed_at = now
        record.completing_path = path_id
        record.completed_by_duplicate = by_duplicate
        client = self.client
        stream = client.get_send_stream(frame.stream_id, frame.priority)
        # the server reuses a stream only once the previous response has
        # arrived, so no copy of that response is owed any more
        stream.message_done()
        stream.load_message(APP_ACK_BYTES, frame.message_id, now, app_ack=True)
        client.try_send(now)

    def on_app_ack(self, frame: Frame, now: int, path_id: int,
                   by_duplicate: bool) -> None:
        """The server holds a completion response: its stream is idle again."""
        if not frame.app_ack:
            raise InvariantError("server received a non-ack stream message")
        record = self.messages[frame.message_id]
        record.app_acked_at = now
        self.server.streams[record.stream_id].message_done()
