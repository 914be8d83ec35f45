"""Stream order, reservation ledger, and path scheduler admission rules."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from cwrsim.engine import EventQueue, InvariantError, RngStream
from cwrsim.link import OneWayLink, PathConfig, serialization_us
from cwrsim.scheduling import (GATE_PACKETS, PATH_SCHEDULERS,
                               LowRttScheduler, RedundantScheduler,
                               ReservationLedger, ReservationScheduler,
                               SendStream, order, paths_by_rtt,
                               reservation_bytes)
from cwrsim.simulation import Node
from cwrsim.transport import (Frame, HEADER_BYTES, MAX_PACKET_BYTES,
                              MAX_PAYLOAD_BYTES, MIN_CWND, PathSendState)


def path(path_id=1, cwnd=13_500, srtt=None, rtt=50_000):
    """A path whose srtt is `srtt`, or its nominal rtt when that is None."""
    ps = PathSendState(path_id, rtt)
    ps.cwnd = cwnd
    if srtt is not None:
        ps.srtt = srtt
    return ps


def scheduler(name, paths):
    """A path scheduler over idle 100 Mbit/s links: the serializer gate is
    open at any time from 0 on."""
    links = {p.path_id: OneWayLink(PathConfig(p.path_id, 25_000),
                                   RngStream(1, p.path_id)) for p in paths}
    return PATH_SCHEDULERS[name](paths, links)


def stream_with(size, stream_id=1, now=0, message_id=1, app_ack=False):
    s = SendStream(stream_id, urgent=set())
    s.load_message(size, message_id, now, app_ack)
    return s


def bg_frame(offset=0):
    return Frame(0, 0, offset, 1300, False, False)


def pri_frame(offset=0, stream=1, epoch=0, length=1300):
    return Frame(stream, epoch, offset, length, False, True, message_id=1)


def drain(scheduler, stream, now=0):
    """Admit and mark sent until blocked; returns path ids per packet."""
    sent = []
    while stream.pending:
        frame = stream.peek_pending()
        targets = scheduler.admit(stream, frame, now)
        if not targets:
            break
        stream.pop_pending()
        size = frame.length + HEADER_BYTES
        for ps in targets:
            ps.register_sent(size, frame, now)
            scheduler.ledger.consume(ps.path_id, size, now)
        sent.append(tuple(p.path_id for p in targets))
    return sent


# -- stream order ----------------------------------------------------------

def new_stream(stream_id, enqueue_time=0, rtx_time=None):
    """A message stream holding a 2-packet message."""
    s = SendStream(stream_id, urgent=set())
    s.load_message(2_600, None, enqueue_time)
    if rtx_time is not None:
        # its first frame was sent on path 1 and lost there
        s.on_lost(s.pop_pending(), rtx_time, 1)
    return s


def background_stream(stream_id=0, rtx_time=None):
    s = SendStream(stream_id, background=True, urgent=set())
    if rtx_time is not None:
        # its first packet was sent on path 1 and lost there
        s.on_lost(s.background_frame(s.next_background_offset()), rtx_time, 1)
    return s


def test_pfifo_retransmissions_first_regardless_of_priority():
    background_rtx = background_stream(9, rtx_time=30)
    fresh_message = new_stream(2, enqueue_time=10)
    ranked = order([fresh_message, background_rtx])
    assert [s.stream_id for s in ranked] == [9, 2]


def test_pfifo_priority_fifo_by_enqueue_time():
    early = new_stream(4, enqueue_time=10)
    late = new_stream(2, enqueue_time=20)
    bg = background_stream(1)
    ranked = order([late, bg, early])
    assert [s.stream_id for s in ranked] == [4, 2, 1]


def three_sort_order(streams):
    """The pfifo order as three filtered sorts, the reference for the one-key sort."""
    rtx = sorted((s for s in streams if s.rtx),
                 key=lambda s: (s.rtx[0][0], s.stream_id))
    rest = [s for s in streams if not s.rtx]
    pri = sorted((s for s in rest if s.priority),
                 key=lambda s: (s.enqueue_time, s.stream_id))
    bg = sorted((s for s in rest if not s.priority),
                key=lambda s: (s.enqueue_time, s.stream_id))
    return rtx + pri + bg


stream_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),        # stream id
              st.sampled_from(["message", "background"]),
              st.integers(min_value=0, max_value=5),         # enqueue time
              st.booleans(),                                 # pending data
              st.lists(st.integers(min_value=0, max_value=5),  # rtx times
                       max_size=3)),
    max_size=8, unique_by=lambda spec: spec[0])


def candidate_streams(specs):
    """The streams try_send passes: those with retransmissions or pending
    data, and background streams. A message stream carries message 1, so
    the copies of it declared lost are owed and queued."""
    streams = []
    for stream_id, kind, enqueue_time, pending, rtx_times in specs:
        background = kind == "background"
        s = SendStream(stream_id, background=background, urgent=set())
        s.epoch = 0
        s.enqueue_time = enqueue_time
        if not background:
            s.message_id = 1
        if pending:
            s.pending.append(pri_frame(stream=stream_id))
        for t in rtx_times:
            lost = (s.background_frame(0) if background
                    else pri_frame(stream=stream_id))
            s.on_lost(lost, t, 1)
        if s.rtx or background or s.pending:
            streams.append(s)
    return streams


# retransmissions on two message streams and the background stream, tied
# in rtx time, beside a fresh message stream
RTX_SPECS = [(3, "message", 2, True, [4]), (1, "message", 1, False, [4, 0]),
             (0, "background", 0, False, [2]), (5, "message", 0, True, [])]


def test_drawn_streams_owe_their_lost_copies():
    # the order properties check the retransmission class only while the
    # losses candidate_streams declares are queued
    streams = candidate_streams(RTX_SPECS)
    assert [len(s.rtx) for s in streams] == [1, 2, 1, 0]
    assert [s.stream_id for s in order(streams)] == [0, 1, 3, 5]


@settings(max_examples=300)
@given(stream_specs)
@example(RTX_SPECS)
def test_pfifo_one_key_sort_equals_three_sorts(specs):
    streams = candidate_streams(specs)
    assert order(streams) == three_sort_order(streams)


@settings(max_examples=300)
@given(stream_specs, st.data())
def test_stream_order_ignores_the_order_of_its_input(specs, data):
    # try_send hands order its candidates in a set's iteration order
    streams = candidate_streams(specs)
    shuffled = data.draw(st.permutations(streams))
    assert order(shuffled) == order(streams)


# -- owed retransmissions ----------------------------------------------------

def test_a_copy_lost_after_its_message_is_done_is_not_owed():
    # the completion response arrived before the copy's loss was declared
    stream = stream_with(2_600)
    frame = stream.pop_pending()
    stream.pop_pending()
    stream.message_done()
    stream.on_lost(frame, 10, 1)
    assert not stream.rtx and stream not in stream.urgent


class DupTables:
    """Reference for which lost copies a stream still owes: the per-node
    tables SendStream.delivered replaced.

    Each table maps a stream id to (epoch, offsets) for the newest epoch
    noted: `dup_keys` holds the frames sent on several paths, `delivered`
    those of them acked. A lost copy is owed while its epoch is the
    stream's and no duplicate of it was acked.
    """

    def __init__(self):
        self.dup_keys = {}
        self.delivered = {}

    @staticmethod
    def _note(table, frame):
        held = table.get(frame.stream_id)
        if held is None or held[0] < frame.epoch:
            table[frame.stream_id] = (frame.epoch, {frame.offset})
        elif held[0] == frame.epoch:
            held[1].add(frame.offset)

    @staticmethod
    def _has(table, frame):
        held = table.get(frame.stream_id)
        return held is not None and held[0] == frame.epoch \
            and frame.offset in held[1]

    def sent(self, frame, copies):
        if copies > 1:
            self._note(self.dup_keys, frame)

    def acked(self, frame):
        if self._has(self.dup_keys, frame):
            self._note(self.delivered, frame)

    def owes(self, frame, epoch):
        return frame.epoch == epoch and not self._has(self.delivered, frame)


# a step loads a message (packets, app ack), sends one unit (on both paths),
# or acks or loses one copy in flight (index taken modulo their number)
stream_steps = st.lists(st.one_of(
    st.tuples(st.just("load"), st.integers(1, 4), st.booleans()),
    st.tuples(st.just("send"), st.booleans()),
    st.tuples(st.sampled_from(["ack", "lose"]), st.integers(0, 50))),
    max_size=60)


@settings(max_examples=400)
@given(stream_steps)
def test_owed_retransmissions_match_the_per_node_tables(steps):
    urgent = set()
    stream = SendStream(1, urgent=urgent)
    ref = DupTables()
    ref_rtx = deque()  # (frame, path)
    epoch = -1
    message_id = 0
    in_flight = []  # (frame, path) copies neither acked nor lost
    for now, step in enumerate(steps):
        kind = step[0]
        if kind == "load":
            if stream.pending:
                continue
            # the previous message, if any, was app-acked
            stream.message_done()
            ref_rtx.clear()
            epoch += 1
            message_id += 1
            app_ack = step[2]
            size = 1 if app_ack else step[1] * MAX_PAYLOAD_BYTES
            stream.load_message(size, message_id, now, app_ack)
            assert {f.epoch for f in stream.pending} == {epoch}
        elif kind == "send":
            owed = stream.next_rtx()
            while ref_rtx and not ref.owes(ref_rtx[0][0], epoch):
                ref_rtx.popleft()
            assert owed == (ref_rtx[0] if ref_rtx else None)
            if owed is not None:
                stream.pop_rtx()
                ref_rtx.popleft()
                frame, path_id = owed
                paths = (path_id,)  # a retransmission is never duplicated
            elif stream.pending:
                frame = stream.pop_pending()
                paths = (1, 2) if step[1] else (1,)
            else:
                continue
            ref.sent(frame, len(paths))
            in_flight.extend((frame, p) for p in paths)
        elif in_flight:
            frame, path_id = in_flight.pop(step[1] % len(in_flight))
            if kind == "ack":
                # an ack, an app-ack's too, leaves the message on its stream:
                # the traffic manager frees streams, and next_rtx drops the
                # queued copies no longer owed
                held = stream.message_id
                ref.acked(frame)
                stream.on_acked(frame)
                assert stream.message_id == held
            else:
                if ref.owes(frame, epoch):
                    ref_rtx.append((frame, path_id))
                stream.on_lost(frame, now, path_id)
        assert [(f, p) for _t, f, p in stream.rtx] == list(ref_rtx)
        # the stream's own methods keep its membership of the urgent set
        assert (stream in urgent) == bool(stream.rtx or stream.pending)
        held = ref.delivered.get(stream.stream_id)
        if held is not None and held[0] == epoch:
            assert held[1] <= stream.delivered


# -- reservation ledger ------------------------------------------------------

def live_rows(ledger, path_id):
    """A path's rows as (source, path, bytes left, due time), in order."""
    return [(source_id, path_id, bytes_left, due_time)
            for source_id, (bytes_left, due_time)
            in ledger._by_path[path_id].items()]


def test_reservation_bytes_counts_full_packets():
    assert reservation_bytes(10_000) == 8 * 1350  # 10 800
    assert reservation_bytes(7_000) == 6 * 1350
    assert reservation_bytes(5_000) == 4 * 1350
    assert reservation_bytes(1) == 1350


def test_reserve_and_consume():
    ledger = ReservationLedger([1])
    p = path(cwnd=20_000)
    ledger.reserve(1, [p], 10_800, due_time=100_000)
    assert ledger.active_bytes(1) == 10_800
    ledger.consume(1, 1350, now=100_000)
    assert ledger.active_bytes(1) == 9_450


def test_consume_ignores_future_reservations():
    ledger = ReservationLedger([1])
    p = path(cwnd=30_000)
    ledger.reserve(1, [p], 10_800, due_time=200_000)
    ledger.consume(1, 1350, now=100_000)  # not due yet
    assert ledger.active_bytes(1) == 10_800


def test_consume_without_reservation_is_noop():
    ledger = ReservationLedger([1])
    ledger.consume(1, 1350, now=0)
    assert ledger.active_bytes(1) == 0


def list_building_consume(rows, size, now):
    """ReservationLedger.consume as it was before its early exit and its
    per-source rows: it built the due list on every call over a list of
    [source, bytes left, due time] rows in reservation order. The reference
    for both."""
    due = [r for r in rows if r[2] <= now]
    if not due:
        return
    due.sort(key=lambda r: r[2])
    remaining = size
    spent = []
    for r in due:
        if remaining <= 0:
            break
        take = min(r[1], remaining)
        r[1] -= take
        remaining -= take
        if r[1] == 0:
            spent.append(r)
    if spent:
        rows[:] = [r for r in rows if not any(r is x for x in spent)]


consume_rows = st.lists(
    st.tuples(st.integers(1, 8),                                  # source
              st.one_of(st.just(0), st.integers(1, 4_000)),       # bytes
              st.integers(0, 10)),                                # due time
    max_size=8, unique_by=lambda row: row[0])
consume_calls = st.lists(st.tuples(st.integers(1, 5_000),         # size
                                   st.integers(0, 10)),           # now
                         min_size=1, max_size=6)


@settings(max_examples=400)
@given(consume_rows, consume_calls)
# a due row clamped to 0 bytes is spent though it gives nothing
@example([(1, 4_000, 9), (2, 0, 3)], [(1_350, 5)])
# a 0-byte row past the size taken stays
@example([(1, 500, 2), (2, 0, 2), (3, 900, 1)], [(1_350, 5)])
def test_consume_matches_the_list_building_reference(rows, calls):
    ledger = ReservationLedger([1])
    p = path()
    for source, granted, due in rows:
        # a window with room for exactly `granted` more bytes clamps the
        # 4,000 asked for to it
        p.cwnd = ledger.active_bytes(1) + granted
        ledger.reserve(source, [p], 4_000, due)
    assert ledger.clamped == sum(granted < 4_000 for _, granted, _ in rows)
    reference = [list(row) for row in rows]
    for size, now in calls:
        ledger.consume(1, size, now)
        list_building_consume(reference, size, now)
        assert live_rows(ledger, 1) == [(source, 1, left, due)
                                        for source, left, due in reference]
        assert ledger.active_bytes(1) == sum(r[1] for r in reference)


@dataclass
class StateRow:
    source_id: int
    path_id: int
    bytes_left: int
    due_time: int
    state: str = "active"


class StateLedger:
    """Reference ledger whose rows keep a state (active, consumed, dropped,
    replaced) and whose consume always sorts and rebuilds a path's rows;
    only active rows hold bytes."""

    def __init__(self, path_ids):
        self.rows = {pid: [] for pid in path_ids}
        self.active_bytes = dict.fromkeys(path_ids, 0)
        self.clamped = 0
        self.drop_events = 0

    def reserve(self, source_id, paths, bytes_needed, due_time):
        for pid, rows in self.rows.items():
            for r in rows:
                if r.source_id == source_id and r.state == "active":
                    self.active_bytes[pid] -= r.bytes_left
                    r.state = "replaced"
            rows[:] = [r for r in rows if r.source_id != source_id]
        for path in paths:
            room = path.cwnd - self.active_bytes[path.path_id]
            granted = bytes_needed
            if granted > room:
                granted = max(room, 0)
                self.clamped += 1
            self.rows[path.path_id].append(
                StateRow(source_id, path.path_id, granted, due_time))
            self.active_bytes[path.path_id] += granted

    def drop_path(self, path_id):
        active = [r for r in self.rows[path_id] if r.state == "active"]
        for r in active:
            self.active_bytes[path_id] -= r.bytes_left
            r.state = "dropped"
        if active:
            self.drop_events += 1

    def consume(self, path_id, size, now):
        remaining = size
        due = sorted((r for r in self.rows[path_id]
                      if r.state == "active" and r.due_time <= now),
                     key=lambda r: r.due_time)
        for r in due:
            if remaining <= 0:
                break
            take = min(r.bytes_left, remaining)
            r.bytes_left -= take
            self.active_bytes[path_id] -= take
            remaining -= take
            if r.bytes_left == 0:
                r.state = "consumed"
        self.rows[path_id] = [r for r in self.rows[path_id]
                              if r.state == "active"]

    def live_rows(self, path_id):
        return [(r.source_id, r.path_id, r.bytes_left, r.due_time)
                for r in self.rows[path_id] if r.state == "active"]


times = st.integers(min_value=0, max_value=10)
# a reserve names its source, the paths it reserves on (none retires the
# source), the bytes asked for on each and the due time
ledger_ops = st.lists(st.one_of(
    st.tuples(st.just("reserve"), st.integers(1, 3),
              st.sampled_from([(), (1,), (2,), (1, 2), (2, 1)]),
              st.integers(0, 12_000), times),
    st.tuples(st.just("drop"), st.integers(1, 2)),
    st.tuples(st.just("consume"), st.integers(1, 2),
              st.integers(1, 5_000), times),
), max_size=30)


@settings(max_examples=300)
@given(ledger_ops)
# the second row is due while the first is not
@example([("reserve", 1, (1,), 1_000, 5), ("reserve", 2, (1,), 1_000, 0),
          ("consume", 1, 500, 1)])
# a row clamped to 0 bytes outlives the full row beside it and still counts
# as a drop
@example([("reserve", 1, (2,), 9_000, 0), ("reserve", 2, (2,), 500, 5),
          ("consume", 2, 5_000, 1), ("consume", 2, 4_000, 1),
          ("drop", 2)])
# a renewal moves the source's row to the end of the reservation order
@example([("reserve", 1, (1,), 1_000, 0), ("reserve", 2, (1,), 1_000, 0),
          ("reserve", 1, (1, 2), 1_000, 0), ("consume", 1, 1_500, 1)])
def test_live_rows_match_a_ledger_of_state_labelled_rows(ops):
    ledger, reference = ReservationLedger([1, 2]), StateLedger([1, 2])
    paths = {1: path(1, cwnd=20_000), 2: path(2, cwnd=9_000)}
    for op in ops:
        for led in (ledger, reference):
            if op[0] == "reserve":
                _, source, pids, size, due = op
                led.reserve(source, [paths[pid] for pid in pids], size, due)
            elif op[0] == "drop":
                led.drop_path(op[1])
            else:
                led.consume(*op[1:])
        for pid in (1, 2):
            assert ledger.active_bytes(pid) == reference.active_bytes[pid]
            assert live_rows(ledger, pid) == reference.live_rows(pid)
        assert ledger.drop_events == reference.drop_events
        assert ledger.clamped == reference.clamped


def test_clamp_when_window_cannot_hold_reservation():
    ledger = ReservationLedger([1])
    p = path(cwnd=13_500)
    ledger.reserve(1, [p], 10_800, due_time=50_000)
    ledger.reserve(2, [p], 10_800, due_time=60_000)
    # clamped to the remaining window
    assert live_rows(ledger, 1)[1] == (2, 1, 2_700, 60_000)
    assert ledger.clamped == 1


def test_drop_path_releases_its_reservations():
    ledger = ReservationLedger([1, 2])
    ledger.reserve(1, [path(1, cwnd=20_000), path(2, cwnd=20_000)], 10_800,
                   50_000)
    ledger.drop_path(1)
    assert ledger.active_bytes(1) == 0
    assert ledger.active_bytes(2) == 10_800
    assert live_rows(ledger, 1) == []
    assert ledger.drop_events == 1


def test_renewal_replaces_previous_reservation():
    paths = [path(1, cwnd=50_000)]
    sched = scheduler("cwr", paths)
    sched.register_reservation(1, 10_800, 100_000)
    sched.register_reservation(1, 10_800, 200_000)
    assert live_rows(sched.ledger, 1) == [(1, 1, 10_800, 200_000)]


def test_reservations_pool_across_sources():
    paths = [path(1, cwnd=50_000)]
    sched = scheduler("cwr", paths)
    sched.register_reservation(1, 10_800, 100_000)
    sched.register_reservation(2, 8_100, 100_000)
    # either source's priority packets may consume the pooled space
    sched.ledger.consume(1, 13_500, now=100_000)
    assert sched.ledger.active_bytes(1) == 5_400


def test_reservation_paths_per_scheduler():
    p1, p2 = path(1, srtt=100_000), path(2, srtt=50_000)
    assert scheduler("lowrtt", [p1, p2]).reservation_paths() == []
    assert scheduler("cwr", [p1, p2]).reservation_paths() == [p2]
    assert scheduler("cwr_red", [p1, p2]).reservation_paths() == [p2, p1]
    sched = scheduler("lowrtt", [p1, p2])
    sched.register_reservation(1, 10_800, 100_000)
    assert live_rows(sched.ledger, 1) == live_rows(sched.ledger, 2) == []
    assert sched.ledger.active_bytes(1) == sched.ledger.active_bytes(2) == 0


# -- reservations at their due times -------------------------------------------

def full_scan_at_risk(ledger, path, candidate_size, now):
    """The model's due-time prediction: with cwnd held constant and every
    packet acked one srtt after it was sent, would sending candidate_size
    now leave some live reservation short at its due time? With several
    reservations pooled on a path, the space required at a due time T is
    the sum of those due at or before T."""
    rows = sorted(ledger._by_path[path.path_id].values(), key=lambda r: r[1])
    srtt = path.srtt
    required = 0
    for bytes_left, due_time in rows:
        required += bytes_left
        if due_time >= now + srtt:
            # everything in flight now, the candidate too, is acked by then
            if path.cwnd < required:
                return True
            continue
        cutoff = due_time - srtt
        still_in_flight = sum(size for _, size, _, sent_time, _
                              in path.ledger.values() if sent_time > cutoff)
        if path.cwnd - still_in_flight - candidate_size < required:
            return True
    return False


def test_the_prediction_flags_a_send_still_in_flight_at_the_due_time():
    ledger = ReservationLedger([1])
    p = path(cwnd=12_150, srtt=50_000)
    ledger.reserve(1, [p], 10_800, due_time=30_000)  # due in 30 ms
    assert not full_scan_at_risk(ledger, p, 1_350, now=0)
    # one packet sent 10 ms ago is still unacked at the due time
    p.register_sent(MAX_PACKET_BYTES, 0, now=-10_000)
    assert full_scan_at_risk(ledger, p, 1_350, now=0)


NOW = 200_000


@st.composite
def ledger_states(draw):
    """A cwr or cwr_red scheduler on one path with packets in flight sent
    over the last 150 ms, pooled (possibly clamped) reservations after a
    possible consume or drop, and a background frame to admit. A source
    that reserves again replaces its row. srtt is never below the path's
    nominal RTT, as in a run."""
    rtt = draw(st.integers(5_000, 120_000))
    p = path(cwnd=draw(st.integers(MIN_CWND, 40_000)), rtt=rtt,
             srtt=draw(st.one_of(st.none(), st.integers(rtt, 120_000))))
    sent = sorted(draw(st.lists(st.integers(NOW - 150_000, NOW), max_size=25)))
    for i, t in enumerate(sent):
        size = draw(st.integers(51, MAX_PACKET_BYTES))
        if size > p.cwnd - p.in_flight:
            break
        p.register_sent(size, Frame(9, 0, i * 1300, size - 50, False, False),
                        t)
    sched = scheduler(draw(st.sampled_from(["cwr", "cwr_red"])), [p])
    ledger = sched.ledger
    for source, size, due in draw(st.lists(st.tuples(
            st.integers(1, 3), st.integers(0, 15_000),
            st.integers(NOW - 60_000, NOW + 250_000)), max_size=4)):
        ledger.reserve(source, [p], size, due)
    op = draw(st.sampled_from(["none", "consume", "drop"]))
    if op == "consume":
        ledger.consume(1, draw(st.integers(1, 5_000)), NOW)
    elif op == "drop":
        ledger.drop_path(1)
    if draw(st.booleans()):
        # a loss halved the window under what is in flight
        p.cwnd = draw(st.integers(MIN_CWND, p.cwnd))
    length = draw(st.integers(1, MAX_PACKET_BYTES - HEADER_BYTES))
    return sched, p, Frame(0, 0, 0, length, False, False)


@settings(max_examples=300)
@given(ledger_states())
def test_admitted_background_keeps_reservations_whole_when_due(state):
    sched, p, frame = state
    bg = SendStream(0, background=True, urgent=set())
    if sched.admit(bg, frame, NOW):
        assert not full_scan_at_risk(sched.ledger, p,
                                     frame.length + HEADER_BYTES, NOW)
    k = sched.background_room(p, NOW)
    if k > 0:
        for i in range(k - 1):
            p.register_sent(MAX_PACKET_BYTES, i * 1300, NOW)
        assert not full_scan_at_risk(sched.ledger, p, MAX_PACKET_BYTES, NOW)


def gated_path(rate=100_000_000):
    """A cwr scheduler on one path, and that path's link for the test to load."""
    ps = PathSendState(1, 50_000)
    link = OneWayLink(PathConfig(1, 25_000, rate_bps=rate), RngStream(1, 0))
    return PATH_SCHEDULERS["cwr"]([ps], {1: link}), ps, link


def test_background_room_leaves_reserved_bytes_and_follows_the_gate():
    now = 1_000_000
    sched, ps, link = gated_path()
    ps.cwnd = 20 * MAX_PACKET_BYTES
    sched.register_reservation(1, 15 * MAX_PACKET_BYTES, 2_000_000)
    assert sched.background_room(ps, now) == 5
    sched.register_reservation(1, 4 * MAX_PACKET_BYTES, 2_000_000)
    assert sched.background_room(ps, now) == GATE_PACKETS  # window fits 16
    drain = serialization_us(MAX_PACKET_BYTES, link.rate_bps)
    link.busy_until = now + GATE_PACKETS * drain
    sched.gated_wake = None
    assert sched.background_room(ps, now) == 0
    assert sched.gated_wake == link.busy_until - drain + 1
    # a full window holds the path back, not the gate: no wake is set
    sched.register_reservation(1, 20 * MAX_PACKET_BYTES, 2_000_000)
    sched.gated_wake = None
    assert sched.background_room(ps, now) == 0
    assert sched.gated_wake is None


def test_admit_gates_background_first_transmissions_only():
    now = 1_000_000
    sched, ps, link = gated_path()
    drain = serialization_us(MAX_PACKET_BYTES, link.rate_bps)
    link.busy_until = now + GATE_PACKETS * drain
    background = SendStream(0, background=True, urgent=set())
    frame = background.background_frame(0)
    assert sched.admit(background, frame, now) == ()
    assert sched.gated_wake == link.busy_until - drain + 1
    # message frames and completion responses are priority: no gate
    message = stream_with(1300, stream_id=2, message_id=4)
    app_ack = stream_with(1, stream_id=3, message_id=5, app_ack=True)
    for stream in (message, app_ack):
        assert sched.admit(stream, stream.peek_pending(), now) == (ps,)
    assert sched.admit(background, frame, now, rtx_path=1) == (ps,)


def test_general_send_loop_sends_background_as_its_bare_offset():
    # a message stream owes a retransmission on path 2, whose window is
    # full, so it stays urgent and try_send's general loop, not the
    # background-only drain, sends background on path 1 until the gate
    # closes
    engine = EventQueue(checker=lambda: None)
    links = {pid: OneWayLink(PathConfig(pid, 25_000), RngStream(1, pid))
             for pid in (1, 2)}
    paths = [PathSendState(pid, 50_000) for pid in (1, 2)]
    node = Node("server", engine, paths, links, "cwr")
    node.set_peer(Node("client", engine, [PathSendState(pid, 50_000)
                                          for pid in (1, 2)], links, "cwr"))
    node.get_send_stream(0, background=True)
    message = node.get_send_stream(1)
    message.load_message(1_300, 7, now=5)
    message.on_lost(message.pop_pending(), 5, 2)
    paths[1].register_sent(paths[1].cwnd, 0, 5)
    node.try_send(10)
    assert [entry[2] for entry in paths[0].ledger.values()] \
        == [i * MAX_PAYLOAD_BYTES for i in range(GATE_PACKETS)]
    assert message.rtx and node.urgent == {message}


# per path: srtt (ties are likely), cwnd, the reserved row sizes, the free
# window after them in max packets plus a few bytes, the link rate, and the
# serializer backlog in max-packet slots plus a few us
background_paths = st.lists(st.tuples(
    st.sampled_from([40_000, 50_000, 60_000]), st.integers(MIN_CWND, 40_000),
    st.lists(st.integers(0, 15_000), max_size=3),
    st.integers(-2, 8), st.integers(-2, 2),
    st.sampled_from([10_000_000, 100_000_000]),
    st.integers(-1, 8), st.integers(-2, 2)), min_size=1, max_size=3)


def background_state(name, specs, now):
    """The named scheduler over paths and links built from the specs."""
    paths, links = [], {}
    for pid, (srtt, cwnd, _, _, _, rate, slots, lag) in enumerate(specs, 1):
        paths.append(path(pid, cwnd=cwnd, srtt=srtt, rtt=30_000))
        links[pid] = OneWayLink(PathConfig(pid, 15_000, rate_bps=rate),
                                RngStream(1, pid))
        drain = serialization_us(MAX_PACKET_BYTES, rate)
        links[pid].busy_until = now + slots * drain + lag
    sched = PATH_SCHEDULERS[name](paths, links)
    for p, (_, _, rows, free, jitter, _, _, _) in zip(paths, specs):
        for i, size in enumerate(rows):
            # a source id per path: reserve replaces a source's rows
            sched.ledger.reserve(10 * p.path_id + i, [p], size, now + 50_000)
        p.in_flight = max(0, p.cwnd - sched.ledger.active_bytes(p.path_id)
                          - free * MAX_PACKET_BYTES - jitter)
    return sched, paths


@settings(max_examples=300)
@given(background_paths, st.integers(0, 1_000))
@example([(50_000, 13_500, [], 1, 0, 100_000_000, 0, 0)], 0)
@example([(50_000, 13_500, [1_000], 0, 5, 100_000_000, 7, 0)], 0)
def test_admit_takes_background_where_the_deleted_route_did(specs, packets):
    # the general send loop's former background route, as it was written:
    # the first path, lowest RTT first, with background_room; admit must
    # take the same path for the same frame, with the same gate wake
    now = 1_000_000
    for name in PATH_SCHEDULERS:
        sched, paths = background_state(name, specs, now)
        sched.gated_wake = None
        route = next((ps for ps in paths_by_rtt(paths)
                      if sched.background_room(ps, now) > 0), None)
        wake = sched.gated_wake
        sched.gated_wake = -1  # admit resets it itself
        bg = SendStream(0, background=True, urgent=set())
        bg.bg_offset = packets * MAX_PAYLOAD_BYTES
        targets = sched.admit(bg, bg.background_frame(bg.bg_offset), now)
        assert targets == (() if route is None else (route,)), name
        assert sched.gated_wake == wake, name


# -- serializer gate -----------------------------------------------------------

# backlog = slots serialization times of a max packet plus jitter us: the
# gate's edge is at six slots
@given(st.integers(1_000_000, 1_000_000_000), st.integers(-2, 14),
       st.integers(-2, 2))
@example(100_000_000, 6, -1)
@example(100_000_000, 6, 0)
def test_gate_room_counts_the_sends_the_gate_accepts(rate, slots, jitter):
    now = 1_000_000
    sched, _ps, link = gated_path(rate)
    drain = serialization_us(MAX_PACKET_BYTES, rate)
    link.busy_until = now + slots * drain + jitter
    room = sched.gate_room(1, now)
    # reference: a send enters while the backlog is under GATE_PACKETS
    # serialization times of a max packet
    accepted = 0
    while link.busy_until - now < GATE_PACKETS * drain \
            and accepted <= GATE_PACKETS + 1:
        link.send(MAX_PACKET_BYTES, True, now)
        accepted += 1
    assert room == accepted
    # once closed, the gate wakes its caller when it takes a full batch again
    sched.gated_wake = None
    assert sched.gate_room(1, now) == 0
    assert sched.gated_wake > now
    assert sched.gate_room(1, sched.gated_wake) == GATE_PACKETS


# -- path schedulers ---------------------------------------------------------

def test_lowrtt_picks_lowest_srtt():
    p1, p2 = path(1, srtt=50_000), path(2, srtt=100_000)
    sched = scheduler("lowrtt", [p1, p2])
    assert sched.admit(None, bg_frame(), 0) == (p1,)


def test_lowrtt_falls_back_when_best_is_full():
    p1, p2 = path(1, srtt=50_000, cwnd=2_700), path(2, srtt=100_000)
    p1.in_flight = 2_700
    sched = scheduler("lowrtt", [p1, p2])
    assert sched.admit(None, bg_frame(), 0) == (p2,)


def test_lowrtt_blocked_when_all_full():
    p1, p2 = path(1, cwnd=2_700), path(2, cwnd=2_700)
    p1.in_flight = p2.in_flight = 2_700
    sched = scheduler("lowrtt", [p1, p2])
    assert sched.admit(None, bg_frame(), 0) == ()


def test_lowrtt_tie_breaks_by_path_id():
    p2, p1 = path(2, srtt=50_000), path(1, srtt=50_000)
    sched = scheduler("lowrtt", [p2, p1])
    assert sched.admit(None, bg_frame(), 0) == (p1,)


def test_cwr_window_reservation_walkthrough():
    # window of 4 packets, 5 background packets pending, a 3-packet priority
    # message expected shortly: exactly one background packet goes out, the
    # rest of the window stays reserved, and the message sends immediately
    # when it arrives
    p1 = path(1, cwnd=4 * 1350, srtt=50_000)
    sched = scheduler("cwr", [p1])
    sched.register_reservation(1, 3 * 1350, due_time=30_000)

    background = SendStream(0, background=True, urgent=set())
    sent = 0
    while sched.background_room(p1, 0) > 0:
        p1.register_sent(MAX_PACKET_BYTES, background.next_background_offset(),
                         0)
        sent += 1
    assert sent == 1  # 5400 - 4050 reserved leaves room for exactly one

    msg = stream_with(3 * 1300, stream_id=2, message_id=9)
    assert drain(sched, msg, now=30_000) == [(1,), (1,), (1,)]


def test_cwr_priority_uses_raw_free_window():
    p1 = path(1, cwnd=11_000, srtt=50_000)
    sched = scheduler("cwr", [p1])
    sched.register_reservation(1, 10_800, due_time=50_000)
    # 11 000 - 10 800 = 200 blocks background; priority checks raw free window
    bg = SendStream(0, background=True, urgent=set())
    assert sched.admit(bg, bg_frame(), 0) == ()
    msg = stream_with(1300)
    assert sched.admit(msg, msg.peek_pending(), 0) == (p1,)


def test_cwr_without_reservations_behaves_like_lowrtt():
    p1, p2 = path(1, srtt=50_000), path(2, srtt=100_000)
    sched = scheduler("cwr", [p1, p2])
    bg = SendStream(0, background=True, urgent=set())
    assert sched.admit(bg, bg_frame(), 0) == (p1,)


def test_cwr_priority_falls_back_across_paths():
    p1, p2 = path(1, srtt=50_000, cwnd=2_700), path(2, srtt=100_000)
    p1.in_flight = 2_700
    sched = scheduler("cwr", [p1, p2])
    msg = stream_with(1300)
    assert sched.admit(msg, msg.peek_pending(), 0) == (p2,)


def test_cwr_red_duplicates_on_all_paths_when_room_everywhere():
    p1, p2 = path(1, srtt=50_000, cwnd=27_000), path(2, srtt=100_000, cwnd=27_000)
    sched = scheduler("cwr_red", [p1, p2])
    msg = stream_with(2_600, message_id=3)
    assert drain(sched, msg) == [(1, 2), (1, 2)]
    assert msg.dup_mode == "all"


def test_cwr_red_refrains_when_one_path_cannot_hold_whole_message():
    p1, p2 = path(1, srtt=50_000, cwnd=27_000), path(2, srtt=100_000, cwnd=2_700)
    p2.in_flight = 2_000
    sched = scheduler("cwr_red", [p1, p2])
    msg = stream_with(2_600, message_id=3)
    assert drain(sched, msg) == [(1,), (1,)]
    assert msg.dup_mode == "off"
    assert sched.refrain_count == 2


def test_cwr_red_splits_across_paths_when_sum_suffices():
    # 8 packets, path 1 fits 5, path 2 fits 3: split, no duplicates
    p1 = path(1, srtt=50_000, cwnd=5 * 1350)
    p2 = path(2, srtt=100_000, cwnd=3 * 1350)
    sched = scheduler("cwr_red", [p1, p2])
    msg = stream_with(10_000, message_id=3)
    plan = drain(sched, msg)
    assert plan == [(1,)] * 5 + [(2,)] * 3
    assert sched.refrain_count == 8


def test_cwr_red_sends_partially_when_sum_insufficient():
    # windows too small for the whole message: duplication is forfeited and
    # packets go out per-packet as space exists, never duplicated later
    p1 = path(1, srtt=50_000, cwnd=2_700)
    p2 = path(2, srtt=100_000, cwnd=2_700)
    p1.in_flight = p2.in_flight = 1_350
    sched = scheduler("cwr_red", [p1, p2])
    msg = stream_with(10_000, message_id=3)
    assert drain(sched, msg) == [(1,), (2,)]
    assert msg.dup_mode == "off"
    p1.in_flight = p2.in_flight = 0
    p1.cwnd = p2.cwnd = 27_000
    plan = drain(sched, msg)
    assert all(t == (1,) or t == (2,) for t in plan)
    assert len(plan) == 6


def test_cwr_red_never_duplicates_retransmissions():
    p1, p2 = path(1, srtt=50_000, cwnd=27_000), path(2, srtt=100_000, cwnd=27_000)
    sched = scheduler("cwr_red", [p1, p2])
    msg = stream_with(1300)
    assert sched.admit(msg, pri_frame(), 0, rtx_path=1) == (p1,)
    assert sched.admit(msg, pri_frame(), 0, rtx_path=2) == (p2,)


def test_cwr_red_duplicated_message_sends_every_packet_on_every_path():
    # decided "all" on its first packet, each later packet goes to all paths
    # in RTT order with no check of its own, and fits each: here the
    # message fills every window exactly
    p1, p2, p3 = (path(1, srtt=50_000, cwnd=3 * 1350),
                  path(2, srtt=100_000, cwnd=3 * 1350),
                  path(3, srtt=150_000, cwnd=3 * 1350))
    sched = scheduler("cwr_red", [p3, p1, p2])
    msg = stream_with(3 * 1300, message_id=3)
    assert drain(sched, msg) == [(1, 2, 3)] * 3
    assert msg.dup_mode == "all" and sched.refrain_count == 0
    assert all(p.in_flight == 3 * 1350 for p in (p1, p2, p3))


def test_cwr_red_duplicated_packet_that_does_not_fit_raises():
    # the send pass cannot shrink a path under a duplicated message; if
    # something did, register_sent refuses the copy rather than overfill
    p1, p2 = path(1, srtt=50_000), path(2, srtt=100_000)
    sched = scheduler("cwr_red", [p1, p2])
    msg = stream_with(2_600, message_id=3)
    frame = msg.pop_pending()
    assert sched.admit(msg, frame, 0) == (p1, p2)
    p1.in_flight = p1.cwnd
    frame = msg.pop_pending()
    assert sched.admit(msg, frame, 0) == (p1, p2)
    with pytest.raises(InvariantError, match="path 1"):
        p1.register_sent(frame.length + HEADER_BYTES, frame, 0)


def test_cwr_red_second_message_of_a_pass_waits_for_the_first_to_go_whole():
    # two 3-packet priority messages loaded before one send pass: the order
    # offers stream 1 until its message is sent on both paths; stream 2
    # then finds one packet of room on each, so it is not duplicated
    engine = EventQueue(checker=lambda: None)
    links = {pid: OneWayLink(PathConfig(pid, 25_000), RngStream(1, pid))
             for pid in (1, 2)}
    paths = [PathSendState(pid, 50_000) for pid in (1, 2)]
    for ps in paths:
        ps.cwnd = 4 * MAX_PACKET_BYTES
    node = Node("server", engine, paths, links, "cwr_red")
    node.set_peer(Node("client", engine, [PathSendState(pid, 50_000)
                                          for pid in (1, 2)],
                       links, "cwr_red"))
    duplicated = []
    node.on_duplicated = duplicated.append
    second, first = (node.get_send_stream(sid) for sid in (2, 1))
    for stream in (second, first):
        stream.load_message(3 * MAX_PAYLOAD_BYTES, stream.stream_id, now=0)
    node.try_send(0)
    assert (first.dup_mode, second.dup_mode) == ("all", "off")
    assert len(duplicated) == 3 and node.path_sched.refrain_count == 2
    for ps, offset in zip(paths, (0, MAX_PAYLOAD_BYTES)):
        assert [(entry[2].stream_id, entry[2].offset)
                for entry in ps.ledger.values()] \
            == [(1, 0), (1, MAX_PAYLOAD_BYTES), (1, 2 * MAX_PAYLOAD_BYTES),
                (2, offset)]
    assert node.blocked_count == 1
    assert (len(first.pending), len(second.pending)) == (0, 1)


def test_cwr_red_background_follows_reservation_rules_on_all_paths():
    p1, p2 = path(1, srtt=50_000), path(2, srtt=100_000)
    sched = scheduler("cwr_red", [p1, p2])
    sched.register_reservation(1, 10_800, 50_000)
    assert live_rows(sched.ledger, 1) == [(1, 1, 10_800, 50_000)]
    assert live_rows(sched.ledger, 2) == [(1, 2, 10_800, 50_000)]
    bg = SendStream(0, background=True, urgent=set())
    # 13 500 - 10 800 = 2 700 leaves room for 2 background packets per path
    assert sched.admit(bg, bg_frame(), 0) == (p1,)


def test_path_scheduler_names():
    paths = [path(1)]
    assert type(scheduler("lowrtt", paths)) is LowRttScheduler
    assert type(scheduler("cwr", paths)) is ReservationScheduler
    assert type(scheduler("cwr_red", paths)) is RedundantScheduler
