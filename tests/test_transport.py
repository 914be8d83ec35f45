"""Framing, congestion control, loss detection, and receiver reassembly."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from cwrsim.engine import InvariantError
from cwrsim.scheduling import paths_by_rtt
from cwrsim.transport import (Frame, GAP_LOSS_THRESHOLD, HEADER_BYTES,
                              INITIAL_CWND, INITIAL_SSTHRESH, LOSS_ALARM_DEN,
                              LOSS_ALARM_NUM, MAX_PACKET_BYTES,
                              MAX_PAYLOAD_BYTES, MIN_CWND, PathSendState,
                              StreamReassembly, packetize)


def fresh_path(path_id=1, rtt=50_000):
    return PathSendState(path_id, rtt)


def frame_of(length=1300, offset=0, priority=False, stream=1, epoch=0):
    return Frame(stream, epoch, offset, length, False, priority)


def send_one(ps, now=0, length=1300):
    """The ledger entry (number, size, frame, sent_time, deadline)."""
    frame = frame_of(length=length)
    return ps.register_sent(frame.length + HEADER_BYTES, frame, now)


def ack_time(ps, number, now, rtt=50_000):
    """now, or the earliest an ack of `number` can arrive if that is later:
    in a run every RTT sample exceeds the nominal RTT, so srtt never falls
    below it and no loss deadline comes nearer its send than
    min_alarm_delay."""
    return max(now, ps.ledger[number][3] + rtt)


# -- packetize -------------------------------------------------------------

def test_frame_repr_is_the_former_named_tuple_repr():
    # trace digests hash this string
    assert repr(Frame(1, 0, 0, 1300, False, True, 0)) == (
        "Frame(stream_id=1, epoch=0, offset=0, length=1300, fin=False, "
        "priority=True, message_id=0, app_ack=False)")
    assert repr(Frame(0, 0, 2600, 1300, False, False)) == (
        "Frame(stream_id=0, epoch=0, offset=2600, length=1300, fin=False, "
        "priority=False, message_id=None, app_ack=False)")


def test_packetize_10kb_message():
    frames = packetize(5, 0, 10_000, True, message_id=1)
    assert len(frames) == 8
    assert [f.length for f in frames] == [1300] * 7 + [900]
    assert [f.offset for f in frames] == [i * 1300 for i in range(8)]
    assert [f.fin for f in frames] == [False] * 7 + [True]
    assert all(f.length + HEADER_BYTES <= 1350 for f in frames)


def test_packetize_5kb_message():
    frames = packetize(1, 0, 5_000, True)
    assert len(frames) == 4
    assert [f.length for f in frames] == [1300, 1300, 1300, 1100]


def test_packetize_single_byte():
    frames = packetize(1, 0, 1, True, app_ack=True)
    assert len(frames) == 1
    assert frames[0].length == 1 and frames[0].fin


def test_packetize_rejects_empty():
    with pytest.raises(ValueError):
        packetize(1, 0, 0, True)


@given(st.integers(min_value=1, max_value=200_000))
# the last frame is full
@example(MAX_PAYLOAD_BYTES)
@example(2 * MAX_PAYLOAD_BYTES)
def test_packetize_covers_message_contiguously(size):
    frames = packetize(4, 2, size, True, 9, True)
    assert {(f.stream_id, f.epoch, f.priority, f.message_id, f.app_ack)
            for f in frames} == {(4, 2, True, 9, True)}
    assert len(frames) == -(-size // MAX_PAYLOAD_BYTES)
    offset = 0
    for f in frames:
        assert f.offset == offset
        assert 0 < f.length <= MAX_PAYLOAD_BYTES
        offset += f.length
    assert offset == size
    assert frames[-1].fin and not any(f.fin for f in frames[:-1])


# -- congestion control ------------------------------------------------------

def test_send_tracks_in_flight():
    ps = fresh_path()
    send_one(ps)
    assert ps.in_flight == 1350


def test_send_beyond_cwnd_is_fatal():
    ps = fresh_path()
    ps.cwnd = 1350
    send_one(ps)
    with pytest.raises(InvariantError):
        send_one(ps)


def test_burst_of_8_packets_in_flight():
    ps = fresh_path()
    for f in packetize(1, 0, 10_000, True):
        ps.register_sent(f.length + HEADER_BYTES, f, 0)
    assert ps.in_flight == 7 * 1350 + 950  # 10 400 B


def test_slow_start_grows_by_acked_bytes():
    ps = fresh_path()
    ps.cwnd, ps.ssthresh = 2_700, 64_000
    number, *_ = send_one(ps)
    ps.ack_packet(number, 50_000)
    assert ps.cwnd == 4_050
    assert ps.cwnd < ps.ssthresh


def test_slow_start_exits_at_ssthresh():
    ps = fresh_path()
    ps.cwnd, ps.ssthresh = 13_000, 13_500
    (n1, *_), (n2, *_) = send_one(ps), send_one(ps)
    ps.ack_packet(n1, 50_000)
    assert ps.cwnd == 14_350 and ps.cwnd >= ps.ssthresh
    # the next ack grows cwnd by congestion avoidance's rule
    ps.ack_packet(n2, 50_100)
    assert ps.cwnd == 14_350 + 1350 * 1350 // 14_350


def test_ca_growth_exact_example():
    ps = fresh_path()
    ps.cwnd = ps.ssthresh = 13_500
    number, *_ = send_one(ps, length=1300)
    ps.ack_packet(number, 50_000)
    # 1350 * 1350 / 13500 = 135 exactly, no remainder
    assert ps.cwnd == 13_635
    assert ps.growth_carry == 0


def test_ca_growth_carries_remainder_exactly():
    ps = fresh_path()
    ps.cwnd = ps.ssthresh = 13_500
    n1, *_ = send_one(ps)
    n2, *_ = send_one(ps)
    ps.ack_packet(n1, 50_000)
    assert ps.cwnd == 13_635
    ps.ack_packet(n2, 50_200)
    # (1350*1350 + 0) // 13635 = 133 remainder 9045
    assert ps.cwnd == 13_635 + 133
    assert ps.growth_carry == 9_045


def test_ca_growth_full_load_approaches_one_packet_per_window():
    # acking one initial-cwnd of bytes grows the window by just under one
    # max packet (the divisor itself grows along the way), with no
    # systematic rounding loss
    ps = fresh_path()
    ps.cwnd = ps.ssthresh = 135_000
    start = ps.cwnd
    acked = 0
    while acked < start:
        number, *_ = send_one(ps)
        ps.ack_packet(number, 50_000)
        acked += 1350
    growth = ps.cwnd - start
    assert 1350 * start // ps.cwnd - 1 <= growth <= 1350


def test_srtt_ewma():
    ps = fresh_path()
    n1, *_ = send_one(ps, now=0)
    ps.ack_packet(n1, 50_216)
    assert ps.srtt == 50_216  # first sample initializes
    n2, *_ = send_one(ps, now=60_000)
    ps.ack_packet(n2, 60_000 + 51_016)
    assert ps.srtt == (7 * 50_216 + 51_016) // 8


def test_duplicate_ack_ignored():
    ps = fresh_path()
    number, *_ = send_one(ps)
    ps.ack_packet(number, 50_000)
    before = (ps.cwnd, ps.in_flight)
    entry, gaps = ps.ack_packet(number, 50_001)
    assert entry is None and not gaps
    assert (ps.cwnd, ps.in_flight) == before


def test_loss_halves_cwnd_with_floor():
    ps = fresh_path()
    ps.cwnd = ps.ssthresh = 20_000
    number, *_ = send_one(ps)
    _, decreased = ps.declare_lost(number, 100_000)
    assert decreased and ps.cwnd == 10_000 and ps.ssthresh == 10_000

    ps2 = fresh_path()
    ps2.cwnd = 2_700
    n2, *_ = send_one(ps2)
    _, dec2 = ps2.declare_lost(n2, 100_000)
    assert dec2 and ps2.cwnd == MIN_CWND


def test_single_decrease_per_rtt_round():
    ps = fresh_path()
    ps.cwnd = ps.ssthresh = 40_000
    ps.srtt = 50_000
    (n1, *_), (n2, *_) = send_one(ps), send_one(ps)
    ps.declare_lost(n1, 100_000)
    assert ps.cwnd == 20_000
    _, dec = ps.declare_lost(n2, 110_000)  # 10 ms later, same round
    assert not dec and ps.cwnd == 20_000
    n3, *_ = send_one(ps, now=120_000)
    _, dec3 = ps.declare_lost(n3, 170_000)  # next round
    assert dec3 and ps.cwnd == 10_000


def test_loss_alarm_deadline_constant():
    ps = fresh_path()
    ps.srtt = 50_000
    *_, deadline = send_one(ps, now=0)
    assert deadline == 56_250  # 9/8 * 50 ms


@pytest.mark.parametrize("acked, declared", [
    ([1, 2, 3], [[], [], [0]]),
    # two losses: RFC 9002 section 6.1.1 would declare 0 at the ack of 3,
    # three numbers past it; this rule waits for three acks above each
    ([2, 3, 4], [[], [], [0, 1]]),
], ids=["one_loss", "two_losses"])
def test_gap_rule_declares_after_three_higher_acks(acked, declared):
    ps = fresh_path()
    numbers = [send_one(ps)[0] for _ in range(5)]
    lost_after = []
    for i in acked:
        _, gaps = ps.ack_packet(numbers[i], 50_000)
        lost_after.append(list(gaps))
    assert lost_after == [[numbers[i] for i in lost] for lost in declared]


# A sequence of ledger operations: ("send", srtt or None, time step),
# ("ack", pick), ("lose", pick); pick chooses among outstanding numbers.
# srtt is never below the 50 ms nominal RTT, and an ack waits for its
# packet's earliest arrival (ack_time), as in a run.
ledger_ops = st.lists(st.one_of(
    st.tuples(st.just("send"),
              st.one_of(st.none(), st.integers(min_value=50_000, max_value=90_000)),
              st.integers(min_value=0, max_value=5_000)),
    st.tuples(st.just("ack"), st.integers(min_value=0, max_value=1_000)),
    st.tuples(st.just("lose"), st.integers(min_value=0, max_value=1_000)),
), max_size=60)


def _replay(ops):
    """Run ops on a fresh path; returns it and the last send time."""
    ps = fresh_path()
    ps.cwnd = 10 ** 9
    now = 0
    for op in ops:
        if op[0] == "send":
            _, srtt, step = op
            if srtt is not None:
                ps.srtt = srtt
            now += step
            send_one(ps, now=now)
        elif ps.ledger:
            number = sorted(ps.ledger)[op[1] % len(ps.ledger)]
            if op[0] == "ack":
                now = ack_time(ps, number, now)
                ps.ack_packet(number, now)
            else:
                ps.declare_lost(number, now)
    return ps, now


@settings(max_examples=300)
@given(ledger_ops, st.integers(min_value=0, max_value=1_000),
       st.integers(min_value=-2, max_value=2))
# a later send's deadline comes before an earlier one's, 3,250 us inside
# the scan's stopping point
@example([("send", 60_000, 0), ("send", 50_000, 8_000)], 0, -3_250)
def test_alarm_scan_matches_a_full_rescan(ops, pick, offset):
    ps, now = _replay(ops)
    deadlines = [(num, deadline)
                 for num, _, _, _, deadline in ps.ledger.values()]
    # ask at, or right next to, one of the deadlines
    at = sorted(d for _, d in deadlines)[pick % len(deadlines)] + offset \
        if deadlines else now
    later = [d for _, d in deadlines if d > at]
    assert ps.alarm_scan(at) == ([num for num, d in deadlines if d <= at],
                                 min(later) if later else None)


@settings(max_examples=300)
@given(ledger_ops)
# 0, 1 and 2 are gap-lost at the ack of 3 but left outstanding; the later
# ack of 1 declares only what lies below it
@example([("send", None, 0)] * 6 + [("ack", 5), ("ack", 4), ("ack", 3),
                                    ("ack", 1)])
def test_gap_rule_matches_a_reference_model(ops):
    # reference: the gap rule over a plain set of outstanding numbers
    outstanding: set[int] = set()
    counts: dict[int, int] = {}
    checked = []

    def on_ack(ps, number, gaps):
        outstanding.discard(number)
        counts.pop(number, None)
        expected = []
        for num in sorted(n for n in outstanding if n < number):
            seen = counts.get(num, 0) + 1
            if seen >= GAP_LOSS_THRESHOLD:
                expected.append(num)  # stays outstanding until declared
            else:
                counts[num] = seen
        assert list(gaps) == expected
        checked.append(number)

    ps = fresh_path()
    ps.cwnd = 10 ** 9
    now = 0
    for op in ops:
        if op[0] == "send":
            now += op[2]
            outstanding.add(send_one(ps, now=now)[0])
        elif outstanding:
            number = sorted(outstanding)[op[1] % len(outstanding)]
            if op[0] == "ack":
                now = ack_time(ps, number, now)
                _, gaps = ps.ack_packet(number, now)
                on_ack(ps, number, gaps)
            else:
                ps.declare_lost(number, now)
                outstanding.discard(number)
                counts.pop(number, None)
    assert set(ps.ledger) == outstanding


class NoneUntilSampled:
    """Reference for the RTT rule as once stated: srtt is None until the
    first sample sets it, and every reader takes effective_srtt(), the
    nominal RTT while srtt is None. Tracks each outstanding number's
    (send time, loss deadline)."""

    def __init__(self, path_id, nominal_rtt):
        self.path_id = path_id
        self.nominal_rtt = nominal_rtt
        self.srtt = None
        self.outstanding = {}
        self.last_decrease = None

    def effective_srtt(self):
        return self.srtt if self.srtt is not None else self.nominal_rtt

    def send(self, number, now):
        delay = LOSS_ALARM_NUM * self.effective_srtt() // LOSS_ALARM_DEN
        self.outstanding[number] = (now, now + delay)

    def ack(self, number, now):
        sample = now - self.outstanding.pop(number)[0]
        self.srtt = sample if self.srtt is None \
            else (7 * self.srtt + sample) // 8

    def lose(self, number, now):
        """Whether the loss decreases the window."""
        del self.outstanding[number]
        if self.last_decrease is None \
                or now - self.last_decrease >= self.effective_srtt():
            self.last_decrease = now
            return True
        return False


# (op, path index, pick among its outstanding numbers, time step first);
# steps of whole 5 ms make samples equal other paths' RTTs, so ties occur.
# An ack waits for its packet's earliest arrival (ack_time).
rtt_ops = st.lists(st.tuples(
    st.sampled_from(["send", "ack", "lose"]), st.integers(0, 2),
    st.integers(0, 1_000), st.sampled_from([0, 5_000, 10_000, 40_000])),
    max_size=60)


@settings(max_examples=300)
@given(st.lists(st.sampled_from([40_000, 50_000]), min_size=3, max_size=3),
       rtt_ops)
# equal nominal RTTs, and a first sample equal to another path's RTT
@example([40_000, 50_000, 50_000],
         [("send", 0, 0, 0), ("ack", 0, 0, 50_000), ("send", 0, 0, 0)])
def test_rtt_estimate_matches_the_none_until_sampled_rule(nominals, ops):
    ids = (7, 3, 5)  # list order is not id order: ties break by id
    paths = [PathSendState(pid, rtt) for pid, rtt in zip(ids, nominals)]
    refs = [NoneUntilSampled(pid, rtt) for pid, rtt in zip(ids, nominals)]
    now = 0
    for kind, index, pick, step in ops:
        now += step
        ps, ref = paths[index], refs[index]
        if kind == "send":
            ps.cwnd = 10 ** 9  # room for every send, whatever losses did
            ref.send(send_one(ps, now=now)[0], now)
        elif ps.ledger:
            number = sorted(ps.ledger)[pick % len(ps.ledger)]
            if kind == "ack":
                now = ack_time(ps, number, now, ref.nominal_rtt)
                ps.ack_packet(number, now)
                ref.ack(number, now)
            else:
                _, decreased = ps.declare_lost(number, now)
                assert decreased == ref.lose(number, now)
        assert ps.srtt == ref.effective_srtt()
        assert {num: deadline for num, _, _, _, deadline
                in ps.ledger.values()} \
            == {num: deadline for num, (_, deadline)
                in ref.outstanding.items()}
        assert ps.min_alarm_delay \
            == LOSS_ALARM_NUM * ref.nominal_rtt // LOSS_ALARM_DEN
        assert all(deadline - sent >= ps.min_alarm_delay
                   for _, _, _, sent, deadline in ps.ledger.values())
        assert [p.path_id for p in paths_by_rtt(paths)] == [
            r.path_id for r in sorted(
                refs, key=lambda r: (r.effective_srtt(), r.path_id))]


class Rfc9002Sender:
    """One path's sender as RFC 9002's pseudocode states it: Appendix A.5
    (sending), A.7 (an ack, with A.10's loss detection), A.9 (the loss
    timer) and Appendix B (congestion control), with the departures that
    README's "Transport model against RFC 9002" lists applied, each marked
    "departure" where it applies. The RFC's variables keep their names."""

    def __init__(self, initial_rtt):
        # B.3
        self.congestion_window = INITIAL_CWND
        self.bytes_in_flight = 0
        self.congestion_recovery_start_time = None
        self.ssthresh = INITIAL_SSTHRESH  # departure: finite
        # B.5 as README states it: the remainder of a congestion avoidance
        # increase is carried to the next ack
        self.carry = 0
        # A.4; departure: the configured RTT is the initial one, and
        # there is no rttvar or min_rtt
        self.smoothed_rtt = initial_rtt
        self.first_rtt_sample = False
        self.next_packet_number = 0
        self.sent_packets = {}  # number -> (time_sent, sent_bytes, loss_time)
        self.acked = []  # every number newly acked
        self.lost = set()

    def on_packet_sent(self, sent_bytes, now):
        """A.5 and B.4; returns the packet's number."""
        number = self.next_packet_number
        self.next_packet_number += 1
        # departure: the loss time is fixed at the send
        self.sent_packets[number] = (
            now, sent_bytes,
            now + LOSS_ALARM_NUM * self.smoothed_rtt // LOSS_ALARM_DEN)
        self.bytes_in_flight += sent_bytes
        return number

    def loss_times(self):
        return [loss_time for _, _, loss_time in self.sent_packets.values()]

    def on_ack_received(self, number, now):
        # A.7; departure: an ack carries one number, acked on arrival
        if number not in self.sent_packets:
            return  # not newly acked: declared lost before it came
        time_sent, sent_bytes, _ = self.sent_packets.pop(number)
        self.acked.append(number)
        # UpdateRtt; departure: no ack delay, no rttvar, integer srtt
        latest_rtt = now - time_sent
        if not self.first_rtt_sample:
            self.smoothed_rtt = latest_rtt
            self.first_rtt_sample = True
        else:
            self.smoothed_rtt = (7 * self.smoothed_rtt + latest_rtt) // 8
        lost_packets = self.detect_and_remove_lost_packets(now)
        # departure: the acked packet grows the window before the losses
        # it shows decrease it; A.7 handles the losses first
        self.on_packet_acked(sent_bytes)
        if lost_packets:
            self.on_packets_lost(lost_packets, now)

    def on_loss_timeout(self, now):
        # A.9 and A.10; departure: every outstanding packet has a loss time
        self.on_packets_lost(self.detect_and_remove_lost_packets(now), now)

    def detect_and_remove_lost_packets(self, now):
        # A.10; departures: the time threshold's loss time is fixed at the
        # send, and the packet threshold counts the numbers acked above a
        # packet rather than its distance to the largest one
        lost_packets = []
        for number, (_, sent_bytes, loss_time) in sorted(
                self.sent_packets.items()):
            above = sum(1 for acked in self.acked if acked > number)
            if loss_time <= now or above >= GAP_LOSS_THRESHOLD:
                lost_packets.append((number, sent_bytes))
        for number, _ in lost_packets:
            del self.sent_packets[number]
        return lost_packets

    def on_packet_acked(self, sent_bytes):
        # B.5; departure: the window grows on every ack, in recovery and
        # when application-limited too
        self.bytes_in_flight -= sent_bytes
        if self.congestion_window < self.ssthresh:
            self.congestion_window += sent_bytes
        else:
            increase, self.carry = divmod(
                MAX_PACKET_BYTES * sent_bytes + self.carry,
                self.congestion_window)
            self.congestion_window += increase

    def on_packets_lost(self, lost_packets, now):
        # B.8; departure: no persistent congestion
        for number, sent_bytes in lost_packets:
            self.bytes_in_flight -= sent_bytes
            self.lost.add(number)
        if lost_packets:
            self.on_congestion_event(now)

    def on_congestion_event(self, now):
        # B.6; departure: the recovery period is one smoothed RTT from the
        # last decrease
        if self.congestion_recovery_start_time is not None \
                and now - self.congestion_recovery_start_time \
                < self.smoothed_rtt:
            return
        self.congestion_recovery_start_time = now
        # departure: ssthresh is floored at the minimum window, as cwnd is
        self.ssthresh = max(self.congestion_window // 2, MIN_CWND)
        self.congestion_window = max(self.ssthresh, MIN_CWND)


NOMINAL_RTT = 50_000

# (kind, value, size, step), after `step` us: "send" value + 1 packets
# of `size` B, each cut to the free window (none when under a header's
# worth is free); "ack" the value-th oldest outstanding number at its
# send + the nominal RTT, or now if that is past, so a packet that three
# later acks skip is gap-lost; "late": ack the value-th oldest number
# declared lost and not yet acked; or "alarm": let value x 20 ms more pass.
# The loss alarm fires at every loss time that time passes.
sender_ops = st.lists(st.tuples(
    st.sampled_from(("send",) * 3 + ("ack",) * 4 + ("late", "alarm")),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([HEADER_BYTES + 1, 700, MAX_PACKET_BYTES]),
    st.sampled_from([0, 0, 1, 1_000, 5_000])),
    min_size=30, max_size=80)


@settings(max_examples=300, deadline=None)
@given(sender_ops)
# the third ack above packet 0 grows the window, then declares 0 lost
@example([("send", 3, HEADER_BYTES + 1, 0)] + [("ack", 1, 0, 0)] * 3)
def test_path_send_state_matches_rfc_9002_with_the_listed_departures(ops):
    ps = PathSendState(1, NOMINAL_RTT)
    ref = Rfc9002Sender(NOMINAL_RTT)
    lost = set()
    sent_at = {}  # number -> send time, until acked
    now = 0

    def declare(numbers, at):
        for number in numbers:
            ps.declare_lost(number, at)
            lost.add(number)

    def advance(to):
        # the alarm fires at each loss time up to `to`, earliest first
        nonlocal now
        while ref.loss_times() and min(ref.loss_times()) <= to:
            now = min(ref.loss_times())
            ref.on_loss_timeout(now)
            declare(ps.alarm_scan(now)[0], now)
        now = max(now, to)

    for kind, value, size, step in ops:
        advance(now + step)
        if kind == "send":
            for _ in range(value + 1):
                cut = min(size, ref.congestion_window - ref.bytes_in_flight)
                if cut > HEADER_BYTES:
                    number = ref.on_packet_sent(cut, now)
                    assert ps.register_sent(cut, 0, now)[0] == number
                    sent_at[number] = now
        elif kind in ("ack", "late"):
            pool = sorted(ref.sent_packets if kind == "ack"
                          else lost & sent_at.keys())
            if pool:
                number = pool[value % len(pool)]
                advance(sent_at.pop(number) + NOMINAL_RTT)
                _, gaps = ps.ack_packet(number, now)
                declare(gaps, now)
                ref.on_ack_received(number, now)
        elif kind == "alarm":
            advance(now + 20_000 * value)
        assert (ps.cwnd, ps.ssthresh, ps.srtt, ps.in_flight, lost) \
            == (ref.congestion_window, ref.ssthresh, ref.smoothed_rtt,
                ref.bytes_in_flight, ref.lost)


def test_free_window_trivials():
    ps = fresh_path()
    ps.cwnd = 5_400
    send_one(ps)
    assert ps.cwnd - ps.in_flight == 4_050
    send_one(ps)
    send_one(ps)
    send_one(ps)
    assert ps.cwnd - ps.in_flight == 0


# -- reassembly --------------------------------------------------------------

def test_reassembly_completes_on_last_offset():
    r = StreamReassembly(1)
    frames = packetize(1, 0, 10_000, True, message_id=7)
    for f in frames[:-1]:
        assert r.accept(f) == (f.length, False)
    assert r.accept(frames[-1]) == (frames[-1].length, True)


def test_reassembly_out_of_order_completes_at_gap_fill():
    r = StreamReassembly(1)
    frames = packetize(1, 0, 5_000, True)
    for f in (frames[0], frames[2], frames[3]):
        _, done = r.accept(f)
        assert not done
    _, done = r.accept(frames[1])
    assert done


def test_reassembly_discards_duplicate_offsets():
    r = StreamReassembly(1)
    frames = packetize(1, 0, 2_000, True)
    assert r.accept(frames[0]) == (1_300, False)
    assert r.accept(frames[0]) == (0, False)
    assert r.accept(frames[1]) == (700, True)
    # second copy of the completing frame arrives after completion
    assert r.accept(frames[1]) == (0, False)


def test_reassembly_tracks_stream_reuse():
    r = StreamReassembly(1)
    first = packetize(1, 0, 1_000, True)
    again = packetize(1, 1, 1_000, True)
    assert r.accept(first[0]) == (1_000, True)
    assert r.accept(again[0]) == (1_000, True)
    # a late retransmission of the finished message is stale
    assert r.accept(first[0]) == (0, False)


def test_reassembly_rejects_epoch_skip():
    r = StreamReassembly(1)
    with pytest.raises(InvariantError):
        r.accept(packetize(1, 2, 100, True)[0])


class PlainSetReassembly:
    """Reference for StreamReassembly.accept: the set of every offset of the
    current message received, and their byte count."""

    def __init__(self):
        self.epoch = 0
        self.got: set[int] = set()
        self.got_bytes = 0
        self.total = None
        self.completed = False

    def accept(self, frame):
        if frame.epoch < self.epoch or (frame.epoch == self.epoch
                                        and self.completed):
            return 0, False
        if frame.epoch > self.epoch:
            self.epoch = frame.epoch
            self.got, self.got_bytes = set(), 0
            self.total, self.completed = None, False
        if frame.offset in self.got:
            return 0, False
        self.got.add(frame.offset)
        self.got_bytes += frame.length
        if frame.fin:
            self.total = frame.offset + frame.length
        self.completed = self.got_bytes == self.total
        return frame.length, self.completed


# each message is (size, copies of each frame); its copies arrive shuffled,
# and one late copy of each frame of the message before arrives among them
@given(st.lists(st.tuples(st.integers(min_value=1,
                                      max_value=5 * MAX_PAYLOAD_BYTES),
                          st.lists(st.integers(min_value=1, max_value=3),
                                   min_size=5, max_size=5)),
                min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_accept_matches_a_plain_set(messages, rnd):
    r = StreamReassembly(1)
    ref = PlainSetReassembly()
    previous = []
    for epoch, (size, copies) in enumerate(messages):
        frames = packetize(1, epoch, size, True)
        arrivals = [f for f, n in zip(frames, copies) for _ in range(n)]
        arrivals += previous
        rnd.shuffle(arrivals)
        new_bytes = completions = 0
        for f in arrivals:
            got = r.accept(f)
            assert got == ref.accept(f)
            if f.epoch == epoch:
                new_bytes += got[0]
                completions += got[1]
        assert new_bytes == size and completions == 1
        for f in frames:
            assert r.accept(f) == (0, False)
        previous = frames
    with pytest.raises(InvariantError):
        r.accept(packetize(1, len(messages) + 1, 100, True)[0])
