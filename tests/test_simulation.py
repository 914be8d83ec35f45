"""End-to-end behavior of wired runs: determinism, loss recovery, redundancy."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import force_data_losses
from cwrsim.engine import InvariantError
from cwrsim.link import PathConfig
from cwrsim.metrics import post_warmup_mcts
from cwrsim.scenario import ScenarioConfig
from cwrsim.simulation import Simulation
from cwrsim.traffic import BACKGROUND_STREAM_ID, DataSourceConfig
from cwrsim.transport import Frame, MAX_PAYLOAD_BYTES, ReceivedOffsets


def two_paths(loss=0.0, owd=25_000, **kw):
    return [PathConfig(1, owd, loss_rate=loss, **kw),
            PathConfig(2, owd, loss_rate=loss, **kw)]


def config(**kw):
    defaults = dict(paths=two_paths(), sources=[], duration_us=2_000_000,
                    seed=5, path_scheduler="cwr", background=True)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def traced_run(cfg):
    """Run cfg; returns the run and the server's send log, one
    (time, path, number, stream, epoch, offset, length, priority,
    duplicate, retransmission) tuple per data packet."""
    send_log = []

    def trace(node, kind, now, *fields):
        if node.name == "server" and kind == "send":
            path_id, number, frame, is_dup, is_rtx = fields
            send_log.append((now, path_id, number, frame.stream_id,
                             frame.epoch, frame.offset, frame.length,
                             frame.priority, is_dup, is_rtx))

    sim = Simulation(cfg, trace=trace)
    return sim, sim.run(), send_log


def test_deterministic_replay_same_seed():
    runs = []
    for _ in range(2):
        cfg = config(paths=two_paths(loss=0.0005),
                     sources=[DataSourceConfig(1, 100_000, 10_000)])
        sim, res, send_log = traced_run(cfg)
        runs.append((sim.engine.dispatched, send_log,
                     [(m.message_id, m.completed_at) for m in res.messages]))
    assert runs[0] == runs[1]


def test_different_seed_changes_loss_pattern():
    outcomes = []
    for seed in (1, 2):
        cfg = config(paths=two_paths(loss=0.01), seed=seed,
                     sources=[DataSourceConfig(1, 50_000, 10_000)])
        sim = Simulation(cfg)
        sim.run()
        outcomes.append(tuple(link.data_dropped
                              for link in sim.server.links.values()))
    assert outcomes[0] != outcomes[1]


def test_zero_loss_run_has_no_retransmissions_or_decreases():
    cfg = config(sources=[DataSourceConfig(1, 100_000, 10_000)],
                 duration_us=4_000_000)
    sim = Simulation(cfg)
    res = sim.run()
    for node in (sim.server, sim.client):
        for ps in node.path_list:
            assert ps.lost_packets == 0
            assert ps.retransmissions == 0
            assert ps.last_decrease is None
    for m in res.messages:
        assert m.completed_at is not None
        # at least one-way delay plus per-packet serialization
        assert m.mct >= 25_000 + 832


def test_lost_priority_packet_is_recovered():
    # drop the first data packet on path 1; the message still completes via
    # early retransmission, and the window halves exactly once
    cfg = config(
        sources=[DataSourceConfig(1, 200_000, 1_000, start_offset_us=0)],
        background=False)
    sim = Simulation(cfg)
    force_data_losses(sim, 1, (0,))
    res = sim.run()
    first = res.messages[0]
    assert first.loss_involved
    assert first.completed_at is not None
    # alarm at 1.125 * 50 ms, retransmit arrives one OWD later
    assert 81_250 <= first.mct <= 85_000
    assert sim.server.path_states[1].lost_packets == 1
    assert sim.server.path_states[1].retransmissions == 1
    # later messages are unaffected
    assert all(m.mct < 30_000 for m in res.messages[1:])


def test_redundant_scheduler_duplicates_and_receiver_deduplicates():
    cfg = config(path_scheduler="cwr_red",
                 sources=[DataSourceConfig(1, 100_000, 10_000)],
                 duration_us=2_000_000)
    _sim, res, send_log = traced_run(cfg)
    done = [m for m in res.messages if m.completed_at is not None]
    assert done and all(m.duplicated for m in done)
    assert all(m.mct < 27_000 for m in done if m.generated_at >= 1_000_000)
    # every priority frame went out once per path, with matching offsets
    by_frame: dict[tuple, list] = {}
    for (t, path_id, _num, sid, epoch, offset, _ln, pri, dup,
         rtx) in send_log:
        if pri and not rtx:
            by_frame.setdefault((sid, epoch, offset), []).append((t, path_id, dup))
    for copies in by_frame.values():
        assert {c[1] for c in copies} == {1, 2}
        assert len({c[0] for c in copies}) == 1  # same send instant
        assert [c[2] for c in copies].count(False) == 1


def test_duplicate_loss_recovered_without_retransmission():
    # lose one copy of a duplicated packet; the other copy completes the
    # message and the sender suppresses the retransmission
    cfg = config(
        path_scheduler="cwr_red",
        sources=[DataSourceConfig(1, 300_000, 1_000, start_offset_us=0)],
        background=False)
    sim = Simulation(cfg)
    force_data_losses(sim, 1, (0,))
    res = sim.run()
    first = res.messages[0]
    assert first.completed_at is not None
    assert first.mct < 30_000  # path 2 copy delivered it
    assert sim.server.path_states[1].lost_packets == 1
    assert sim.server.path_states[1].retransmissions == 0


def test_message_isolation_under_forced_loss():
    # two sources tick together; losing all of message A's packets does not
    # move message B's completion time (loss is silent at the sender)
    sources = [DataSourceConfig(1, 500_000, 2_600, start_offset_us=0),
               DataSourceConfig(2, 500_000, 2_600, start_offset_us=0)]
    base_cfg = config(sources=sources, background=False)
    baseline = Simulation(base_cfg).run()

    lossy_cfg = config(sources=sources, background=False)
    lossy_sim = Simulation(lossy_cfg)
    force_data_losses(lossy_sim, 1, (0, 1))
    lossy = lossy_sim.run()

    def completion(res, source_id):
        return next(m.completed_at for m in res.messages
                    if m.source_id == source_id)

    # message A (source 1, both packets forced lost) is delayed
    assert completion(lossy, 1) > completion(baseline, 1)
    # message B on its own stream is untouched
    assert completion(lossy, 2) == completion(baseline, 2)
    # and A still completes eventually
    assert all(m.completed_at is not None for m in lossy.messages)


def test_lost_background_offset_is_retransmitted_as_its_frame():
    # a background first transmission travels as its bare offset; losing
    # one builds its Frame for the loss report and the retransmission
    sends = []

    def trace(node, kind, now, *fields):
        if node.name == "server" and kind == "send":
            sends.append(fields)

    sim = Simulation(config(), trace=trace)
    force_data_losses(sim, 1, (20,))
    server, client = sim.server, sim.client
    lost_payloads = []
    declare_loss = server._declare_loss

    def recording_declare_loss(ps, number, now):
        lost_payloads.append(ps.ledger[number][2])
        declare_loss(ps, number, now)

    server._declare_loss = recording_declare_loss
    lost_ids = []
    server.on_frame_lost = lambda frame: lost_ids.append(frame.message_id)
    goodput = {}
    receive_bg = server._peer_receive_bg

    def recording_receive_bg(number, path_id, offset, size):
        before = sim.metrics.goodput_unique_bytes
        receive_bg(number, path_id, offset, size)
        goodput[offset] = goodput.get(offset, 0) \
            + sim.metrics.goodput_unique_bytes - before

    server._peer_receive_bg = recording_receive_bg
    sim.run()

    assert len(lost_payloads) == 1 and type(lost_payloads[0]) is int
    offset = lost_payloads[0]
    assert lost_ids == [None]
    background = server.streams[BACKGROUND_STREAM_ID]
    rtx = [frame for path_id, _n, frame, _dup, is_rtx in sends if is_rtx]
    assert [repr(frame) for frame in rtx] \
        == [repr(background.background_frame(offset))]
    assert type(rtx[0]) is Frame
    assert goodput[offset] == MAX_PAYLOAD_BYTES
    assert server.path_states[1].retransmissions == 1
    assert all(type(frame) is Frame
               and repr(frame)
               == repr(background.background_frame(frame.offset))
               for _p, _n, frame, _dup, _rtx in sends)
    assert client._bg_seen.floor > offset


def test_background_retransmission_enters_the_ledger_as_its_offset():
    # every background send, first or resent, carries its bare offset, so
    # the ledger holds a Frame only for a message packet
    payloads = []  # (frame the trace reports, ledger payload, is_rtx)

    def trace(node, kind, now, *fields):
        if node.name == "server" and kind == "send":
            path_id, number, frame, _dup, is_rtx = fields
            payloads.append((frame, node.path_states[path_id]
                             .ledger[number][2], is_rtx))

    sim = Simulation(config(paths=two_paths(loss=0.004),
                            sources=[DataSourceConfig(1, 100_000, 10_000)]),
                     trace=trace)
    force_data_losses(sim, 1, (20,))
    sim.run()

    bg_rtx = [payload for frame, payload, is_rtx in payloads
              if is_rtx and frame.message_id is None]
    assert bg_rtx and all(type(p) is int for p in bg_rtx)
    assert any(is_rtx and frame.message_id is not None
               for frame, _p, is_rtx in payloads)
    for frame, payload, _rtx in payloads:
        if frame.message_id is None:
            assert payload == frame.offset
        else:
            assert payload is frame
    assert sum(ps.retransmissions for ps in sim.server.path_list) \
        == sum(is_rtx for _f, _p, is_rtx in payloads)


def test_asymmetric_paths_prefer_fast_path_for_priority():
    cfg = config(
        paths=[PathConfig(1, 10_000), PathConfig(2, 50_000)],
        sources=[DataSourceConfig(1, 100_000, 10_000)],
        duration_us=3_000_000)
    res = Simulation(cfg).run()
    mcts = post_warmup_mcts(res.messages)
    # one-way delay of the fast path dominates
    assert mcts and max(mcts) < 12_000


def test_reservation_drop_diagnostics_surface_in_manifest():
    cfg = config(paths=two_paths(loss=0.003),
                 sources=[DataSourceConfig(1, 50_000, 10_000)],
                 duration_us=4_000_000)
    res = Simulation(cfg).run()
    manifest = res.manifest()
    assert manifest["diagnostics"]["reservations_dropped_events"] > 0
    assert manifest["messages"]["generated"] == len(res.messages)


def test_lowrtt_throughput_insensitive_to_message_size():
    totals = []
    for size in (10_000, 50_000):
        cfg = config(paths=two_paths(loss=0.0005), path_scheduler="lowrtt",
                     sources=[DataSourceConfig(1, 100_000, size)],
                     duration_us=6_000_000)
        res = Simulation(cfg).run()
        totals.append(sum(b.total_bytes for b in res.metrics.throughput()))
    small, big = totals
    assert abs(small - big) / small < 0.05


def test_ca_growth_bounds_per_window_at_full_load():
    # loss-free saturated run: every usable CA window grows by one max packet,
    # within the quantization of acks landing on window boundaries
    cfg = config(path_scheduler="lowrtt", duration_us=6_000_000)
    res = Simulation(cfg).run()
    for path_id in (1, 2):
        recorder = res.metrics.cwnd_samples[path_id]
        assert recorder.ca_since is not None and not recorder.decreases
        windows = recorder.window_growths()
        assert len(windows) >= 20
        assert all(1_215 <= w <= 1_385 for w in windows), windows


def test_dispatch_log_replays_byte_identical():
    logs = []
    for _ in range(2):
        cfg = config(paths=two_paths(loss=0.002),
                     sources=[DataSourceConfig(1, 100_000, 10_000)],
                     duration_us=1_500_000)
        sim = Simulation(cfg)
        engine = sim.engine
        schedule = engine.schedule
        order = itertools.count()
        log = []

        def logged(fire_time, fn, label="event", *, args=()):
            # each callback records (clock, schedule order, label) as it runs
            seq = next(order)

            def dispatch(*a):
                log.append((engine.now, seq, label))
                fn(*a)
            return schedule(fire_time, dispatch, label, args=args)

        engine.schedule = logged
        sim.run()
        assert len(log) == engine.dispatched
        logs.append(bytes(str(log), "ascii"))
    assert logs[0] == logs[1]


def test_handle_ack_one_entry_point():
    cfg = config(sources=[DataSourceConfig(1, 200_000, 1_000,
                                           start_offset_us=0)],
                 background=False)
    sim = Simulation(cfg)
    sim.traffic.start()
    sim.engine.run_until(10_000)  # the first packet is in flight, unacked
    ps = sim.server.path_states[1]
    number = next(iter(ps.ledger))
    sim.engine.now = 51_000
    sim.server.handle_ack_one(1, number)
    assert number not in ps.ledger


def test_earlier_deadline_moves_the_armed_loss_alarm():
    # two one-packet messages 5 ms apart on one path, its srtt raised over
    # the 50 ms RTT for the first and back to it for the second, so the
    # second packet's loss deadline comes before the alarm armed for the
    # first; srtt never falls below the RTT, as in a run
    cfg = ScenarioConfig(
        paths=[PathConfig(1, 25_000)],
        sources=[DataSourceConfig(1, 1_000_000, 1_000, start_offset_us=0),
                 DataSourceConfig(2, 1_000_000, 1_000, start_offset_us=5_000)],
        duration_us=1_100_000, background=False, path_scheduler="lowrtt")
    sim = Simulation(cfg)
    engine, ps = sim.engine, sim.server.path_states[1]
    sim.traffic.start()
    ps.srtt = 60_000
    engine.run_until(0)
    replaced = ps.alarm_entry
    assert replaced[0] == 67_500  # 9/8 of the 60 ms srtt
    ps.srtt = 50_000
    engine.run_until(5_000)
    assert ps.alarm_entry is not replaced
    assert ps.alarm_entry[0] == 5_000 + 56_250
    # both acks arrive before the moved alarm, which finds nothing to
    # declare, and nothing else falls due at the replaced alarm's instant
    engine.run_until(replaced[0] - 1)
    assert ps.alarm_entry is None and not ps.ledger
    before = engine.dispatched
    engine.run_until(replaced[0])
    assert engine.dispatched == before
    assert ps.lost_packets == 0


def test_a_deadline_under_min_alarm_delay_breaks_the_invariants():
    # srtt under the nominal RTT, which no RTT sample brings about, puts a
    # loss deadline nearer its send than alarm_scan's early stop allows
    cfg = config(paths=[PathConfig(1, 25_000)], background=False,
                 sources=[DataSourceConfig(1, 200_000, 1_000,
                                           start_offset_us=100_000)])
    sim = Simulation(cfg)
    sim.traffic.start()
    sim.engine.run_until(50_000)
    sim.server.path_states[1].srtt = 49_999
    # the run's checker follows the send at 100 ms
    with pytest.raises(InvariantError, match=(
            "^server path 1: packet 0's loss deadline is under "
            "min_alarm_delay$")):
        sim.engine.run_until(100_000)


def test_due_gate_wake_gives_way_to_a_later_one():
    # unlike the loss alarm, a gate wake due now but not yet dispatched is
    # replaced by a later one: an event dispatched before it at its
    # instant asks for the later wake, and the due one never runs
    sim = Simulation(config())
    engine, server = sim.engine, sim.server
    engine.schedule(1_000, lambda: server._schedule_gate_wake(1_500),
                    "probe")
    server._schedule_gate_wake(1_000)
    engine.run_until(1_000)
    assert engine.dispatched == 1  # the probe alone
    assert server._wake_entry[0] == 1_500
    engine.run_until(2_000)
    assert engine.dispatched == 2 and server._wake_entry is None


def test_growth_records_and_outputs(tmp_path):
    cfg = config(sources=[DataSourceConfig(1, 100_000, 10_000)],
                 duration_us=4_000_000)
    res = Simulation(cfg).run()
    records, skipped = res.growth_records()
    assert not skipped
    assert {r.path_id for r in records} == {1, 2}
    for r in records:
        assert 0 < r.mean_growth <= 1400
    warnings = res.write_outputs(tmp_path / "out")
    assert warnings == []
    assert (tmp_path / "out" / "manifest.json").exists()


# each step is (segment index, copies): a copy past the first is a
# retransmission or duplicate, and the list order is the arrival order
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                          st.integers(min_value=1, max_value=3)),
                max_size=120),
       st.randoms(use_true_random=False))
def test_received_offsets_match_a_plain_set(steps, rnd):
    arrivals = [i for i, copies in steps for _ in range(copies)]
    rnd.shuffle(arrivals)
    tracker = ReceivedOffsets()
    seen: set[int] = set()  # reference: every offset ever received
    for i in arrivals:
        offset = i * MAX_PAYLOAD_BYTES
        expected = 0 if offset in seen else MAX_PAYLOAD_BYTES
        seen.add(offset)
        assert tracker.add(offset, MAX_PAYLOAD_BYTES) == expected
    prefix = 0
    while prefix in seen:
        prefix += MAX_PAYLOAD_BYTES
    assert tracker.floor == prefix
    assert set(tracker.above) == {o for o in seen if o > prefix}


def test_per_run_tables_are_bounded_by_in_flight_state():
    # background plus duplicated priority messages over lossy paths; the
    # tables are sampled every 10 ms and must not grow with the horizon,
    # nor the growth recorder's windows with the number of cwnd samples
    frames_per_message = -(-10_000 // MAX_PAYLOAD_BYTES)
    received = {}
    for horizon in (2_000_000, 6_000_000):
        cfg = config(paths=two_paths(loss=0.002), path_scheduler="cwr_red",
                     sources=[DataSourceConfig(1, 100_000, 10_000)],
                     duration_us=horizon)
        sim = Simulation(cfg)
        sim.traffic.start()
        peak_above = peak_in_flight = 0
        for t in range(10_000, horizon + 1, 10_000):
            sim.engine.run_until(t)
            peak_above = max(peak_above, len(sim.client._bg_seen.above))
            peak_in_flight = max(peak_in_flight,
                                 sum(len(ps.ledger)
                                     for ps in sim.server.path_list))
            for node in (sim.server, sim.client):
                for stream in node.streams.values():
                    assert len(stream.delivered) <= frames_per_message
            for recorder in sim.metrics.cwnd_samples.values():
                assert len(recorder.growths) <= t // recorder.rtt + 1
        # segments past a gap arrive within one loss recovery of it
        assert peak_above <= 2 * peak_in_flight
        for ps in sim.server.path_list:
            recorder = sim.metrics.cwnd_samples[ps.path_id]
            assert len(recorder) >= 10 * (horizon // recorder.rtt + 1)
            assert len(recorder.decreases) <= ps.lost_packets
        received[horizon] = sim.client._bg_seen.floor // MAX_PAYLOAD_BYTES
    # a table of every offset would be far past those bounds
    assert received[6_000_000] > 2 * received[2_000_000] > 20 * peak_in_flight


def test_acked_response_is_not_resent_from_its_queued_copy():
    # the client sends a completion response on both paths; the path 1 copy
    # is declared lost with no send pass after it, as when the client's
    # window is full, so its retransmission is still queued when the path 2
    # copy's ack arrives
    client_sends = []

    def trace(node, kind, now, *fields):
        if node.name == "client" and kind == "send":
            client_sends.append(fields)

    cfg = config(path_scheduler="cwr_red", background=False,
                 sources=[DataSourceConfig(1, 1_000_000, 1_000,
                                           start_offset_us=0)],
                 duration_us=1_100_000)
    sim = Simulation(cfg, trace=trace)
    client, engine = sim.client, sim.engine
    lossy, other = client.path_states[1], client.path_states[2]
    sim.traffic.start()
    engine.run_until(30_000)  # the message is whole, its response sent
    [(number, _size, response, _t, _d)] = lossy.ledger.values()
    assert response.app_ack and len(other.ledger) == 1
    stream = client.streams[response.stream_id]
    client._declare_loss(lossy, number, engine.now)
    assert stream.rtx and stream in client.urgent
    blocked = client.blocked_count
    engine.run_until(80_000)
    assert not other.ledger  # the path 2 copy's ack has arrived
    assert not stream.rtx and stream not in client.urgent
    assert client.blocked_count == blocked
    engine.run_until(cfg.duration_us)
    assert [(path_id, is_rtx) for path_id, _n, frame, _dup, is_rtx
            in client_sends if frame.message_id == response.message_id] \
        == [(1, False), (2, False)]
    assert lossy.retransmissions == 0
