"""Source ticks, the stream each message takes, app-level completion responses."""
from __future__ import annotations

import pytest

from cwrsim.engine import InvariantError
from cwrsim.link import PathConfig
from cwrsim.scenario import ScenarioConfig
from cwrsim.simulation import Simulation
from cwrsim.traffic import FIRST_MESSAGE_STREAM_ID, DataSourceConfig
from cwrsim.transport import Frame


def two_paths(loss=0.0, owd=25_000):
    return [PathConfig(1, owd, loss_rate=loss), PathConfig(2, owd, loss_rate=loss)]


def run_sim(sources, duration_us, background=False, path_scheduler="cwr",
            seed=3, paths=None, **kw):
    cfg = ScenarioConfig(paths=paths or two_paths(), sources=sources,
                         duration_us=duration_us, seed=seed,
                         path_scheduler=path_scheduler, background=background)
    sim = Simulation(cfg, **kw)
    return sim, sim.run()


def test_tick_count_over_horizon():
    # inter-arrival 50 ms from t=0 over a 1.5 s horizon: 30 messages
    src = DataSourceConfig(1, 50_000, 2_000, start_offset_us=0)
    _, res = run_sim([src], 1_500_000)
    assert len(res.messages) == 30
    assert [m.generated_at for m in res.messages] == [
        i * 50_000 for i in range(30)]


def test_tick_pattern_with_start_offset():
    # the 17th tick falls on the horizon and makes no message
    src = DataSourceConfig(2, 70_000, 7_000, start_offset_us=0)
    _, res = run_sim([src], 1_120_000)
    assert [m.generated_at for m in res.messages] == [
        i * 70_000 for i in range(16)]


def test_messages_complete_and_free_streams():
    src = DataSourceConfig(1, 100_000, 10_000, start_offset_us=0)
    sim, res = run_sim([src], 1_500_000)
    done = [m for m in res.messages if m.completed_at is not None]
    assert len(done) == len(res.messages)
    # zero loss, idle links: every completion takes owd + serialization
    for m in done:
        assert 25_832 <= m.mct <= 27_000
        assert m.app_acked_at is not None
    # one message at a time per stream, stream ids reused
    assert {m.stream_id for m in done} == {1}


def test_overlapping_messages_use_distinct_streams():
    # inter-arrival shorter than one OWD forces overlap
    src = DataSourceConfig(1, 10_000, 1_000, start_offset_us=0)
    sim, res = run_sim([src], 1_100_000)
    by_stream: dict[int, list] = {}
    for m in res.messages:
        by_stream.setdefault(m.stream_id, []).append(m)
    assert len(by_stream) > 1
    # per stream, a new message only starts after the previous app ack
    for stream_id, messages in by_stream.items():
        for earlier, later in zip(messages, messages[1:]):
            assert earlier.app_acked_at is not None
            assert earlier.app_acked_at <= later.generated_at


def test_app_ack_round_trip_timing():
    src = DataSourceConfig(1, 200_000, 1_000, start_offset_us=0)
    sim, res = run_sim([src], 1_100_000)
    first = res.messages[0]
    # completion one owd out, app ack one more owd back
    assert first.completed_at >= 25_000
    assert first.app_acked_at >= first.completed_at + 25_000


def test_background_disabled_means_only_priority_traffic():
    src = DataSourceConfig(1, 100_000, 5_000, start_offset_us=0)
    sim, res = run_sim([src], 1_100_000, background=False)
    assert all(b.total_bytes == b.priority_bytes for b in res.metrics.throughput())


def test_background_saturates_low_rate_paths():
    # 20 Mbit/s, 25 ms owd: the window passes the bandwidth-delay product
    # during slow start, after which delivered bytes approach the line rate
    paths = [PathConfig(1, 25_000, rate_bps=20_000_000),
             PathConfig(2, 25_000, rate_bps=20_000_000)]
    cfg = ScenarioConfig(paths=paths, sources=[], duration_us=3_000_000,
                         seed=1, path_scheduler="lowrtt", background=True)
    res = Simulation(cfg).run()
    assert all(p.lost_packets == 0 for p in res.sim.server.path_list)
    bins = res.metrics.throughput()
    late = bins[10:]  # past slow start
    per_bin_capacity = 2 * 20_000_000 / 8 * 0.1  # bytes per 100 ms bin
    for b in late:
        assert b.total_bytes >= 0.9 * per_bin_capacity


def test_non_priority_source_messages_are_not_priority():
    src = DataSourceConfig(1, 100_000, 5_000, priority=False, start_offset_us=0)
    sim, res = run_sim([src], 1_100_000)
    assert all(not m.priority for m in res.messages)
    assert all(m.completed_at is not None for m in res.messages)


def test_message_takes_lowest_idle_stream_of_its_class():
    # both classes overlap their own earlier messages, so streams of each
    # class are busy, idle and reused throughout the run
    sources = [DataSourceConfig(1, 15_000, 3_000, start_offset_us=0),
               DataSourceConfig(2, 12_000, 5_000, priority=False,
                                start_offset_us=0)]
    _, res = run_sim(sources, 1_100_000)
    messages = res.messages
    ticks = {m.generated_at for m in messages}
    assert not ticks & {m.app_acked_at for m in messages}
    # replay the rule over the run: an app ack frees its stream, a tick takes
    # the lowest freed id of its class, else the next id
    events = sorted([(m.generated_at, 1, m.message_id) for m in messages]
                    + [(m.app_acked_at, 0, m.message_id) for m in messages
                       if m.app_acked_at is not None])
    free = {True: set(), False: set()}
    next_id = FIRST_MESSAGE_STREAM_ID
    expected = {}
    for _, is_tick, message_id in events:
        m = messages[message_id]
        if not is_tick:
            free[m.priority].add(expected[message_id])
        elif free[m.priority]:
            expected[message_id] = min(free[m.priority])
            free[m.priority].remove(expected[message_id])
        else:
            expected[message_id] = next_id
            next_id += 1
    assert [m.stream_id for m in messages] == [
        expected[m.message_id] for m in messages]
    # most messages reuse a stream
    assert next_id - FIRST_MESSAGE_STREAM_ID < len(messages) // 2


def test_app_ack_of_a_data_frame_is_fatal():
    sim = Simulation(ScenarioConfig(
        paths=two_paths(), sources=[DataSourceConfig(1, 50_000, 2_000)],
        duration_us=2_000_000))
    frame = Frame(FIRST_MESSAGE_STREAM_ID, 0, 0, 2_000, True, True, 0)
    with pytest.raises(InvariantError):
        sim.traffic.on_app_ack(frame, 0, 1, False)


def test_double_message_on_stream_is_fatal():
    from cwrsim.scheduling import SendStream
    s = SendStream(1, True, urgent=set())
    s.load_message(100, 1, 0)
    with pytest.raises(InvariantError):
        s.load_message(100, 2, 0)
