"""Source ticks, stream pool reuse, app-level completion acks."""
from __future__ import annotations

import pytest

from cwrsim.engine import InvariantError
from cwrsim.link import PathConfig
from cwrsim.scenario import ScenarioConfig
from cwrsim.simulation import Simulation
from cwrsim.traffic import DataSourceConfig, StreamPool


def two_paths(loss=0.0, owd=25_000):
    return [PathConfig(1, owd, loss_rate=loss), PathConfig(2, owd, loss_rate=loss)]


def run_sim(sources, duration_us, background=False, path_scheduler="cwr",
            seed=3, paths=None, **kw):
    # every caller's horizon is at most 1 s, inside the default warm-up
    cfg = ScenarioConfig(paths=paths or two_paths(), sources=sources,
                         duration_us=duration_us, warmup_us=0, seed=seed,
                         path_scheduler=path_scheduler, background=background)
    sim = Simulation(cfg, **kw)
    return sim, sim.run()


def test_tick_count_over_horizon():
    # inter-arrival 50 ms from t=0 over a 1 s horizon: 20 messages
    src = DataSourceConfig(1, 50_000, 2_000, start_offset_us=0)
    _, res = run_sim([src], 1_000_000)
    assert len(res.messages) == 20
    assert [m.generated_at for m in res.messages] == [
        i * 50_000 for i in range(20)]


def test_tick_pattern_with_start_offset():
    src = DataSourceConfig(2, 70_000, 7_000, start_offset_us=0)
    _, res = run_sim([src], 220_000)
    assert [m.generated_at for m in res.messages] == [0, 70_000, 140_000, 210_000]


def test_messages_complete_and_free_streams():
    src = DataSourceConfig(1, 100_000, 10_000, start_offset_us=0)
    sim, res = run_sim([src], 1_000_000)
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
    sim, res = run_sim([src], 300_000)
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
    sim, res = run_sim([src], 400_000)
    first = res.messages[0]
    # completion one owd out, app ack one more owd back
    assert first.completed_at >= 25_000
    assert first.app_acked_at >= first.completed_at + 25_000


def test_background_disabled_means_only_priority_traffic():
    src = DataSourceConfig(1, 100_000, 5_000, start_offset_us=0)
    sim, res = run_sim([src], 500_000, background=False)
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
    sim, res = run_sim([src], 400_000)
    assert all(not m.priority for m in res.messages)
    assert all(m.completed_at is not None for m in res.messages)


def test_stream_pool_reuses_lowest_free_of_matching_class():
    pool = StreamPool()
    a = pool.acquire(1, True)
    b = pool.acquire(2, True)
    c = pool.acquire(3, False)
    assert (a, b, c) == (1, 2, 3)
    pool.release(a, True)
    pool.release(c, False)
    assert pool.acquire(4, True) == 1     # reuse, same class
    assert pool.acquire(5, False) == 3    # class kept separate
    assert pool.acquire(6, True) == 4     # fresh when none free


def test_stream_pool_release_guard():
    pool = StreamPool()
    with pytest.raises(InvariantError):
        pool.release(1, True)


def test_double_message_on_stream_is_fatal():
    from cwrsim.scheduling import SendStream
    s = SendStream(1, True)
    s.load_message(100, 1, 0)
    with pytest.raises(InvariantError):
        s.load_message(100, 2, 0)
