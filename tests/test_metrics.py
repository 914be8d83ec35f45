"""CCDF, throughput binning, window-growth computation, CSV formats."""
from __future__ import annotations

import csv

import pytest
from hypothesis import given, strategies as st

from cwrsim.metrics import (InsufficientSamplesError, MetricsCollector,
                            CwndTrace, ccdf, ccdf_at, cwnd_growth,
                            max_ccdf_gap, write_ccdf_csv, write_growth_csv,
                            write_mct_csv, write_throughput_csv,
                            CwndGrowthRecord)
from cwrsim.traffic import MessageRecord


def test_ccdf_definition():
    curve = ccdf([10, 20, 30])
    assert curve == [(10, 2 / 3), (20, 1 / 3), (30, 0.0)]


def test_ccdf_all_equal():
    assert ccdf([42, 42, 42]) == [(42, 0.0)]


def test_ccdf_empty():
    assert ccdf([]) == []


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=200))
def test_ccdf_monotone_nonincreasing_ending_at_zero(samples):
    curve = ccdf(samples)
    fracs = [f for _, f in curve]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 0.0
    values = [v for v, _ in curve]
    assert values == sorted(set(samples))


def test_ccdf_at_lookup():
    curve = ccdf([10, 20, 30])
    assert ccdf_at(curve, 5) == 1.0
    assert ccdf_at(curve, 10) == 2 / 3
    assert ccdf_at(curve, 25) == 1 / 3
    assert ccdf_at(curve, 99) == 0.0


def test_max_ccdf_gap():
    a = ccdf([10, 20])
    b = ccdf([10, 40])
    assert max_ccdf_gap(a, a) == 0.0
    assert max_ccdf_gap(a, b) == 0.5  # at x in [20, 40)


def test_throughput_bins_and_conservation():
    # (time, size, priority, new bytes): the last one is a duplicate copy,
    # counted in throughput but not in goodput
    deliveries = [(50_000, 1350, True, 1300),
                  (120_000, 1350, False, 1300),
                  (150_000, 950, True, 0)]
    collector = MetricsCollector(300_000)
    for delivery in deliveries:
        collector.on_delivery(*delivery)
    bins = collector.throughput()
    assert len(bins) == 3
    assert [b.total_bytes for b in bins] == [1350, 2300, 0]
    assert [b.priority_bytes for b in bins] == [1350, 950, 0]
    assert sum(b.total_bytes for b in bins) == sum(d[1] for d in deliveries)
    assert collector.delivered_bytes == 3650
    assert collector.goodput_unique_bytes == 2600


def test_throughput_empty_bins_are_zero():
    bins = MetricsCollector(1_000_000).throughput()
    assert len(bins) == 10
    assert all(b.total_bytes == 0 and b.priority_bytes == 0 for b in bins)


def trace_of(samples):
    """The CwndTrace a collector records from (time, cwnd) samples from 0 on."""
    collector = MetricsCollector(10_000_000)
    collector.register_path(1, samples[0][1])
    for t, cwnd in samples[1:]:
        collector.on_cwnd(1, t, cwnd, False)
    return collector.cwnd_samples[1]


def samples_linear(start_t, end_t, start_v, slope_per_us, step=1_000):
    out = []
    t = start_t
    while t <= end_t:
        out.append((t, int(start_v + (t - start_t) * slope_per_us)))
        t += step
    return out


def test_growth_constant_window_is_zero():
    samples = trace_of([(0, 100_000)])
    mean, windows = cwnd_growth(samples, ca_since=0, decreases=[],
                                rtt_us=50_000, start_us=1_000_000,
                                end_us=3_000_000)
    assert mean == 0.0 and windows == 40


def test_growth_linear_increase_measures_slope():
    # 27 bytes per ms is 1350 per 50 ms window
    samples = trace_of(samples_linear(0, 3_000_000, 10_000, 0.027))
    mean, _ = cwnd_growth(samples, ca_since=0, decreases=[], rtt_us=50_000,
                          start_us=1_000_000, end_us=3_000_000)
    assert abs(mean - 1350) < 30


def test_growth_excludes_windows_containing_decreases():
    flat = trace_of([(0, 100_000)])
    # decreases sprinkled in [1.0 s, 2.0 s): those windows are dropped
    decreases = [1_200_000, 1_800_000]
    mean, windows = cwnd_growth(flat, ca_since=0, decreases=decreases,
                                rtt_us=50_000, start_us=1_000_000,
                                end_us=3_000_000)
    assert windows == 38


def test_growth_requires_ca_phase_and_enough_windows():
    with pytest.raises(InsufficientSamplesError):
        cwnd_growth(trace_of([(0, 1)]), ca_since=None, decreases=[], rtt_us=50_000,
                    start_us=0, end_us=10_000_000)
    with pytest.raises(InsufficientSamplesError):
        cwnd_growth(trace_of([(0, 1)]), ca_since=0, decreases=[], rtt_us=50_000,
                    start_us=0, end_us=500_000)  # only 10 windows


def test_collector_trace_keeps_the_last_sample_of_an_instant():
    trace = trace_of([(0, 13_500), (250, 14_850), (250, 16_200), (500, 6_750)])
    assert isinstance(trace, CwndTrace) and len(trace) == 3
    assert list(trace.times) == [0, 250, 500]
    assert list(trace.values) == [13_500, 16_200, 6_750]


def test_collector_notes_the_first_congestion_avoidance_sample():
    collector = MetricsCollector(10_000_000)
    collector.register_path(1, 13_500)
    collector.on_cwnd(1, 250, 14_850, False)
    assert 1 not in collector.ca_since
    collector.on_cwnd(1, 500, 6_750, True)
    collector.on_cwnd(1, 750, 8_100, True)
    assert collector.ca_since == {1: 500}


def test_collector_bins_match_pure_function():
    deliveries = ((10_000, 1350, False), (250_000, 950, True),
                  (499_999, 1350, False), (600_000, 1350, False))
    collector = MetricsCollector(500_000)
    collector.register_path(1, 13_500)
    for t, size, pri in deliveries:
        collector.on_delivery(t, size, pri, size)
    # reference: bin each delivery before the horizon from scratch
    direct = [(sum(size for t, size, _ in deliveries if lo <= t < lo + 100_000),
               sum(size for t, size, pri in deliveries
                   if pri and lo <= t < lo + 100_000))
              for lo in range(0, 500_000, 100_000)]
    assert [(b.total_bytes, b.priority_bytes) for b in collector.throughput()] \
        == direct


def test_csv_outputs_have_contract_columns(tmp_path):
    messages = [MessageRecord(1, 1, 200_000, 10_000, True, stream_id=1,
                              completed_at=225_900, loss_involved=False,
                              duplicated=True)]
    write_mct_csv(tmp_path / "mct.csv", messages)
    write_ccdf_csv(tmp_path / "ccdf.csv", ccdf([25_900]))
    write_throughput_csv(tmp_path / "throughput.csv",
                         MetricsCollector(200_000).throughput())
    write_growth_csv(tmp_path / "cwnd_growth.csv",
                     [CwndGrowthRecord(1, "cwr", 1264.0)])

    with (tmp_path / "mct.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source_id", "message_id", "generated_at_us", "mct_us",
                       "loss_involved", "duplicated"]
    assert rows[1] == ["1", "1", "200000", "25900", "0", "1"]

    with (tmp_path / "ccdf.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mct_us", "ccdf"]
    assert rows[1] == ["25900", "0.000000000"]

    with (tmp_path / "throughput.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_start_us", "total_bytes", "priority_bytes"]
    assert rows[1] == ["0", "0", "0"]

    with (tmp_path / "cwnd_growth.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_id", "scheduler", "mean_growth_bytes_per_rtt"]
    assert rows[1] == ["1", "cwr", "1264.000"]


def test_incomplete_messages_are_not_written(tmp_path):
    messages = [MessageRecord(1, 1, 0, 100, True)]
    write_mct_csv(tmp_path / "mct.csv", messages)
    with (tmp_path / "mct.csv").open() as fh:
        assert len(list(csv.reader(fh))) == 1  # header only
