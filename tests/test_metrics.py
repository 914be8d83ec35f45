"""CCDF, throughput binning, window-growth recording, CSV formats."""
from __future__ import annotations

import csv
from array import array
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import example, given, strategies as st

from cwrsim.metrics import (BIN_WIDTH_US, MIN_GROWTH_WINDOWS, WARMUP_US,
                            GrowthWindows, InsufficientSamplesError,
                            MetricsCollector, ccdf, ccdf_at, max_ccdf_gap,
                            write_ccdf_csv, write_growth_csv, write_mct_csv,
                            write_throughput_csv, CwndGrowthRecord)
from cwrsim.scenario import MAX_DURATION_US, MAX_THROUGHPUT_BINS
from cwrsim.traffic import MessageRecord
from cwrsim.transport import PathSendState


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


# a narrow value range, so that most drawn samples repeat a value
@given(st.lists(st.integers(min_value=0, max_value=40), min_size=2,
                max_size=200).filter(lambda s: len(set(s)) < len(s)))
def test_ccdf_is_the_strict_fraction_above_each_value(samples):
    # the same integer quotient, so equal as floats too
    assert ccdf(samples) == [
        (v, sum(s > v for s in samples) / len(samples))
        for v in sorted(set(samples))]


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


def recorder_of(samples, ca_since=0, decreases=(), rtt_us=50_000,
                start_us=WARMUP_US, end_us=3_000_000):
    """A path's growth recorder fed (time, cwnd) samples from 0 on, in
    congestion avoidance from the sample at ca_since (None: never), with
    each decrease reported just before the sample at its instant."""
    recorder = GrowthWindows(samples[0][1], rtt_us, start_us, end_us)
    for t, cwnd in samples:
        if t in decreases:
            recorder.decreases.append(t)
        recorder.sample(t, cwnd, ca_since is not None and t >= ca_since)
    return recorder


def samples_linear(start_t, end_t, start_v, slope_per_us, step=1_000):
    out = []
    t = start_t
    while t <= end_t:
        out.append((t, int(start_v + (t - start_t) * slope_per_us)))
        t += step
    return out


def test_growth_constant_window_is_zero():
    recorder = recorder_of([(0, 100_000)])
    assert recorder.mean() == 0.0 and len(recorder.window_growths()) == 40


def test_growth_linear_increase_measures_slope():
    # 27 bytes per ms is 1350 per 50 ms window
    recorder = recorder_of(samples_linear(0, 3_000_000, 10_000, 0.027))
    assert abs(recorder.mean() - 1350) < 30


def test_growth_excludes_windows_containing_decreases():
    # decreases sprinkled in [1.0 s, 2.0 s): those windows are dropped
    recorder = recorder_of([(0, 100_000), (1_200_000, 100_000),
                            (1_800_000, 100_000)],
                           decreases=(1_200_000, 1_800_000))
    assert len(recorder.window_growths()) == 38


def test_growth_requires_ca_phase_and_enough_windows():
    with pytest.raises(InsufficientSamplesError,
                       match="^path never reached congestion avoidance$"):
        recorder_of([(0, 1)], ca_since=None, start_us=0,
                    end_us=10_000_000).mean()
    with pytest.raises(InsufficientSamplesError,
                       match="^only 10 usable CA windows, need 20$"):
        recorder_of([(0, 1)], start_us=0, end_us=500_000).mean()


def test_collector_keeps_the_last_sample_of_an_instant():
    recorder = recorder_of([(0, 13_500), (250, 14_850), (250, 16_200),
                            (500, 6_750)], rtt_us=250, start_us=0,
                           end_us=1_000)
    assert len(recorder) == 3
    # the window boundary at 250 takes the later of its two samples
    assert recorder.window_growths() == [2_700, -9_450, 0, 0]


def test_collector_notes_the_first_congestion_avoidance_sample():
    collector = MetricsCollector(10_000_000)
    collector.register_path(1, 13_500, 50_000)
    recorder = collector.cwnd_samples[1]
    ps = PathSendState(1, 50_000)
    ps.cwnd = 14_850
    collector.on_cwnd(ps, 250, False)
    assert recorder.ca_since is None
    # a loss halves the window and sets ssthresh to it
    ps.cwnd = ps.ssthresh = 6_750
    collector.on_cwnd(ps, 500, True)
    ps.cwnd = 8_100
    collector.on_cwnd(ps, 750, False)
    assert recorder.ca_since == 500
    assert recorder.decreases == [500]


# -- the recorder against the offline computation it replaced ------------------

class ReferenceTrace:
    """Every (time, cwnd) sample of a path; times are nondecreasing."""

    def __init__(self, when: int, cwnd: int):
        self.times = array("q", (when,))
        self.values = array("q", (cwnd,))

    def add(self, when: int, cwnd: int) -> None:
        # a later sample at the same instant replaces the earlier one
        if when == self.times[-1]:
            self.values[-1] = cwnd
        else:
            self.times.append(when)
            self.values.append(cwnd)


def reference_growth(samples, ca_since, decreases, rtt_us, start_us, end_us):
    """Mean cwnd increase per rtt over CA-phase windows in [start, end),
    computed after the run from every sample; returns (mean, windows)."""
    if ca_since is None:
        raise InsufficientSamplesError("path never reached congestion avoidance")
    t0 = max(start_us, ca_since)
    times, values = samples.times, samples.values

    def cwnd_at(t):
        idx = bisect_right(times, t)
        if idx == 0:
            raise InsufficientSamplesError("no cwnd samples before window start")
        return values[idx - 1]

    growths = []
    t = t0
    while t + rtt_us <= end_us:
        # decreases in the half-open window [t, t+rtt) disqualify it
        lo = bisect_left(decreases, t)
        hi = bisect_left(decreases, t + rtt_us)
        if lo == hi:
            growths.append(cwnd_at(t + rtt_us) - cwnd_at(t))
        t += rtt_us
    if len(growths) < MIN_GROWTH_WINDOWS:
        raise InsufficientSamplesError(
            f"only {len(growths)} usable CA windows, need {MIN_GROWTH_WINDOWS}"
        )
    return sum(growths) / len(growths), len(growths)


# a step is (time since the last sample, cwnd, in CA, decrease first): a 0
# gap repeats an instant, and a decrease is reported just before the sample
# of its instant, as a declared loss reports both
growth_steps = st.lists(st.tuples(st.integers(0, 60),
                                  st.integers(0, 1_000_000),
                                  st.booleans(), st.booleans()),
                        max_size=150)


@given(rtt_us=st.integers(5, 40), start_us=st.integers(0, 400),
       span_us=st.integers(0, 1_500), cwnd0=st.integers(0, 1_000_000),
       steps=growth_steps)
# a sample exactly on a boundary, then replaced at the same instant
@example(rtt_us=10, start_us=0, span_us=300, cwnd0=100,
         steps=[(0, 100, True, False), (10, 200, True, False),
                (0, 300, True, False), (5, 400, True, False)])
# a decrease exactly on a boundary belongs to the later window
@example(rtt_us=10, start_us=0, span_us=300, cwnd0=100,
         steps=[(0, 100, True, False), (20, 50, True, True)])
# a sample exactly at the horizon
@example(rtt_us=10, start_us=0, span_us=300, cwnd0=100,
         steps=[(0, 100, True, False), (300, 500, True, False)])
# 19 usable windows: one too few
@example(rtt_us=10, start_us=0, span_us=190, cwnd0=100,
         steps=[(0, 100, True, False), (50, 150, True, False)])
def test_recorder_matches_the_offline_computation(rtt_us, start_us, span_us,
                                                  cwnd0, steps):
    end_us = start_us + span_us
    recorder = GrowthWindows(cwnd0, rtt_us, start_us, end_us)
    trace = ReferenceTrace(0, cwnd0)
    ca_since = None
    decreases = []
    t = 0
    for gap, cwnd, in_ca, decrease in steps:
        t += gap
        if decrease:
            recorder.decreases.append(t)
            decreases.append(t)
        recorder.sample(t, cwnd, in_ca)
        trace.add(t, cwnd)
        if in_ca and ca_since is None:
            ca_since = t
    assert len(recorder) == len(trace.times)
    try:
        expected = reference_growth(trace, ca_since, decreases, rtt_us,
                                    start_us, end_us)
    except InsufficientSamplesError as exc:
        with pytest.raises(InsufficientSamplesError) as got:
            recorder.mean()
        assert str(got.value) == str(exc)
    else:
        assert (recorder.mean(), len(recorder.window_growths())) == expected
        # the collector reports its path's recorder as is
        collector = MetricsCollector(end_us)
        collector.cwnd_samples[1] = recorder
        assert collector.growth_record(1, "cwr").mean_growth == expected[0]


def test_collector_bins_match_pure_function():
    deliveries = ((10_000, 1350, False), (250_000, 950, True),
                  (499_999, 1350, False), (600_000, 1350, False))
    collector = MetricsCollector(500_000)
    collector.register_path(1, 13_500, 50_000)
    for t, size, pri in deliveries:
        collector.on_delivery(t, size, pri, size)
    # reference: bin each delivery before the horizon from scratch
    direct = [(sum(size for t, size, _ in deliveries if lo <= t < lo + 100_000),
               sum(size for t, size, pri in deliveries
                   if pri and lo <= t < lo + 100_000))
              for lo in range(0, 500_000, 100_000)]
    assert [(b.total_bytes, b.priority_bytes) for b in collector.throughput()] \
        == direct


def reference_bins(horizon, deliveries):
    """(start, total, priority) per bin of [0, horizon), each delivery before
    the horizon binned from scratch."""
    out = []
    for lo in range(0, horizon, BIN_WIDTH_US):
        inside = [(size, pri) for t, size, pri in deliveries
                  if lo <= t < min(lo + BIN_WIDTH_US, horizon)]
        out.append((lo, sum(size for size, _ in inside),
                    sum(size for size, pri in inside if pri)))
    return out


@st.composite
def delivery_runs(draw):
    """A horizon (possibly shorter than one bin or not a whole number of
    bins), non-decreasing deliveries that fall on bin edges and on the
    horizon as well as between and past them, and a point to read
    throughput() mid-run."""
    width = BIN_WIDTH_US
    horizon = draw(st.integers(1, 4 * width))
    landmarks = list(range(0, horizon + 2 * width, width)) + [horizon]
    times = draw(st.lists(st.one_of(st.integers(0, horizon + 2 * width),
                                    st.sampled_from(landmarks)),
                          max_size=40))
    deliveries = [(t, draw(st.integers(1, 1350)), draw(st.booleans()))
                  for t in sorted(times)]
    return horizon, deliveries, draw(st.integers(0, len(deliveries)))


@given(delivery_runs())
# bin edges and a short last bin
@example((250_000, [(0, 1350, True), (100_000, 950, False),
                    (200_000, 10, True), (250_000, 7, True)], 2))
# a horizon shorter than one bin
@example((30_000, [(0, 5, False), (29_999, 6, True), (30_000, 7, True)], 1))
# the bins between two deliveries left empty
@example((2_000_000, [(20_000, 1, True), (1_980_000, 2, False)], 1))
def test_per_bin_counters_equal_reference_binning(run):
    horizon, deliveries, mid = run
    collector = MetricsCollector(horizon)
    for i, (t, size, pri) in enumerate(deliveries):
        if i == mid:
            assert [(b.bin_start, b.total_bytes, b.priority_bytes)
                    for b in collector.throughput()] \
                == reference_bins(horizon, deliveries[:mid])
        collector.on_delivery(t, size, pri, 0)
    assert [(b.bin_start, b.total_bytes, b.priority_bytes)
            for b in collector.throughput()] \
        == reference_bins(horizon, deliveries)
    assert collector.delivered_bytes == sum(d[1] for d in deliveries)


def test_longest_horizon_gives_the_bin_cap():
    collector = MetricsCollector(MAX_DURATION_US)
    collector.on_delivery(MAX_DURATION_US - 1, 1350, True, 1300)
    collector.on_delivery(MAX_DURATION_US, 950, True, 900)
    bins = collector.throughput()
    assert len(bins) == MAX_THROUGHPUT_BINS
    assert (bins[-1].bin_start, bins[-1].total_bytes, bins[-1].priority_bytes) \
        == (MAX_DURATION_US - BIN_WIDTH_US, 1350, 1350)
    assert sum(b.total_bytes for b in bins) == 1350


def test_csv_outputs_have_contract_columns(tmp_path):
    record = MessageRecord(1, 1, 200_000)
    record.completed_at = 225_900
    record.duplicated = True
    messages = [record]
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
    messages = [MessageRecord(1, 1, 0)]
    write_mct_csv(tmp_path / "mct.csv", messages)
    with (tmp_path / "mct.csv").open() as fh:
        assert len(list(csv.reader(fh))) == 1  # header only
