"""Trace collection and evaluation outputs: completion times, throughput, window growth."""
from __future__ import annotations

import csv
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Sequence

DEFAULT_WARMUP_US = 1_000_000
DEFAULT_BIN_WIDTH_US = 100_000
MIN_GROWTH_WINDOWS = 20

MCT_COLUMNS = ["source_id", "message_id", "generated_at_us", "mct_us",
               "loss_involved", "duplicated"]
CCDF_COLUMNS = ["mct_us", "ccdf"]
THROUGHPUT_COLUMNS = ["bin_start_us", "total_bytes", "priority_bytes"]
GROWTH_COLUMNS = ["path_id", "scheduler", "mean_growth_bytes_per_rtt"]


class InsufficientSamplesError(ValueError):
    """Raised instead of reporting a growth figure from too little data."""


class ThroughputBin:
    __slots__ = ("bin_start", "total_bytes", "priority_bytes")

    def __init__(self, bin_start: int, total_bytes: int = 0,
                 priority_bytes: int = 0):
        self.bin_start = bin_start
        self.total_bytes = total_bytes
        self.priority_bytes = priority_bytes


class CwndGrowthRecord:
    __slots__ = ("path_id", "scheduler", "mean_growth")

    def __init__(self, path_id: int, scheduler: str, mean_growth: float):
        self.path_id = path_id
        self.scheduler = scheduler
        self.mean_growth = mean_growth


def ccdf(samples: Sequence[int]) -> list[tuple[int, float]]:
    """Fraction of samples strictly greater than each distinct value.

    Output is sorted by value, monotone nonincreasing, and ends at 0.
    """
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    out = []
    i = 0
    while i < n:
        value = ordered[i]
        j = i
        while j < n and ordered[j] == value:
            j += 1
        out.append((value, (n - j) / n))
        i = j
    return out


def ccdf_at(curve: list[tuple[int, float]], x: int) -> float:
    """Evaluate a ccdf step curve at x (fraction of samples strictly above x)."""
    if not curve:
        return 0.0
    values = [v for v, _ in curve]
    idx = bisect_right(values, x)
    if idx == 0:
        return 1.0
    return curve[idx - 1][1]


def max_ccdf_gap(a: list[tuple[int, float]], b: list[tuple[int, float]]) -> float:
    """Largest pointwise distance between two ccdf curves over both supports."""
    gap = 0.0
    for x in sorted({v for v, _ in a} | {v for v, _ in b}):
        gap = max(gap, abs(ccdf_at(a, x) - ccdf_at(b, x)))
    return gap


class CwndTrace:
    """A path's (time, cwnd) samples, held as two integer arrays; times are
    nondecreasing."""

    __slots__ = ("times", "values")

    def __init__(self, when: int, cwnd: int):
        self.times = array("q", (when,))
        self.values = array("q", (cwnd,))

    def __len__(self) -> int:
        return len(self.times)


def cwnd_growth(samples: CwndTrace, ca_since: int | None,
                decreases: list[int], rtt_us: int, start_us: int,
                end_us: int) -> tuple[float, int]:
    """Mean cwnd increase per rtt over CA-phase windows in [start, end).

    Windows containing a multiplicative decrease are excluded. Returns
    (mean, window_count); raises InsufficientSamplesError below the minimum.
    """
    if ca_since is None:
        raise InsufficientSamplesError("path never reached congestion avoidance")
    t0 = max(start_us, ca_since)
    times, values = samples.times, samples.values

    def cwnd_at(t: int) -> int:
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


CWND_SAMPLE_INTERVAL_US = 250


class MetricsCollector:
    """Run traces plus derived outputs; throughput is binned incrementally."""

    def __init__(self, horizon_us: int, warmup_us: int = DEFAULT_WARMUP_US,
                 bin_width_us: int = DEFAULT_BIN_WIDTH_US):
        self.horizon_us = horizon_us
        self.warmup_us = warmup_us
        self.bin_width_us = bin_width_us
        n_bins = -(-horizon_us // bin_width_us) if horizon_us > 0 else 0
        self._bins = [ThroughputBin(i * bin_width_us) for i in range(n_bins)]
        self.goodput_unique_bytes = 0
        self.delivered_bytes = 0
        self.cwnd_samples: dict[int, CwndTrace] = {}
        self.ca_since: dict[int, int] = {}
        self.decreases: dict[int, list[int]] = {}

    def register_path(self, path_id: int, initial_cwnd: int) -> None:
        self.cwnd_samples[path_id] = CwndTrace(0, initial_cwnd)
        self.decreases[path_id] = []

    def on_delivery(self, when: int, size: int, priority: bool,
                    new_bytes: int) -> None:
        self.goodput_unique_bytes += new_bytes
        self.delivered_bytes += size
        if when >= self.horizon_us:
            return
        b = self._bins[when // self.bin_width_us]
        b.total_bytes += size
        if priority:
            b.priority_bytes += size

    def on_cwnd(self, path_id: int, when: int, cwnd: int,
                in_ca: bool) -> None:
        """Record a cwnd sample; the first one taken in congestion
        avoidance sets the path's ca_since."""
        # a later sample at the same instant replaces the earlier one
        trace = self.cwnd_samples[path_id]
        if when == trace.times[-1]:
            trace.values[-1] = cwnd
        else:
            trace.times.append(when)
            trace.values.append(cwnd)
        if in_ca and path_id not in self.ca_since:
            self.ca_since[path_id] = when

    def on_decrease(self, path_id: int, when: int) -> None:
        self.decreases[path_id].append(when)

    def throughput(self) -> list[ThroughputBin]:
        return self._bins

    def growth_record(self, path_id: int, scheduler: str,
                      rtt_us: int) -> CwndGrowthRecord:
        mean, _windows = cwnd_growth(
            self.cwnd_samples[path_id], self.ca_since.get(path_id),
            self.decreases[path_id], rtt_us, self.warmup_us, self.horizon_us)
        return CwndGrowthRecord(path_id, scheduler, mean)


def post_warmup_mcts(messages, warmup_us: int = DEFAULT_WARMUP_US) -> list[int]:
    """Completion times of priority messages generated after warm-up."""
    return [m.mct for m in messages
            if m.priority and m.generated_at >= warmup_us
            and m.completed_at is not None]


def _write_csv(path: Path, columns: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)


def write_mct_csv(path: Path, messages) -> None:
    _write_csv(path, MCT_COLUMNS,
               ([m.source_id, m.message_id, m.generated_at, m.mct,
                 int(m.loss_involved), int(m.duplicated)]
                for m in messages if m.completed_at is not None))


def write_ccdf_csv(path: Path, curve: list[tuple[int, float]]) -> None:
    _write_csv(path, CCDF_COLUMNS,
               ([value, f"{frac:.9f}"] for value, frac in curve))


def write_throughput_csv(path: Path, bins: list[ThroughputBin]) -> None:
    _write_csv(path, THROUGHPUT_COLUMNS,
               ([b.bin_start, b.total_bytes, b.priority_bytes] for b in bins))


def write_growth_csv(path: Path, records: list[CwndGrowthRecord]) -> None:
    _write_csv(path, GROWTH_COLUMNS,
               ([r.path_id, r.scheduler, f"{r.mean_growth:.3f}"]
                for r in records))
