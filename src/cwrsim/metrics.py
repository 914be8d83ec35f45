"""Trace collection and evaluation outputs: completion times, throughput, window growth."""
from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Sequence

from .transport import PathSendState

WARMUP_US = 1_000_000
BIN_WIDTH_US = 100_000
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

    def __init__(self, bin_start: int, total_bytes: int, priority_bytes: int):
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


class GrowthWindows:
    """One path's cwnd growth per RTT window, measured as its samples arrive.

    Windows run from t0 = max(start, ca_since), where ca_since is the first
    sample taken in congestion avoidance, while t + rtt <= end. The cwnd at
    a window boundary is the last sample at or before it, and a later sample
    at the same instant replaces the earlier one, so a boundary is resolved
    only when a strictly later sample arrives (or, for the rest, when the
    growths are read). A window holding a decrease in [t, t + rtt) is
    skipped. Only the last sample, the cwnd at the last resolved boundary,
    the decrease times and one growth per usable window are kept; len() is
    the number of distinct sample instants.
    """

    __slots__ = ("rtt", "start", "end", "ca_since", "decreases", "growths",
                 "samples", "last_time", "last_cwnd", "boundary", "base")

    def __init__(self, cwnd: int, rtt_us: int, start_us: int, end_us: int):
        self.rtt = rtt_us
        self.start = start_us
        self.end = end_us
        self.ca_since: int | None = None
        self.decreases: list[int] = []
        self.growths: list[int] = []
        self.samples = 1
        self.last_time = 0
        self.last_cwnd = cwnd
        # the next boundary to resolve; past the end until ca_since is known
        self.boundary = end_us + 1
        self.base: int | None = None  # cwnd at the boundary before it

    def __len__(self) -> int:
        return self.samples

    def sample(self, when: int, cwnd: int, in_ca: bool) -> None:
        if when != self.last_time:
            if self.boundary < when:
                self.boundary, self.base = self._resolve(when, self.growths)
            self.samples += 1
            self.last_time = when
        self.last_cwnd = cwnd
        if in_ca and self.ca_since is None:
            self.ca_since = when
            self.boundary = max(self.start, when)

    def _resolve(self, until: int, out: list[int]) -> tuple[int, int | None]:
        """Resolve the boundaries before `until` at the last sample, adding
        each usable window's growth to out; returns the next boundary and
        the cwnd at the last one resolved."""
        b, base, cwnd, rtt = self.boundary, self.base, self.last_cwnd, self.rtt
        decreases = self.decreases
        while b < until and b <= self.end:
            if base is not None and bisect_left(decreases, b - rtt) \
                    == bisect_left(decreases, b):
                out.append(cwnd - base)
            base = cwnd
            b += rtt
        return b, base

    def window_growths(self) -> list[int]:
        """Every usable window's growth, the ones still open resolved at
        the last sample."""
        out = list(self.growths)
        self._resolve(self.end + 1, out)
        return out

    def mean(self) -> float:
        """Mean growth per window; raises InsufficientSamplesError below
        the minimum."""
        if self.ca_since is None:
            raise InsufficientSamplesError("path never reached congestion avoidance")
        growths = self.window_growths()
        if len(growths) < MIN_GROWTH_WINDOWS:
            raise InsufficientSamplesError(
                f"only {len(growths)} usable CA windows, need {MIN_GROWTH_WINDOWS}"
            )
        return sum(growths) / len(growths)


CWND_SAMPLE_INTERVAL_US = 250


class MetricsCollector:
    """Run traces plus derived outputs; throughput is binned and window
    growth measured as the run goes.

    Throughput bins cut [0, horizon) every BIN_WIDTH_US, the last one
    short when the width does not divide the horizon. Each bin's total and
    priority bytes are counters allocated for the whole horizon when the
    collector is built; a delivery adds to the bin of its time, and one at
    or past the horizon is counted in no bin.
    """

    def __init__(self, horizon_us: int):
        self.horizon_us = horizon_us
        self.goodput_unique_bytes = 0
        self.delivered_bytes = 0
        bins = -(-horizon_us // BIN_WIDTH_US)
        self._total = [0] * bins
        self._priority = [0] * bins
        self.cwnd_samples: dict[int, GrowthWindows] = {}

    def register_path(self, path_id: int, initial_cwnd: int,
                      rtt_us: int) -> None:
        self.cwnd_samples[path_id] = GrowthWindows(
            initial_cwnd, rtt_us, WARMUP_US, self.horizon_us)

    def on_delivery(self, when: int, size: int, priority: bool,
                    new_bytes: int) -> None:
        self.goodput_unique_bytes += new_bytes
        self.delivered_bytes += size
        if when < self.horizon_us:
            i = when // BIN_WIDTH_US
            self._total[i] += size
            if priority:
                self._priority[i] += size

    def on_cwnd(self, ps: PathSendState, when: int, decreased: bool) -> None:
        """Sample ps's window at `when`, first noting a decrease just made."""
        recorder = self.cwnd_samples[ps.path_id]
        if decreased:
            recorder.decreases.append(when)
        recorder.sample(when, ps.cwnd, ps.cwnd >= ps.ssthresh)

    def throughput(self) -> list[ThroughputBin]:
        """Every bin of the horizon as delivered so far."""
        return [ThroughputBin(i * BIN_WIDTH_US, total, priority)
                for i, (total, priority)
                in enumerate(zip(self._total, self._priority))]

    def growth_record(self, path_id: int, scheduler: str) -> CwndGrowthRecord:
        return CwndGrowthRecord(path_id, scheduler,
                                self.cwnd_samples[path_id].mean())


def post_warmup_mcts(messages) -> list[int]:
    """Completion times of priority messages generated after warm-up."""
    return [m.mct for m in messages
            if m.priority and m.generated_at >= WARMUP_US
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
