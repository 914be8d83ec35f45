"""Host-speed reference: a fixed pure-Python kernel sampled during each measurement.

On a shared host the same work can take 2.5x longer from one minute to the
next, with CPU time rising as much as wall time, so neither clock is steady.
The benchmark therefore also reports timings scaled to a reference host
speed:

    scaled seconds = raw seconds * REFERENCE_S / kernel seconds

where the kernel seconds are the mean time of the kernel below, sampled
from a SIGALRM timer throughout the measurement and subtracted from it. A
change to cwrsim moves the scaled time as it moves the raw time; a host
that slows down slows the kernel as well, and the two cancel.

Measured on a 2-core 2.0 GHz Xeon, priority_only pass times divided by the
kernel's mean time during the pass varied less than raw pass times: a
coefficient of variation of 4.6% against 16% over 120 passes (this kernel
with twice the probes), where a kernel of scattered dict reads gave 7.3%.
A kernel whose table fits in a core's private caches gave 14% against 15%
raw over 95 passes. Sampled only just before and after each pass, a kernel
gave 14% against 6.5% raw over 36 passes: it misses slow spells shorter
than a pass. Run in a separate process throughout each pass, the dict
kernel gave 19% against 23% raw over 145 passes, where the same kernel
sampled inside the pass gave 9.6%.

The kernel runs with the garbage collector off and frees every container it
allocates before it returns, so no collection of the program's heap is
timed as kernel time and the collector's schedule is left as it was. It
does share the caches with the program it interrupts, so a cwrsim change
that grows its working set could slow the kernel too and be partly hidden
in scaled times; raw times are therefore reported beside them. With
line_rate and priority_only passes (peak resident memory 71 and 30 MB)
alternated for 160 s, the kernel inside line_rate took 0.945 of its time
inside the adjacent priority_only passes (median of 15 pairs, range
0.86-1.21), and run back to back outside any pass it took 3.5 ms against
3.9 ms inside one.
"""
from __future__ import annotations

import gc
import heapq
import signal
import time

TABLE_SLOTS = 1 << 15
PROBES = 2_500
# a binary heap of at most this many entries, like the simulator's event queue
HEAP_SIZE = 64
# About the kernel's mean time when sampled inside a simulation on a 2-core
# 2.0 GHz Xeon under Python 3.11.7; scaled seconds equal raw seconds
# whenever the kernel runs this fast.
REFERENCE_S = 0.004


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


class Kernel:
    """Fixed work of the simulator's kind: attribute reads and writes on
    small objects scattered over a table of TABLE_SLOTS, pushes and pops on
    a binary heap of tuples, and small objects allocated and freed again."""

    def __init__(self) -> None:
        self._table = [_Entry(i, 2 * i) for i in range(TABLE_SLOTS)]
        # a fixed scattered walk over the table (multiplicative hashing)
        self._keys = [(i * 2654435761) % TABLE_SLOTS for i in range(PROBES)]

    def __call__(self) -> float:
        """Seconds taken by one run of the kernel, collector off.

        Every object it allocates is freed before it returns, so it leaves
        the collector's allocation count where it found it.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            table = self._table
            heap: list[tuple] = []
            for key in self._keys:
                entry = table[key]
                entry.value += 1
                heapq.heappush(heap, (entry.value ^ key, key,
                                      _Entry(key, entry.value)))
                if len(heap) > HEAP_SIZE:
                    heapq.heappop(heap)
            heap.clear()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()


class SpeedSampler:
    """Samples the kernel every `interval_s` while entered, from SIGALRM.

    `interrupted_s` is the kernel time spent inside the measured interval,
    which the caller subtracts from its raw timing. When the interval ends
    before the first sample, one sample is taken at exit.
    """

    def __init__(self, kernel: Kernel, interval_s: float) -> None:
        self.kernel = kernel
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.interrupted_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        seconds = self.kernel()
        self.samples.append(seconds)
        self.interrupted_s += seconds

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._on_alarm(signal.SIGALRM, None)

    def scale(self) -> float:
        """Factor that converts raw seconds to seconds at reference speed."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
