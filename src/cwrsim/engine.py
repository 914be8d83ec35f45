"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG streams."""
from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from math import inf
from typing import Callable

_NO_ARGS = ()

SEED_MASK = (1 << 64) - 1
# RngStream ids per seed: the streams of two seeds share no derived seed
# while every id is below this
RNG_STREAMS = 4096


class InvariantError(RuntimeError):
    """A runtime contract the simulator relies on was violated."""


class EventQueue:
    """Time-ordered event dispatcher with stable FIFO tie-breaking.

    Times are integer microseconds of virtual time. Events scheduled for the
    same instant dispatch in insertion order. A queue entry is the tuple
    (time, seq, fn, args), kept in a binary heap; `schedule` returns it as
    the handle for `cancel`. Cancellation is lazy: `cancel` records a
    pending entry's seq in a set, and the entry is skipped (and its seq
    discarded) when it surfaces; cancelling an entry that has fired or
    surfaced already does nothing. An entry that has surfaced sorts before
    the heap's head: it is no later than the clock, which never runs back
    (a run ends at its t_end, even when it drains the heap), and seqs only
    grow.

    `run_until(t_end)` pushes a stop entry (t_end, inf, None, None) straight
    onto the heap, so it sorts after every event at t_end, including events
    scheduled during the call, and the loop pops until it surfaces. The
    number of events dispatched is derived once per call from the heap's
    length and the seqs handed out, not counted per event. `checker` runs
    every `check_interval` dispatched events and when `run_until` returns.
    """

    def __init__(self, checker: Callable[[], None], check_interval: int = 1024):
        self.now = 0
        self.dispatched = 0
        self._heap: list[tuple] = []
        self._seq = 0
        self._cancelled: set[int] = set()
        self._checker = checker
        self._check_interval = max(1, check_interval)

    def schedule(self, fire_time: int, fn: Callable[..., None],
                 label: str = "event", *, args: tuple = _NO_ARGS) -> tuple:
        """Enqueue fn(*args) to run at fire_time; returns a handle usable
        with cancel()."""
        if fire_time < self.now:
            raise InvariantError(
                f"event {label!r} scheduled at {fire_time} behind clock {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (fire_time, seq, fn, args)
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: tuple) -> None:
        heap = self._heap
        # seqs are unique, so the comparison never reaches fn
        if heap and entry >= heap[0]:
            self._cancelled.add(entry[1])

    def run_until(self, t_end: int) -> int:
        """Dispatch every live event with fire_time <= t_end, in order.

        Returns the number of events dispatched by this call. The clock ends
        at t_end, whether or not entries remain beyond it. A t_end behind
        the clock raises InvariantError. If a handler raises, its event
        counts as dispatched, the queue keeps exactly its pending entries
        and the error propagates.
        """
        if t_end < self.now:
            raise InvariantError(f"run_until({t_end}) behind clock {self.now}")
        heap = self._heap
        cancelled = self._cancelled
        checker = self._checker
        pop = heappop
        # dispatched = entries at entry + pushed - left at exit - skipped
        base = len(heap) - self._seq
        skipped = 0
        countdown = self._check_interval
        stop = (t_end, inf, None, None)
        heappush(heap, stop)
        try:
            while True:
                now, seq, fn, args = pop(heap)
                if fn is None:
                    break
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    skipped += 1
                    continue
                self.now = now
                fn(*args)
                countdown -= 1
                if countdown == 0:
                    countdown = self._check_interval
                    checker()
        except BaseException:
            heap.remove(stop)
            heapify(heap)
            raise
        finally:
            count = base + self._seq - len(heap) - skipped
            self.dispatched += count
        self.now = t_end
        checker()
        return count


class RngStream:
    """One deterministic draw stream; independent per (path, direction).

    `random()` returns the stream's next uniform draw in [0, 1).
    """

    __slots__ = ("random",)

    def __init__(self, seed: int, stream_id: int):
        self.random = random.Random(
            (seed & SEED_MASK) * RNG_STREAMS + stream_id).random
