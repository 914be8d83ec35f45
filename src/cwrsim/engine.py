"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG streams."""
from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Callable

_NO_ARGS = ()

SEED_MASK = (1 << 64) - 1


class InvariantError(RuntimeError):
    """A runtime contract the simulator relies on was violated."""


class EventQueue:
    """Time-ordered event dispatcher with stable FIFO tie-breaking.

    Times are integer microseconds of virtual time. Events scheduled for the
    same instant dispatch in insertion order. A queue entry is the list
    [time, seq, fn, args], kept in a binary heap; `schedule` returns it as
    the handle for `cancel`. Cancellation is lazy: it sets the entry's fn to
    None, and the entry is skipped when it surfaces. `checker` runs every
    `check_interval` dispatched events and when `run_until` returns.
    """

    def __init__(self, checker: Callable[[], None], check_interval: int = 1024):
        self.now = 0
        self.dispatched = 0
        self._heap: list[list] = []
        self._seq = 0
        self._checker = checker
        self._check_interval = max(1, check_interval)

    def schedule(self, fire_time: int, fn: Callable[..., None],
                 label: str = "event", *, args: tuple = _NO_ARGS) -> list:
        """Enqueue fn(*args) to run at fire_time; returns a handle usable
        with cancel()."""
        if fire_time < self.now:
            raise InvariantError(
                f"event {label!r} scheduled at {fire_time} behind clock {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [fire_time, seq, fn, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        entry[2] = None

    def run_until(self, t_end: int) -> int:
        """Dispatch every live event with fire_time <= t_end, in order.

        Returns the number of events dispatched by this call. The clock ends
        at t_end if events remain beyond it, otherwise at the last dispatched
        time (unchanged if nothing ran).
        """
        heap = self._heap
        checker = self._checker
        pop = heappop
        count = 0
        countdown = self._check_interval
        while heap and heap[0][0] <= t_end:
            now, _seq, fn, args = pop(heap)
            if fn is None:
                continue
            self.now = now
            fn(*args)
            count += 1
            countdown -= 1
            if countdown == 0:
                countdown = self._check_interval
                checker()
        self.dispatched += count
        if heap:
            self.now = t_end
        checker()
        return count


class RngStream:
    """One deterministic draw stream; independent per (path, direction).

    `random()` returns the stream's next uniform draw in [0, 1).
    """

    __slots__ = ("random",)

    def __init__(self, seed: int, stream_id: int):
        # Disjoint derived seeds as long as stream_id < 4096.
        self.random = random.Random((seed & SEED_MASK) * 4096 + stream_id).random

