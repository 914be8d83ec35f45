"""Event queue ordering, cancellation, clock semantics, and RNG streams."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cwrsim.engine import EventQueue, InvariantError, RngStream


def no_check() -> None:
    """Invariant checker for queues that carry no simulation."""


def test_events_fire_in_time_order():
    q = EventQueue(checker=no_check)
    fired = []
    q.schedule(25_108, lambda: fired.append("late"))
    q.schedule(10, lambda: fired.append("early"))
    q.schedule(500, lambda: fired.append("mid"))
    q.run_until(1_000_000)
    assert fired == ["early", "mid", "late"]


def test_same_time_events_fire_in_insertion_order():
    q = EventQueue(checker=no_check)
    fired = []
    for tag in ("a", "b", "c"):
        q.schedule(42, lambda t=tag: fired.append(t))
    q.run_until(100)
    assert fired == ["a", "b", "c"]


def test_cancel_prevents_dispatch():
    q = EventQueue(checker=no_check)
    fired = []
    handle = q.schedule(10, lambda: fired.append("nope"))
    q.schedule(20, lambda: fired.append("yes"))
    q.cancel(handle)
    assert q.run_until(100) == 1
    assert fired == ["yes"]


def test_scheduling_in_the_past_is_fatal():
    q = EventQueue(checker=no_check)
    q.schedule(10, lambda: None)
    q.run_until(10)
    with pytest.raises(InvariantError):
        q.schedule(5, lambda: None)


def test_run_until_empty_queue():
    q = EventQueue(checker=no_check)
    assert q.run_until(10_000_000) == 0
    assert q.now == 0


def test_run_until_boundary_inclusive_and_count():
    q = EventQueue(checker=no_check)
    for t in (1_000_000, 2_000_000, 3_000_000):
        q.schedule(t, lambda: None)
    assert q.run_until(2_000_000) == 2
    assert q.now == 2_000_000


def test_clock_stays_at_last_event_when_queue_drains():
    q = EventQueue(checker=no_check)
    q.schedule(1_500, lambda: None)
    q.run_until(9_999)
    assert q.now == 1_500


def test_events_scheduled_during_dispatch_run_in_same_window():
    q = EventQueue(checker=no_check)
    fired = []
    q.schedule(10, lambda: (fired.append("first"),
                            q.schedule(20, lambda: fired.append("child"))))
    q.run_until(100)
    assert fired == ["first", "child"]


# One initially scheduled event: its fire time, whether it is cancelled
# before the run, how many events it schedules at its own instant when it
# fires, and which earlier schedule call (by index) it then cancels, if any.
initial_events = st.lists(st.tuples(
    st.integers(min_value=0, max_value=10_000), st.booleans(),
    st.integers(min_value=0, max_value=2),
    st.one_of(st.none(), st.integers(min_value=0, max_value=200))),
    min_size=1, max_size=50)


@given(initial_events)
def test_dispatch_order_is_sorted_by_time_then_insertion(events):
    q = EventQueue(checker=no_check)
    # per schedule call: [fire time, schedule index, live]; an entry stops
    # being live when it is cancelled before it dispatches
    scheduled: list[list] = []
    handles = []
    log = []
    fired = set()

    def add(t, children, target):
        index = len(scheduled)
        scheduled.append([t, index, True])
        handles.append(q.schedule(t, fire, args=(index, children, target)))

    def fire(index, children, target):
        log.append((q.now, index))
        fired.add(index)
        for _ in range(children):
            add(q.now, 0, None)
        if target is not None and target < len(scheduled) \
                and target not in fired:
            q.cancel(handles[target])
            scheduled[target][2] = False

    for t, _, children, target in events:
        add(t, children, target)
    for (_, cancelled, _, _), row, handle in zip(events, scheduled, handles):
        if cancelled:
            q.cancel(handle)
            row[2] = False
    q.run_until(10_001)
    assert log == sorted((t, index) for t, index, live in scheduled if live)


def test_same_seed_same_draws():
    a = RngStream(99, 3)
    b = RngStream(99, 3)
    assert [a.random() for _ in range(1000)] == [b.random() for _ in range(1000)]


def test_streams_are_independent():
    # drawing from one stream must not shift another stream's sequence
    reference = RngStream(7, 1)
    baseline = [reference.random() for _ in range(100)]
    s0 = RngStream(7, 0)
    s1 = RngStream(7, 1)
    out = []
    for i in range(100):
        s0.random()
        if i % 2 == 0:
            s0.random()  # extra draws on stream 0
        out.append(s1.random())
    assert out == baseline
