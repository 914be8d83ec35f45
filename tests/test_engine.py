"""Event queue ordering, cancellation, clock semantics, and RNG streams."""
from __future__ import annotations

import bisect

import pytest
from hypothesis import example, given, settings, strategies as st

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
    assert q.now == 10_000_000


def test_run_until_boundary_inclusive_and_count():
    q = EventQueue(checker=no_check)
    for t in (1_000_000, 2_000_000, 3_000_000):
        q.schedule(t, lambda: None)
    assert q.run_until(2_000_000) == 2
    assert q.now == 2_000_000


def test_clock_ends_at_t_end_when_queue_drains():
    q = EventQueue(checker=no_check)
    q.schedule(1_500, lambda: None)
    q.run_until(9_999)
    assert q.now == 9_999


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


def test_run_until_behind_the_clock_is_fatal():
    q = EventQueue(checker=no_check)
    fired = []
    q.schedule(200, lambda: fired.append(q.now))
    q.schedule(300, lambda: None)
    q.run_until(200)
    with pytest.raises(InvariantError):
        q.run_until(50)
    assert q.now == 200
    with pytest.raises(InvariantError):
        q.schedule(60, lambda: None)
    assert q.run_until(400) == 1
    assert fired == [200] and q.dispatched == 2


def test_stale_and_repeated_cancels_change_nothing():
    q = EventQueue(checker=no_check)
    fired = []
    first = q.schedule(10, lambda: fired.append("first"))
    second = q.schedule(10, lambda: fired.append("second"))
    q.run_until(10)
    q.cancel(first)
    q.cancel(second)
    late = q.schedule(20, lambda: fired.append("late"))
    q.cancel(late)
    q.cancel(late)
    assert q.run_until(30) == 0
    q.cancel(late)
    q.schedule(40, lambda: fired.append("last"))
    assert q.run_until(50) == 1
    assert fired == ["first", "second", "last"]
    assert q.dispatched == 3 and not q._cancelled


class Boom(Exception):
    """Raised on purpose by a handler of the engine property below."""


class ModelQueue:
    """Reference for EventQueue: pending entries [time, seq, fn, args,
    cancelled] in a list kept sorted by (time, seq); a cancelled entry stays
    listed until it surfaces, as EventQueue's lazy cancellation keeps it."""

    def __init__(self, checker, check_interval: int):
        self.now = 0
        self.dispatched = 0
        self.pending: list[list] = []
        self.seq = 0
        self.checker = checker
        self.check_interval = check_interval

    def schedule(self, fire_time, fn, label="event", *, args=()):
        if fire_time < self.now:
            raise InvariantError(label)
        entry = [fire_time, self.seq, fn, args, False]
        self.seq += 1
        bisect.insort(self.pending, entry, key=lambda e: (e[0], e[1]))
        return entry

    def cancel(self, entry) -> None:
        entry[4] = True  # no effect once the entry has left the list

    def run_until(self, t_end):
        if t_end < self.now:
            raise InvariantError(t_end)
        count = 0
        countdown = self.check_interval
        try:
            while self.pending and self.pending[0][0] <= t_end:
                fire_time, _, fn, args, cancelled = self.pending.pop(0)
                if cancelled:
                    continue
                self.now = fire_time
                count += 1
                fn(*args)
                countdown -= 1
                if countdown == 0:
                    countdown = self.check_interval
                    self.checker()
        finally:
            self.dispatched += count
        self.now = t_end
        self.checker()
        return count

    def pending_view(self) -> list[tuple]:
        return [(t, seq, cancelled) for t, seq, _, _, cancelled in self.pending]


def queue_view(q: EventQueue) -> list[tuple]:
    """EventQueue's pending entries as ModelQueue.pending_view lists them;
    no cancelled seq may outlive its entry."""
    seqs = {entry[1] for entry in q._heap}
    assert q._cancelled <= seqs
    return sorted((t, seq, seq in q._cancelled) for t, seq, _, _ in q._heap)


# handlers from this schedule index on spawn nothing, so every program ends
SPAWNING = 60


def execute(queue_cls, program, actions, check_interval):
    """Run program on a fresh queue_cls; returns everything observable.

    Handler i (the i-th schedule call), for i below SPAWNING, follows
    actions[i % len(actions)]: it schedules children at its own instant
    ("now"), at the running horizon ("end") or a delay later, cancels
    handle number `target` (modulo the handles so far, so possibly itself,
    fired or cancelled entries) and raises Boom if told to.
    """
    log = []
    q = queue_cls(checker=lambda: log.append(("check", q.now)),
                  check_interval=check_interval)
    handles = []
    horizon = 0

    def add(fire_time):
        index = len(handles)
        handles.append(q.schedule(fire_time, fire, args=(index,)))

    def fire(index):
        log.append(("fire", q.now, index))
        if index >= SPAWNING or not actions:
            return
        children, target, raises = actions[index % len(actions)]
        for child in children:
            add(q.now if child == "now" else horizon if child == "end"
                else q.now + child)
        if target is not None:
            q.cancel(handles[target % len(handles)])
        if raises:
            raise Boom(index)

    for kind, value in [*program, ("run", 100_000)]:
        try:
            if kind == "schedule":
                add(q.now + value)
            elif kind == "cancel":
                if handles:
                    q.cancel(handles[value % len(handles)])
            else:
                horizon = max(0, horizon + value)
                log.append(("returned", q.run_until(horizon)))
        except (InvariantError, Boom) as exc:
            log.append(("raised", type(exc).__name__,
                        exc.args[0] if isinstance(exc, Boom) else None))
        log.append(("state", q.now, q.dispatched))
    view = queue_view(q) if isinstance(q, EventQueue) else q.pending_view()
    return log, view


child_kinds = st.one_of(st.sampled_from(("now", "end")),
                        st.integers(min_value=1, max_value=300))
handler_actions = st.lists(st.tuples(
    st.lists(child_kinds, max_size=2),
    st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    st.sampled_from((False, False, False, True))), max_size=10)
programs = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(min_value=-20, max_value=400)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=60)),
    st.tuples(st.just("run"), st.integers(min_value=-50, max_value=300))),
    min_size=4, max_size=40)


@settings(max_examples=300, deadline=None)
@given(programs, handler_actions, st.integers(min_value=1, max_value=4))
# a cancelled entry at the horizon surfaces and the run drains; a later
# cancel of it must still find it gone
@example(program=[("schedule", 0), ("run", 1), ("schedule", 0),
                  ("schedule", 0)],
         actions=[(["end"], 1, False)], check_interval=1)
def test_queue_matches_sorted_list_model(program, actions, check_interval):
    assert execute(EventQueue, program, actions, check_interval) \
        == execute(ModelQueue, program, actions, check_interval)


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
