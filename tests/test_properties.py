"""Invariant suites over randomized small scenarios (criterion 9).

Each scenario runs once, on the same send path the CLI runs, with per-event
conservation checking and a trace hook that logs the server's sends and
blocked decisions and checks the sender's state at each send; all
properties are then asserted against that single run.
"""
from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cwrsim.link import PathConfig
from cwrsim.scenario import ScenarioConfig
from cwrsim.simulation import Simulation
from cwrsim.traffic import BACKGROUND_STREAM_ID, DataSourceConfig

HORIZON_US = 1_800_000
TOOLS = Path(__file__).resolve().parent.parent / "tools"

SENT_T, SENT_PATH, SENT_NUM, SENT_SID, SENT_EPOCH, SENT_OFF, SENT_LEN, \
    SENT_PRI, SENT_DUP, SENT_RTX = range(10)


def random_config(seed: int) -> ScenarioConfig:
    rng = random.Random(seed)
    symmetric = rng.random() < 0.5
    loss = rng.choice([0.0, 0.0005, 0.004])
    if symmetric:
        owds = (25_000, 25_000)
    else:
        owds = (10_000, 50_000)
    paths = [PathConfig(i + 1, owd, loss_rate=loss)
             for i, owd in enumerate(owds)]
    sources = []
    for i in range(rng.randint(1, 3)):
        sources.append(DataSourceConfig(
            i + 1,
            inter_arrival_us=rng.choice([70_000, 100_000, 135_000]),
            message_size_bytes=rng.choice([1_000, 5_000, 7_000, 10_000]),
            start_offset_us=rng.choice([0, 100_000, 200_000])))
    return ScenarioConfig(
        paths=paths, sources=sources, duration_us=HORIZON_US,
        seed=seed * 7 + 1,
        stream_scheduler="pfifo",
        path_scheduler=rng.choice(["lowrtt", "cwr", "cwr_red"]),
        background=rng.random() < 0.8)


class Observer:
    """Trace hook: the server's send log and blocked decisions, plus the
    checks that need a sender's state at the instant of a send."""

    def __init__(self) -> None:
        self.send_log: list[tuple] = []
        self.blocked = 0
        self.blocked_at: set[tuple[int, int]] = set()  # (time, stream id)
        self.fresh_background_sends = 0
        self.unblocked_priority: list[tuple[int, int]] = []
        self.reservation_breaches: list[tuple[str, int, int]] = []
        # (node name, path id) -> [send records, of which retransmissions]
        self.sends: dict[tuple[str, int], list[int]] = {}

    def __call__(self, node, kind, now, *fields) -> None:
        if kind == "send":
            self._check_reservations(node, now, *fields)
            path_id, _number, _frame, _is_dup, is_rtx = fields
            counts = self.sends.setdefault((node.name, path_id), [0, 0])
            counts[0] += 1
            counts[1] += is_rtx
        if node.name != "server":
            return
        if kind == "blocked":
            stream_id, _is_rtx = fields
            self.blocked += 1
            self.blocked_at.add((now, stream_id))
            return
        path_id, number, frame, is_dup, is_rtx = fields
        self.send_log.append((now, path_id, number, frame.stream_id,
                              frame.epoch, frame.offset, frame.length,
                              frame.priority, is_dup, is_rtx))
        if is_rtx or frame.stream_id != BACKGROUND_STREAM_ID:
            return
        # pfifo: a fresh background frame goes out only after every priority
        # stream with pending data was found inadmissible at this instant
        self.fresh_background_sends += 1
        for s in node.streams.values():
            if s.priority and s.pending \
                    and (now, s.stream_id) not in self.blocked_at:
                self.unblocked_priority.append((now, s.stream_id))

    def _check_reservations(self, node, now, path_id, _number, frame,
                            _is_dup, _is_rtx) -> None:
        # with the packet counted in flight, the free window still covers
        # every active reservation; test_scheduling proves this implies the
        # full at-risk prediction holds at every due time
        sched = node.path_sched
        if frame.priority or not sched.reservation_paths():
            return
        ps = node.path_states[path_id]
        if ps.cwnd - ps.in_flight < sched.ledger.active_bytes(path_id):
            self.reservation_breaches.append((node.name, now, path_id))


@pytest.fixture(scope="module", params=range(8))
def run(request):
    cfg = random_config(request.param)
    observer = Observer()
    sim = Simulation(cfg, trace=observer, check_interval=1)
    result = sim.run()
    return cfg, sim, result, observer


def test_conservation_held_every_event(run):
    # per-event checking is wired into the engine; reaching here means no
    # event left in_flight out of step with the ledger, re-verify once more
    _cfg, sim, _res, _obs = run
    sim.verify_invariants()


def test_blocked_trace_records_match_blocked_count(run):
    _cfg, sim, _res, obs = run
    assert obs.blocked == sim.server.blocked_count


def test_send_trace_records_match_packets_sent(run):
    # every data packet leaves a node through one place, which traces it
    _cfg, sim, res, obs = run
    manifest_paths = res.manifest()["paths"]
    for node in (sim.server, sim.client):
        for ps in node.path_list:
            sent, rtx = obs.sends.get((node.name, ps.path_id), (0, 0))
            assert sent == ps.sent_packets
            assert rtx == ps.retransmissions
            if node is sim.server:
                assert manifest_paths[str(ps.path_id)]["data_packets_sent"] \
                    == sent


def test_one_message_per_stream(run):
    _cfg, _sim, res, obs = run
    first_send: dict[tuple[int, int], int] = {}
    for rec in obs.send_log:
        if rec[SENT_SID] == 0 or rec[SENT_RTX]:
            continue
        key = (rec[SENT_SID], rec[SENT_EPOCH])
        first_send.setdefault(key, rec[SENT_T])
    # epochs per stream are served strictly in order
    by_stream: dict[int, list[int]] = {}
    for (sid, epoch), t in sorted(first_send.items(), key=lambda kv: kv[1]):
        by_stream.setdefault(sid, []).append(epoch)
    for epochs in by_stream.values():
        assert epochs == sorted(epochs)
    # a stream takes its next message only after the previous app ack
    by_stream_msgs: dict[int, list] = {}
    for m in res.messages:
        by_stream_msgs.setdefault(m.stream_id, []).append(m)
    for sid, messages in by_stream_msgs.items():
        for earlier, later in zip(messages, messages[1:]):
            key = (sid, messages.index(later))
            if key in first_send:
                assert earlier.app_acked_at is not None
                assert first_send[key] >= earlier.app_acked_at


def test_reservation_admission_safety(run):
    # every background send on either node left the active reservations
    # inside the free window (checked by the trace hook at the send)
    _cfg, _sim, _res, obs = run
    assert obs.reservation_breaches == []


def test_priority_fifo_ordering(run):
    # whenever a fresh background frame was sent, every priority stream with
    # pending data had been found inadmissible at that instant
    cfg, _sim, _res, obs = run
    if cfg.background:
        assert obs.fresh_background_sends > 0
    assert obs.unblocked_priority == []


def test_no_late_duplication(run):
    _cfg, _sim, _res, obs = run
    copies: dict[tuple, list] = {}
    for rec in obs.send_log:
        if rec[SENT_RTX]:
            continue
        key = (rec[SENT_SID], rec[SENT_EPOCH], rec[SENT_OFF])
        copies.setdefault(key, []).append(rec)
    for key, sends in copies.items():
        times = {rec[SENT_T] for rec in sends}
        assert len(times) == 1, f"late duplicate for frame {key}"
        paths = [rec[SENT_PATH] for rec in sends]
        assert len(paths) == len(set(paths))
        dup_flags = [rec[SENT_DUP] for rec in sends]
        assert dup_flags.count(False) == 1


def test_duplication_accounting(run):
    # every priority packet is either on all paths or counted as a refrain
    cfg, sim, _res, obs = run
    if cfg.path_scheduler != "cwr_red":
        pytest.skip("redundancy accounting applies to cwr_red only")
    n_paths = len(cfg.paths)
    copies: dict[tuple, int] = {}
    for rec in obs.send_log:
        if not rec[SENT_PRI]:
            continue
        key = (rec[SENT_SID], rec[SENT_EPOCH], rec[SENT_OFF], rec[SENT_RTX])
        copies[key] = copies.get(key, 0) + 1
    short = sum(1 for key, n in copies.items() if n < n_paths)
    assert short <= sim.server.path_sched.refrain_count


def test_zero_loss_runs_complete_every_message(run):
    cfg, sim, res, _obs = run
    if any(p.loss_rate > 0 for p in cfg.paths):
        pytest.skip("zero-loss completion property")
    for node in (sim.server, sim.client):
        for ps in node.path_list:
            assert ps.lost_packets == 0 and ps.retransmissions == 0
    for m in res.messages:
        if m.generated_at <= cfg.duration_us - 400_000:
            assert m.completed_at is not None
            owd = min(p.owd_us for p in cfg.paths)
            assert m.mct >= owd


def test_reservations_never_exceed_window(run):
    _cfg, sim, _res, _obs = run
    if not sim.server.path_sched.reservation_paths():
        pytest.skip("reservation bound applies to reserving schedulers")
    ledger = sim.server.path_sched.ledger
    for ps in sim.server.path_list:
        assert ledger.active_bytes(ps.path_id) <= ps.cwnd


def duplicated_messages(cfg) -> int:
    """Run cfg and check, from its trace records, that every frame of each
    duplicated message left once on every path, all at one instant; return
    how many messages were duplicated."""
    sends: dict[tuple, list] = {}  # (node, stream id, epoch) -> sends

    def hook(node, kind, now, *fields):
        if kind == "send":
            path_id, _number, frame, is_dup, is_rtx = fields
            if frame.priority and not is_rtx:
                sends.setdefault((node.name, frame.stream_id, frame.epoch),
                                 []).append((now, path_id, frame, is_dup))

    Simulation(cfg, trace=hook).run()
    path_ids = sorted(p.path_id for p in cfg.paths)
    duplicated = 0
    for key, recs in sends.items():
        if not any(is_dup for *_, is_dup in recs):
            continue
        duplicated += 1
        assert len({now for now, *_ in recs}) == 1, key
        frames = sorted({f.offset: f for _, _, f, _ in recs}.values(),
                        key=lambda f: f.offset)
        assert sorted((f.offset, pid) for _, pid, f, _ in recs) \
            == [(f.offset, pid) for f in frames for pid in path_ids], key
        # the frames are the whole message: contiguous from 0 to its fin
        assert frames[0].offset == 0 and frames[-1].fin, key
        assert all(a.offset + a.length == b.offset
                   for a, b in zip(frames, frames[1:])), key
    return duplicated


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_duplicated_message_leaves_whole_at_one_instant(seed):
    cfg = random_config(seed)
    cfg.path_scheduler = "cwr_red"
    duplicated_messages(cfg)


def test_duplicated_message_leaves_whole_beside_other_traffic(monkeypatch):
    # overlapping messages beside background on lossy paths
    monkeypatch.syspath_prepend(str(TOOLS))
    from identity_sweep import mixed_config

    cfg = mixed_config()
    cfg.path_scheduler = "cwr_red"
    assert duplicated_messages(cfg) > 0
