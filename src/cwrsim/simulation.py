"""Wires engine, links, transport and schedulers into a runnable two-endpoint model."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from . import __version__
from .engine import EventQueue, InvariantError, RngStream
from .link import OneWayLink, nominal_rtt_us
from .metrics import (CWND_SAMPLE_INTERVAL_US, MetricsCollector,
                      InsufficientSamplesError, ccdf, post_warmup_mcts,
                      write_ccdf_csv, write_growth_csv, write_mct_csv,
                      write_throughput_csv)
from .scheduling import (PATH_SCHEDULERS, STREAM_SCHEDULERS, SendStream,
                         paths_by_rtt)
from .traffic import TrafficManager
from .transport import (ACK_PACKET_BYTES, Frame, HEADER_BYTES,
                        MAX_PACKET_BYTES, PathSendState, ReceivedOffsets,
                        StreamReassembly)


class Node:
    """One connection endpoint: send streams, per-path congestion state, receiver.

    A node carries the messages loaded onto its streams and reports each
    event to the module that owns its meaning. The traffic manager decides
    streams and message outcomes. On both nodes it sets
    `on_message_complete(frame, now, path_id, by_duplicate)`, called once
    per message this node receives whole, `on_frame_lost(frame)`, at every
    copy declared lost, and `on_duplicated(frame)`, at every frame sent on
    several paths; the node reads `app_ack` only to label arrival events.
    Every data packet leaves through `_transmit` and every ack through
    `_send_ack`. A background packet travels as its bare offset, so every
    Frame a node transmits is a message frame. `metrics`, when set, takes
    this node's cwnd samples, on_cwnd(ps, now, decreased). `on_delivery`
    is called at every data packet received, on_delivery(now, size,
    priority, new_bytes); it may be None only on a node that receives no
    background. `trace`, when set, is called in `_transmit`, so once per
    data packet sent,
    trace(node, "send", now, path_id, number, frame, is_duplicate, is_rtx)
    (a background packet's Frame is built from its offset for this record),
    and at every blocked send decision (each one counted in blocked_count),
    trace(node, "blocked", now, stream_id, is_rtx). It only observes.
    """

    def __init__(self, name: str, engine: EventQueue,
                 path_states: list[PathSendState],
                 links: dict[int, OneWayLink],
                 stream_scheduler: str, path_scheduler: str,
                 metrics: MetricsCollector | None = None,
                 on_delivery: Callable[[int, int, bool, int], None] | None = None,
                 trace: Callable[..., None] | None = None):
        self.name = name
        self.engine = engine
        self.path_list = path_states
        self.path_states = {p.path_id: p for p in path_states}
        self.links = links
        self.stream_sched = STREAM_SCHEDULERS[stream_scheduler]()
        self.path_sched = PATH_SCHEDULERS[path_scheduler](path_states, links)
        self._wake_entry: tuple | None = None
        self.metrics = metrics
        self._on_delivery = on_delivery
        self._next_cwnd_sample = {p.path_id: 0 for p in path_states}
        self._peer_receive = None
        self._peer_receive_bg = None
        self._peer_ack = None
        self.streams: dict[int, SendStream] = {}
        self.urgent: set[SendStream] = set()  # kept by the streams
        self._bg_stream: SendStream | None = None
        self.reassembly: dict[int, StreamReassembly] = {}
        # a node has at most one background stream
        self._bg_seen = ReceivedOffsets()
        self.blocked_count = 0
        self.trace = trace
        self.on_message_complete: Callable[[Frame, int, int, bool], None] | None = None
        self.on_frame_lost: Callable[[Frame], None] | None = None
        self.on_duplicated: Callable[[Frame], None] | None = None

    def set_peer(self, peer: "Node") -> None:
        self._peer_receive = peer.receive_data
        self._peer_receive_bg = peer.receive_background
        self._peer_ack = peer.handle_ack_one

    # -- sender side ---------------------------------------------------

    def get_send_stream(self, stream_id: int, priority: bool,
                        background: bool = False) -> SendStream:
        """The stream of that id, created on first use; a node has at most
        one background stream."""
        stream = self.streams.get(stream_id)
        if stream is None:
            stream = SendStream(stream_id, priority, background,
                                urgent=self.urgent)
            self.streams[stream_id] = stream
            if background:
                self._bg_stream = stream
        return stream

    def try_send(self, now: int) -> None:
        """Send as long as the stream scheduler offers a unit some path
        admits: a stream's owed retransmission, else its next frame (for
        background, the full-size one at its next offset)."""
        urgent = self.urgent
        bg = self._bg_stream
        sched = self.path_sched
        while True:
            # the streams with something to send: the urgent ones and the
            # background stream, which always has data
            if not urgent:
                if bg is not None:
                    self._drain_background(bg, now)
                return
            candidates = list(urgent)
            if bg is not None and bg not in urgent:
                candidates.append(bg)
            if len(candidates) > 1:
                # order sorts on a total key: the set's iteration order
                # cannot reach the result
                candidates = self.stream_sched.order(candidates)
            for stream in candidates:
                owed = stream.next_rtx() if stream.rtx else None
                if owed is not None:
                    frame, rtx_path = owed
                elif stream is bg:
                    frame = bg.background_frame(bg.bg_offset)
                    rtx_path = None
                elif stream.pending:
                    frame = stream.peek_pending()
                    rtx_path = None
                else:
                    continue
                targets = sched.admit(stream, frame, now, rtx_path)
                is_rtx = rtx_path is not None
                if not targets:
                    self._blocked(now, stream, is_rtx)
                    continue
                if is_rtx:
                    stream.pop_rtx()
                    # background travels as its bare offset
                    payload = frame.offset if stream is bg else frame
                elif stream is bg:
                    payload = bg.next_background_offset()
                else:
                    payload = stream.pop_pending()
                if len(targets) > 1:
                    self.on_duplicated(frame)
                for i, ps in enumerate(targets):
                    self._transmit(ps, payload, now, is_rtx, i > 0)
                self.stream_sched.note_sent(stream)
                break
            else:
                return

    def _drain_background(self, stream: SendStream, now: int) -> None:
        """Tight loop for the common case: only the background stream can send.

        Each path, lowest RTT first, takes its whole background room in one
        run: paths do not interact, so the runs send what per-packet
        admission would. Then one blocked decision is recorded, whose wake
        comes only from a gate already shut when its path was asked.
        """
        sched = self.path_sched
        sched.gated_wake = None
        for ps in paths_by_rtt(self.path_list):
            k = sched.background_room(ps, now)
            if k > 0:
                self._send_background_run(stream, ps, k, now)
        self._blocked(now, stream, False)

    def _send_background_run(self, stream: SendStream, ps: PathSendState,
                             k: int, now: int) -> None:
        # counted down, not over a range: this runs on most acks, and a
        # range object per call costs about 2% of a line-rate run
        while k:
            self._transmit(ps, stream.next_background_offset(), now, False,
                           False)
            k -= 1

    def _blocked(self, now: int, stream: SendStream, is_rtx: bool) -> None:
        """A send decision found no path; retry when the gate that held one
        back drains."""
        self.blocked_count += 1
        if self.trace is not None:
            self.trace(self, "blocked", now, stream.stream_id, is_rtx)
        wake = self.path_sched.gated_wake
        if wake is not None:
            self._schedule_gate_wake(wake)

    def _schedule_gate_wake(self, ready_at: int) -> None:
        # exactly one live wake per node; replace only with an earlier one
        if self._wake_entry is not None:
            if self.engine.now < self._wake_entry[0] <= ready_at:
                return
            self.engine.cancel(self._wake_entry)
        self._wake_entry = self.engine.schedule(ready_at, self._on_gate_wake,
                                                "link_ready")

    def _on_gate_wake(self) -> None:
        self._wake_entry = None
        self.try_send(self.engine.now)

    def _transmit(self, ps: PathSendState, payload: Frame | int, now: int,
                  is_rtx: bool, is_dup: bool) -> None:
        """Send one data packet on path `ps`. `payload` is the message
        Frame it carries or, for a background packet, first sent or resent,
        the bare offset of that full-size packet, which travels to the
        ledger and the receiver as is."""
        path_id = ps.path_id
        if payload.__class__ is int:
            number, size, _, _, deadline = ps.register_sent(
                MAX_PACKET_BYTES, payload, now, is_rtx)
            receive = self._peer_receive_bg
            args = (number, path_id, payload, size)
            label = "packet_arrival"
        else:
            frame = payload
            number, size, _, _, deadline = ps.register_sent(
                frame.length + HEADER_BYTES, frame, now, is_rtx)
            if frame.priority:
                self.path_sched.ledger.consume(path_id, size, now)
            receive = self._peer_receive
            args = (number, path_id, frame, size, is_dup)
            label = "app_ack_arrival" if frame.app_ack else "packet_arrival"
        arrival = self.links[path_id].send(size, True, now)
        if arrival is not None:
            self.engine.schedule(arrival, receive, label, args=args)
        self._arm_alarm(ps, deadline)
        if self.trace is not None:
            if payload.__class__ is int:
                payload = self._bg_stream.background_frame(payload)
            self.trace(self, "send", now, path_id, number, payload,
                       is_dup, is_rtx)

    # -- acknowledgment and loss handling --------------------------------

    def handle_ack_one(self, path_id: int, number: int) -> None:
        """Hot path: process one acknowledged packet number."""
        now = self.engine.now
        ps = self.path_states[path_id]
        entry, gaps = ps.ack_packet(number, now)
        if entry is not None:
            payload = entry[2]
            if payload.__class__ is not int:
                self.streams[payload.stream_id].on_acked(payload)
            if self.metrics is not None \
                    and now >= self._next_cwnd_sample[path_id]:
                self._next_cwnd_sample[path_id] = now + CWND_SAMPLE_INTERVAL_US
                self.metrics.on_cwnd(ps, now, False)
        for num in gaps:
            self._declare_loss(ps, num, now)
        if gaps or self.urgent:
            return self.try_send(now)
        # else only background can send, on the acked path; not while it
        # waits on a serializer drain, which the pending wake retries
        bg = self._bg_stream
        if bg is None or self._wake_entry is not None:
            return
        sched = self.path_sched
        sched.gated_wake = None
        k = sched.background_room(ps, now)
        if k > 0:
            self._send_background_run(bg, ps, k, now)
        else:
            self._blocked(now, bg, False)

    def _declare_loss(self, ps: PathSendState, number: int, now: int) -> None:
        entry, decreased = ps.declare_lost(number, now)
        if self.metrics is not None:
            self.metrics.on_cwnd(ps, now, decreased)
        self.path_sched.ledger.drop_path(ps.path_id)
        frame = entry[2]
        if frame.__class__ is int:  # a background packet
            frame = self._bg_stream.background_frame(frame)
        self.on_frame_lost(frame)
        self.streams[frame.stream_id].on_lost(frame, now, ps.path_id)

    def _arm_alarm(self, ps: PathSendState, deadline: int) -> None:
        """Keep the path's one loss alarm at its earliest deadline."""
        if ps.alarm_entry is not None:
            if ps.alarm_entry[0] <= deadline:
                return
            self.engine.cancel(ps.alarm_entry)
        ps.alarm_entry = self.engine.schedule(
            deadline, self._on_alarm, "loss_alarm", args=(ps,))

    def _on_alarm(self, ps: PathSendState) -> None:
        now = self.engine.now
        ps.alarm_entry = None
        expired, nxt = ps.alarm_scan(now)
        for number in expired:
            self._declare_loss(ps, number, now)
        if nxt is not None:
            self._arm_alarm(ps, nxt)
        if expired:
            self.try_send(now)

    # -- receiver side ---------------------------------------------------

    def receive_background(self, number: int, path_id: int, offset: int,
                           size: int) -> None:
        """Every background frame lands here: dedup for goodput, count, ack."""
        now = self.engine.now
        new_bytes = self._bg_seen.add(offset, size - HEADER_BYTES)
        self._on_delivery(now, size, False, new_bytes)
        self._send_ack(path_id, number, now)

    def receive_data(self, number: int, path_id: int, frame: Frame, size: int,
                     is_duplicate: bool) -> None:
        """A message frame: reassemble, count, ack, report completion."""
        now = self.engine.now
        reasm = self.reassembly.get(frame.stream_id)
        if reasm is None:
            reasm = StreamReassembly(frame.stream_id)
            self.reassembly[frame.stream_id] = reasm
        new_bytes, completed = reasm.accept(frame)
        if self._on_delivery is not None:
            self._on_delivery(now, size, frame.priority, new_bytes)
        self._send_ack(path_id, number, now)
        if completed:
            self.on_message_complete(frame, now, path_id, is_duplicate)

    def _send_ack(self, path_id: int, number: int, now: int) -> None:
        """Acknowledge data packet `number` back over path `path_id`."""
        arrival = self.links[path_id].send(ACK_PACKET_BYTES, False, now)
        if arrival is not None:
            self.engine.schedule(
                arrival, self._peer_ack, "ack_arrival", args=(path_id, number))


class Simulation:
    """A fully wired single run: one server, one client, n paths, one seed."""

    def __init__(self, config, *, trace: Callable[..., None] | None = None,
                 check_interval: int = 1024):
        """`trace` observes both nodes' sends and blocked decisions (see
        Node); `check_interval` is the number of events between invariant
        checks. Neither changes what the run does."""
        config.validate()
        self.config = config
        self.engine = EventQueue(checker=self.verify_invariants,
                                 check_interval=check_interval)
        self.metrics = MetricsCollector(config.duration_us)
        fwd_links: dict[int, OneWayLink] = {}
        rev_links: dict[int, OneWayLink] = {}
        server_paths: list[PathSendState] = []
        client_paths: list[PathSendState] = []
        for idx, pcfg in enumerate(config.paths):
            rtt = nominal_rtt_us(pcfg)
            fwd_links[pcfg.path_id] = OneWayLink(pcfg, RngStream(config.seed, 2 * idx))
            rev_links[pcfg.path_id] = OneWayLink(pcfg,
                                                 RngStream(config.seed, 2 * idx + 1))
            server_paths.append(PathSendState(pcfg.path_id, rtt))
            client_paths.append(PathSendState(pcfg.path_id, rtt))
            self.metrics.register_path(pcfg.path_id, server_paths[-1].cwnd,
                                       rtt)
        self.server = Node("server", self.engine, server_paths, fwd_links,
                           config.stream_scheduler, config.path_scheduler,
                           metrics=self.metrics, trace=trace)
        self.client = Node("client", self.engine, client_paths, rev_links,
                           config.stream_scheduler, config.path_scheduler,
                           on_delivery=self.metrics.on_delivery, trace=trace)
        self.server.set_peer(self.client)
        self.client.set_peer(self.server)
        self.traffic = TrafficManager(config.sources, self.server, self.client,
                                      self.engine, config.duration_us,
                                      config.background)
        for node in (self.server, self.client):
            node.on_frame_lost = self.traffic.on_frame_lost
            node.on_duplicated = self.traffic.on_duplicated
        self.client.on_message_complete = self.traffic.on_message_complete
        self.server.on_message_complete = self.traffic.on_app_ack

    def verify_invariants(self) -> None:
        """Byte conservation, loss deadlines (alarm_scan's early stop needs
        min_alarm_delay), reservation bounds and urgent streams."""
        for node in (self.server, self.client):
            if node.urgent != {s for s in node.streams.values()
                               if s.rtx or s.pending}:
                raise InvariantError(f"{node.name}: urgent set out of date")
            for ps in node.path_list:
                total = 0
                for number, size, _, sent, deadline in ps.ledger.values():
                    total += size
                    if deadline - sent < ps.min_alarm_delay:
                        raise InvariantError(
                            f"{node.name} path {ps.path_id}: packet {number}'s "
                            f"loss deadline is under min_alarm_delay")
                if total != ps.in_flight:
                    raise InvariantError(
                        f"{node.name} path {ps.path_id}: in_flight "
                        f"{ps.in_flight} != ledger sum {total}")
                active = node.path_sched.ledger.active_bytes(ps.path_id)
                if active > ps.cwnd:
                    raise InvariantError(
                        f"{node.name} path {ps.path_id}: reserved {active} "
                        f"exceeds cwnd {ps.cwnd}")

    def run(self) -> "RunResult":
        self.traffic.start()
        # run_until ends with the checker, verify_invariants
        self.engine.run_until(self.config.duration_us)
        return RunResult(self)


class RunResult:
    """Finished run plus derived outputs and the reproducibility manifest."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.config = sim.config
        self.messages = sim.traffic.messages
        self.metrics = sim.metrics

    def priority_mcts(self) -> list[int]:
        return post_warmup_mcts(self.messages)

    def ccdf_curve(self) -> list[tuple[int, float]]:
        return ccdf(self.priority_mcts())

    def growth_records(self) -> tuple[list, list[str]]:
        records = []
        skipped = []
        for pcfg in self.config.paths:
            try:
                records.append(self.metrics.growth_record(
                    pcfg.path_id, self.config.path_scheduler))
            except InsufficientSamplesError as exc:
                skipped.append(f"path {pcfg.path_id}: {exc}")
        return records, skipped

    def manifest(self) -> dict:
        sim = self.sim
        paths = {}
        for pcfg in self.config.paths:
            ps = sim.server.path_states[pcfg.path_id]
            link = sim.server.links[pcfg.path_id]
            paths[str(pcfg.path_id)] = {
                "data_packets_sent": ps.sent_packets,
                "data_packets_dropped": link.data_dropped,
                "losses_declared": ps.lost_packets,
                "retransmissions": ps.retransmissions,
                "mean_srtt_us": ps.mean_srtt(),
                "final_cwnd": ps.cwnd,
            }
        sched = sim.server.path_sched
        diagnostics = {
            "refrain": sched.refrain_count,
            "blocked_decisions": sim.server.blocked_count,
            "reservations_dropped_events": sched.ledger.drop_events,
            "reservations_clamped": sched.ledger.clamped,
            "delivered_transport_bytes": sim.metrics.delivered_bytes,
            "goodput_unique_bytes": sim.metrics.goodput_unique_bytes,
        }
        completed = sum(1 for m in self.messages if m.completed_at is not None)
        return {
            "engine_version": __version__,
            "config": self.config.to_dict(),
            "events_dispatched": sim.engine.dispatched,
            "paths": paths,
            "messages": {
                "generated": len(self.messages),
                "completed": completed,
                "app_acked": sum(1 for m in self.messages
                                 if m.app_acked_at is not None),
            },
            "diagnostics": diagnostics,
        }

    def write_outputs(self, outdir: Path) -> list[str]:
        """Write the four CSVs and the manifest; returns diagnostics, if any."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_mct_csv(outdir / "mct.csv", self.messages)
        write_ccdf_csv(outdir / "ccdf.csv", self.ccdf_curve())
        write_throughput_csv(outdir / "throughput.csv", self.metrics.throughput())
        records, skipped = self.growth_records()
        write_growth_csv(outdir / "cwnd_growth.csv", records)
        with (outdir / "manifest.json").open("w") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [f"cwnd_growth omitted: {s}" for s in skipped]
