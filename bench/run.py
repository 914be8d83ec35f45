#!/usr/bin/env python3
"""cwrsim benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload line_rate --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py; metric names and units come from
BENCHMARK.json at the repository root. An operation is one workload pass.

--trace 0 gives the end-to-end metrics, with tracing off. Set-up time is
measured in fresh interpreters (setup_probe.py). A first operation warms up
and gives the peak memory of one pass. Then timed operations run back to
back, cycling over the run's fixed seed set --seed * SEED_STRIDE + k for
k < workloads.SEEDS_PER_RUN, until the next one would end past --seconds;
at least one full cycle runs. wall_s is the mean, over that seed set, of
each seed's median seconds per operation, so every run weighs the same
inputs equally however many operations fit in it. Gated times are scaled to
reference host speed with a kernel sampled during each timed interval
(hostspeed.py); the raw host seconds are printed beside them as raw_wall_s
and raw_setup_s.

--trace 1 gives the per-layer metrics: untraced and traced (layertrace.py)
operations alternate for --seconds, at least two traced ones; all use the
seed --seed * SEED_STRIDE.

Every operation's outputs are checked: the workload's own check, no
spurious loss on any path, and output files byte-identical to an earlier
operation with the same seed (traced ones to untraced ones). Per-layer
counts must repeat exactly across traced operations. Report lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
# host-speed kernel samples per second of a timed operation: 5
SAMPLE_INTERVAL_S = 0.2
# a run's timed operations cycle over seeds --seed * SEED_STRIDE + k,
# k < workloads.SEEDS_PER_RUN
SEED_STRIDE = 1000
MIN_TRACED_OPS = 2
LABELS = ("packet_arrival", "ack_arrival", "app_ack_arrival", "loss_alarm",
          "link_ready", "source_tick")

# Which end-to-end metric, on which workload, each per-layer metric should
# move; written down before any optimisation is measured against it. The
# first matching prefix applies.
MOVES = {
    "engine.": "wall_s on line_rate (little on priority_only)",
    "simulation.self_s.packet_arrival": "wall_s on line_rate",
    "simulation.self_s.ack_arrival": "wall_s on line_rate",
    "simulation.self_s.link_ready": "wall_s on line_rate",
    "simulation.blocked": "wall_s on line_rate",
    "simulation.self_s.": "wall_s on priority_only (try_send)",
    "simulation.": "wall_s on line_rate and priority_only",
    "link.": "wall_s on line_rate",
    "transport.": "wall_s on line_rate and priority_only",
    "scheduling.": "wall_s on priority_only and shipped_scenarios",
    "traffic.": "wall_s on priority_only",
    "metrics.cwnd_samples": "peak_rss_mb on line_rate",
    "metrics.": "wall_s on shipped_scenarios",
    "scenario.": "setup_s and wall_s on shipped_scenarios",
    "cli.": "setup_s and wall_s on shipped_scenarios",
    "gc_s": "wall_s on line_rate",
    "trace.overhead": "nothing: the cost of tracing itself",
}


def moves(metric: str) -> str:
    return next(text for prefix, text in MOVES.items()
                if metric.startswith(prefix))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment ---------------------------------------------------------------

def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "loadavg_start": loadavg()}


# -- operations ----------------------------------------------------------------

def output_digest(outdir: Path) -> str:
    """SHA-256 over the relative names and contents of every output file."""
    digest = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(outdir).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class Operation:
    """One timed, checked workload pass.

    Given a host-speed kernel, the pass is sampled with it: `wall_s`
    excludes the kernel's time and `scale` converts it to reference speed.
    """

    def __init__(self, workload: str, seed: int, outdir: Path,
                 kernel: hostspeed.Kernel | None = None) -> None:
        import workloads

        self.error: str | None = None
        sampler = (hostspeed.SpeedSampler(kernel, SAMPLE_INTERVAL_S)
                   if kernel else contextlib.nullcontext())
        started = time.perf_counter()
        try:
            with sampler:
                workloads.OPERATIONS[workload](seed, outdir)
        except workloads.CheckFailed as exc:
            self.error = str(exc)
        except Exception:  # the benchmark keeps going and counts it failed
            self.error = traceback.format_exc()
        self.wall_s = time.perf_counter() - started
        if kernel:
            self.wall_s -= sampler.interrupted_s
            self.scale = sampler.scale()
        if self.error is None:
            try:
                workloads.check_spurious_losses(outdir)
            except workloads.CheckFailed as exc:
                self.error = str(exc)
        self.events = sum(
            json.loads(m.read_text())["events_dispatched"]
            for m in outdir.rglob("manifest.json")) if self.error is None else 0
        self.digest = output_digest(outdir) if outdir.exists() else None
        shutil.rmtree(outdir, ignore_errors=True)

    def expect_digest(self, reference: str | None) -> None:
        if self.error is None and self.digest != reference:
            self.error = f"outputs differ: sha256 {self.digest} != {reference}"


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up seconds from fresh interpreters; a first,
    untimed probe warms the bytecode and file caches."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        seconds, scale = (float(x) for x in out.stdout.split()[-2:])
        if i:
            raw.append(seconds)
            scaled.append(seconds * scale)
    return raw, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- per-layer metrics from one traced operation ----------------------------------

def traced_counts(tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced operation."""
    runs = tracer.runs
    sims = [r.sim for r in runs]
    nodes = [node for sim in sims for node in (sim.server, sim.client)]
    paths = [(node, ps) for node in nodes for ps in node.path_list]
    ledgers = [sim.server.path_sched.ledger for sim in sims
               if sim.server.path_sched.reserving]
    events = sum(sim.engine.dispatched for sim in sims)
    scheduled = tracer.calls("engine.EventQueue.schedule")
    admits, admitted = tracer.entries(".admit")
    messages = [m for r in runs for m in r.messages]
    m = {
        "engine.events": events,
        "engine.scheduled": scheduled,
        "engine.live_ratio": events / scheduled if scheduled else 0.0,
        "engine.self_s": tracer.layer_self_s("engine"),
        "simulation.self_s": tracer.layer_self_s("simulation"),
        "simulation.blocked": sum(sim.server.blocked_count for sim in sims),
        "link.sends": tracer.calls("link.OneWayLink.send"),
        "link.data_dropped": sum(link.data_dropped for node in nodes
                                 for link in node.links.values()),
        "link.self_s": tracer.layer_self_s("link"),
        "transport.sends": sum(ps.sent_packets for _, ps in paths),
        "transport.acks": tracer.calls("transport.PathSendState.ack_packet"),
        "transport.losses_declared": sum(ps.lost_packets for _, ps in paths),
        # declared minus dropped, per path; a drop still undetected at the
        # horizon makes the difference negative, not the loss spurious
        "transport.spurious_losses": sum(
            max(0, ps.lost_packets - node.links[ps.path_id].data_dropped)
            for node, ps in paths),
        "transport.retransmissions": sum(ps.retransmissions
                                         for _, ps in paths),
        "transport.self_s": tracer.layer_self_s("transport"),
        "scheduling.admit_calls": admits,
        "scheduling.admit_ok_ratio": admitted / admits if admits else 0.0,
        "scheduling.order_calls": tracer.calls(".order"),
        "scheduling.at_risk_calls": tracer.calls(".at_risk"),
        "scheduling.reservations_dropped": sum(l.drop_events for l in ledgers),
        "scheduling.reservations_clamped": sum(l.clamped for l in ledgers),
        "scheduling.self_s": tracer.layer_self_s("scheduling"),
        "traffic.messages": len(messages),
        "traffic.completed": sum(1 for msg in messages
                                 if msg.completed_at is not None),
        "traffic.self_s": tracer.layer_self_s("traffic"),
        "metrics.self_s": tracer.layer_self_s("metrics"),
        "metrics.write_s": tracer.inclusive_s(
            "simulation.RunResult.write_outputs"),
        "metrics.cwnd_samples": sum(
            len(samples) for sim in sims
            for samples in sim.metrics.cwnd_samples.values()),
        "scenario.parse_s": tracer.inclusive_s("scenario.parse_scenario"),
        "cli.self_s": tracer.layer_self_s("cli"),
    }
    for label in LABELS:
        m[f"engine.events.{label}"] = tracer.calls(f"dispatch.{label}")
        m[f"simulation.self_s.{label}"] = tracer.layer_self_s("simulation",
                                                              label)
    return m


def is_exact(name: str, unit: str) -> bool:
    """Counts, and ratios of counts, repeat exactly across operations."""
    return unit == "count" or name.endswith("_ratio")


# -- the two modes -------------------------------------------------------------------

def run_untraced(args, workdir: Path) -> tuple[list[Operation], dict, list[str]]:
    import workloads

    seeds = [args.seed * SEED_STRIDE + k
             for k in range(workloads.SEEDS_PER_RUN[args.workload])]
    setup_raw, setup = measure_setup(args.workload, seeds[0])
    # the first operation warms up and shows the memory of one workload
    # pass; later ones overlap the previous one's uncollected cycles
    ops = [Operation(args.workload, seeds[0], workdir / "op0")]
    rss_mb = peak_rss_mb()
    digests = {seeds[0]: ops[0].digest}
    raw: dict[int, list[float]] = {seed: [] for seed in seeds}
    scaled: dict[int, list[float]] = {seed: [] for seed in seeds}
    kernel = hostspeed.Kernel()
    timed = 0
    started = time.perf_counter()
    # stop before an operation that would end past the deadline
    while timed < len(seeds) or (time.perf_counter() - started) * (
            timed + 1) / timed <= args.seconds:
        seed = seeds[timed % len(seeds)]
        op = Operation(args.workload, seed, workdir / f"op{len(ops)}", kernel)
        # a repeated seed must repeat its outputs
        op.expect_digest(digests.setdefault(seed, op.digest))
        ops.append(op)
        raw[seed].append(op.wall_s)
        scaled[seed].append(op.wall_s * op.scale)
        timed += 1

    def per_seed_mean(times: dict[int, list[float]]) -> float:
        return statistics.fmean(statistics.median(times[s]) for s in seeds)

    metrics = {
        "wall_s": per_seed_mean(scaled),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup),
    }
    events = statistics.median(op.events for op in ops[1:])
    rate = statistics.median(op.events / op.wall_s for op in ops[1:])
    notes = [
        f"seeds {seeds[0]}..{seeds[-1]}, {timed} timed operations",
        f"raw_wall_s {per_seed_mean(raw)!r} s",
        f"raw_setup_s {statistics.median(setup_raw)!r} s (median of "
        f"{len(setup_raw)} fresh interpreters)",
        f"events_per_operation {events!r} (median)",
        f"events_per_s {rate!r} (median)",
    ]
    return ops, metrics, notes


def run_traced(args, workdir: Path, units: dict[str, str]
               ) -> tuple[list[Operation], dict, list[str], list[str]]:
    from layertrace import GcTimer, Tracer

    seed = args.seed * SEED_STRIDE
    plain: list[Operation] = []
    traced: list[Operation] = []
    per_op: list[dict] = []
    gc_s: list[float] = []
    problems: list[str] = []
    started = time.perf_counter()
    while (len(traced) < MIN_TRACED_OPS
           or time.perf_counter() - started < args.seconds):
        with GcTimer() as gc_timer:
            op = Operation(args.workload, seed, workdir / f"plain{len(plain)}")
        op.expect_digest(plain[0].digest if plain else op.digest)
        plain.append(op)
        gc_s.append(gc_timer.seconds)
        with Tracer() as tracer:
            op = Operation(args.workload, seed,
                           workdir / f"traced{len(traced)}")
        op.expect_digest(plain[0].digest)
        traced.append(op)
        per_op.append(traced_counts(tracer))

    metrics = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if not is_exact(name, units.get(name, "")):
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            problems.append(f"{name} differs across traced runs: {values}")
        metrics[name] = values[0]
    untraced_wall = statistics.median(op.wall_s for op in plain)
    metrics["engine.events_per_s"] = statistics.median(
        op.events / op.wall_s for op in plain)
    metrics["gc_s"] = statistics.median(gc_s)
    metrics["trace.overhead"] = (statistics.median(op.wall_s for op in traced)
                                 / untraced_wall)
    notes = [f"operations untraced {len(plain)} traced {len(traced)}; "
             f"untraced wall_s {untraced_wall!r} s"]
    return plain + traced, metrics, notes, problems


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cwrsim" / "__init__.py").is_file():
        print(f"error: no cwrsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.OPERATIONS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.OPERATIONS)}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = environment()
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            ops, metrics, notes, problems = run_traced(args, workdir, units)
        else:
            ops, metrics, notes = run_untraced(args, workdir)
            problems = []
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up probe failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    env["loadavg_end"] = loadavg()

    failed = sum(1 for op in ops if op.error is not None)
    for op in ops:
        if op.error is not None:
            print(f"failed operation: {op.error}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"output_sha256 {ops[0].digest}")
    print(f"failed_ops {failed / len(ops)!r} share ({failed} of {len(ops)})")
    for note in notes:
        print(note)
    for name, unit in units.items():
        note = f"  [moves {moves(name)}]" if args.trace else ""
        print(f"{name} {metrics[name]!r} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
