#!/usr/bin/env python3
"""Compare this working tree's run outputs with a git revision's, config by config.

    python tools/identity_sweep.py [REF]      (REF defaults to HEAD)

REF's src/, tests/ and scenarios/ are exported with `git archive` into a
temporary directory. Both trees then run the same 118 configurations:

- tests/test_properties.py's random_config(0..15) under each path scheduler
  and each stream scheduler, at 4 s (96 runs);
- the three shipped scenarios under each path scheduler, at 10 s (9 runs);
- tests/test_output_identity.py's priority_only at 30 s and line_rate at 5 s;
- mixed_config(), defined here, under each path scheduler and each stream
  scheduler, at 2 s (6 runs), its paths with background alone (1 run), and
  mixed_config() at 2.05 s, whose last 100 ms throughput bin is cut short
  (1 run);
- stale_rtx_config(), early_deadline_config() and late_ack_config(),
  defined here, at 2 s (1 run each).

random_config draws priority sources only; mixed_config's priority and
non-priority messages overlap on lossy paths that also lose acks, so
streams of both classes are reused and completion responses are lost. The
last three configs each reach a model branch that no other config does.

Each run records the SHA-256 of its `write_outputs` files (name and bytes, in
name order) together with the warnings `write_outputs` returns, and the
SHA-256 of the repr of every trace-hook record, with the node given by its
name. Configurations whose digests differ are printed; the exit
status is 1 if any differ, else 0. Each tree runs in its own interpreter.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TREE_DIRS = ("src", "tests", "scenarios")
PATH_SCHEDULERS = ("lowrtt", "cwr", "cwr_red")
STREAM_SCHEDULERS = ("pfifo", "rr")
SHIPPED = ("asymmetric_rtt", "one_source_cwr", "three_sources")


def mixed_config(sources=True):
    """Background beside overlapping priority and non-priority messages on
    two lossy paths that also lose acks; imports the tree on sys.path."""
    from cwrsim.link import PathConfig
    from cwrsim.scenario import ScenarioConfig
    from cwrsim.traffic import DataSourceConfig

    paths = [PathConfig(1, 10_000, loss_rate=0.004, ack_loss_enabled=True),
             PathConfig(2, 30_000, loss_rate=0.004, ack_loss_enabled=True)]
    return ScenarioConfig(
        paths=paths, duration_us=2_000_000, seed=5, background=True,
        sources=[
            DataSourceConfig(1, 15_000, 3_000),
            DataSourceConfig(2, 12_000, 5_000, priority=False,
                             start_offset_us=0),
            DataSourceConfig(3, 40_000, 1_000, priority=False),
            DataSourceConfig(4, 25_000, 9_000),
        ] if sources else [])


def stale_rtx_config():
    """Four sources of both classes on two lossy 20 Mbit/s paths under
    cwr_red: a stream whose queued retransmissions have all gone stale, with
    nothing pending, meets Node.try_send's stale-retransmission `continue`."""
    from cwrsim.link import PathConfig
    from cwrsim.scenario import ScenarioConfig
    from cwrsim.traffic import DataSourceConfig

    paths = [PathConfig(1, 50_000, rate_bps=20_000_000, loss_rate=0.02),
             PathConfig(2, 50_000, rate_bps=20_000_000, loss_rate=0.004)]
    sizes = ((10_000, False), (10_000, True), (5_000, True), (3_000, True))
    return ScenarioConfig(
        paths=paths, duration_us=2_000_000, seed=2, background=False,
        path_scheduler="cwr_red", stream_scheduler="pfifo",
        sources=[DataSourceConfig(i + 1, 70_000, size, priority=priority,
                                  start_offset_us=100_000)
                 for i, (size, priority) in enumerate(sizes)])


def early_deadline_config():
    """Four priority sources on one lossy 20 Mbit/s path: acks of a 15 kB
    burst raise srtt, and one later ack with a lower sample lowers it
    right after a packet is sent and right before a lost packet's loss
    alarm. The retransmission's deadline then comes before that packet's,
    which meets Node._arm_alarm's cancel."""
    from cwrsim.link import PathConfig
    from cwrsim.scenario import ScenarioConfig
    from cwrsim.traffic import DataSourceConfig

    sources = ((15_000, 100_000), (1_000, 160_000), (1_000, 174_900),
               (1_000, 275_200))
    return ScenarioConfig(
        paths=[PathConfig(1, 50_000, rate_bps=20_000_000, loss_rate=0.02)],
        duration_us=2_000_000, seed=3, background=False,
        path_scheduler="lowrtt", stream_scheduler="pfifo",
        sources=[DataSourceConfig(i + 1, 250_000, size, start_offset_us=start)
                 for i, (size, start) in enumerate(sources)])


def late_ack_config():
    """Three priority sources on two lossy 20 Mbit/s paths, the first of
    which also loses acks, under cwr_red: the client's path 1 receives acks
    for packets it has already declared lost, which meets
    PathSendState.ack_packet's return for a settled number."""
    from cwrsim.link import PathConfig
    from cwrsim.scenario import ScenarioConfig
    from cwrsim.traffic import DataSourceConfig

    paths = [PathConfig(1, 50_000, rate_bps=20_000_000, loss_rate=0.004,
                        ack_loss_enabled=True),
             PathConfig(2, 50_000, rate_bps=20_000_000, loss_rate=0.004)]
    return ScenarioConfig(
        paths=paths, duration_us=2_000_000, seed=1913, background=False,
        path_scheduler="cwr_red", stream_scheduler="pfifo",
        sources=[DataSourceConfig(i + 1, 20_000, size,
                                  start_offset_us=100_000)
                 for i, size in enumerate((3_000, 5_000, 10_000))])


def sweep_configs():
    """(name, config) pairs; imports the tree on sys.path."""
    from test_output_identity import line_rate, priority_only, shipped
    from test_properties import random_config

    def with_fields(cfg, **fields):
        for name, value in fields.items():
            setattr(cfg, name, value)
        return cfg

    for i in range(16):
        for ps in PATH_SCHEDULERS:
            for ss in STREAM_SCHEDULERS:
                yield (f"random_config({i}) {ps} {ss}",
                       with_fields(random_config(i), duration_us=4_000_000,
                                   path_scheduler=ps, stream_scheduler=ss))
    for name in SHIPPED:
        for ps in PATH_SCHEDULERS:
            yield (f"{name} {ps}",
                   shipped(name, 10_000_000, path_scheduler=ps)(1))
    yield "priority_only", with_fields(priority_only(1), duration_us=30_000_000)
    yield "line_rate", with_fields(line_rate(1), duration_us=5_000_000)
    for ps in PATH_SCHEDULERS:
        for ss in STREAM_SCHEDULERS:
            yield (f"mixed_config() {ps} {ss}",
                   with_fields(mixed_config(), path_scheduler=ps,
                               stream_scheduler=ss))
    yield "mixed_config(sources=False)", mixed_config(sources=False)
    yield ("mixed_config() at 2.05 s",
           with_fields(mixed_config(), duration_us=2_050_000))
    yield "stale_rtx_config()", stale_rtx_config()
    yield "early_deadline_config()", early_deadline_config()
    yield "late_ack_config()", late_ack_config()


def outputs_digest(outdir: Path, warnings: list[str]) -> str:
    h = hashlib.sha256()
    for f in sorted(outdir.iterdir()):
        h.update(f.name.encode() + b"\0")
        h.update(f.read_bytes())
    # a warning's text is output too: an omitted cwnd_growth row says why
    for w in warnings:
        h.update(b"\0" + w.encode())
    return h.hexdigest()


def trace_hook(trace):
    """A Simulation trace hook that feeds `trace` the repr of every record,
    with the node given by its name."""
    def hook(node, *rec):
        trace.update(repr((node.name,) + rec).encode() + b"\n")
    return hook


def run_tree() -> None:
    """Worker: run every config of the tree on sys.path, one JSON line each."""
    from cwrsim.simulation import Simulation

    with tempfile.TemporaryDirectory() as tmp:
        for n, (name, cfg) in enumerate(sweep_configs()):
            trace = hashlib.sha256()
            outdir = Path(tmp) / str(n)
            warnings = Simulation(cfg, trace=trace_hook(trace)).run() \
                .write_outputs(outdir)
            print(json.dumps([name, outputs_digest(outdir, warnings),
                              trace.hexdigest()]), flush=True)


def start_tree(root: Path) -> subprocess.Popen:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           str(root / "tests")]))
    return subprocess.Popen([sys.executable, __file__, "--run-tree"],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)


def collect(proc: subprocess.Popen, label: str) -> dict[str, tuple[str, str]]:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"error: the {label} tree's runs exited {proc.returncode}")
    rows = (json.loads(line) for line in out.splitlines())
    return {name: (outputs, trace) for name, outputs, trace in rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", default="HEAD",
                        help="git revision to compare against (default HEAD)")
    parser.add_argument("--run-tree", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_tree:
        run_tree()
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        ref_root = Path(tmp)
        archive = subprocess.run(["git", "archive", args.ref, *TREE_DIRS],
                                 cwd=REPO, capture_output=True)
        if archive.returncode != 0:
            sys.exit(f"error: git archive {args.ref}: "
                     f"{archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", str(ref_root)],
                       input=archive.stdout, check=True)
        procs = {"ref": start_tree(ref_root), "work": start_tree(REPO)}
        ref, work = (collect(procs[k], k) for k in ("ref", "work"))

    differing = []
    for name in sorted(ref.keys() | work.keys()):
        a, b = ref.get(name), work.get(name)
        if a == b:
            continue
        what = "missing" if a is None or b is None else " and ".join(
            kind for kind, x, y in zip(("outputs", "trace"), a, b) if x != y)
        differing.append(name)
        print(f"differs ({what}): {name}")
    print(f"{len(differing)} of {len(ref.keys() | work.keys())} configs differ "
          f"from {args.ref}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
