"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a single pass/fail line; run with -s (or -rA) to see them.
"""
from __future__ import annotations

import importlib.util
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import force_data_losses
from cwrsim.link import PathConfig
from cwrsim.metrics import ccdf, max_ccdf_gap, post_warmup_mcts
from cwrsim.scenario import ScenarioConfig
from cwrsim.simulation import Simulation
from cwrsim.traffic import DataSourceConfig

BASE_SEED = 42
LOSS = 0.0005

TABLE_SOURCES = ((1, 100_000, 10_000), (2, 70_000, 7_000), (3, 135_000, 5_000))

# bench/hostspeed.py, loaded by path: bench/ is not a package
_spec = importlib.util.spec_from_file_location(
    "hostspeed", Path(__file__).resolve().parent.parent / "bench" / "hostspeed.py")
hostspeed = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hostspeed)
# kernel samples per second of a timed run, as the benchmark takes them
SAMPLE_INTERVAL_S = 0.2


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def symmetric_paths(loss: float = 0.0, owd: int = 25_000):
    return [PathConfig(1, owd, loss_rate=loss), PathConfig(2, owd, loss_rate=loss)]


def scenario(paths, sources, scheduler, seed, duration_us, background=True):
    return ScenarioConfig(paths=paths,
                          sources=[DataSourceConfig(*s) for s in sources],
                          duration_us=duration_us, seed=seed,
                          path_scheduler=scheduler, background=background)


def test_criterion_1_immediate_send_latency():
    cfg = scenario(symmetric_paths(), [(1, 100_000, 10_000)], "cwr",
                   BASE_SEED, 30_000_000)
    # the budget is in seconds at the benchmark's reference host speed:
    # raw seconds without the kernel's samples, scaled by the kernel's pace
    sampler = hostspeed.SpeedSampler(hostspeed.Kernel(), SAMPLE_INTERVAL_S)
    started = time.perf_counter()
    with sampler:
        result = Simulation(cfg).run()
    raw = time.perf_counter() - started - sampler.interrupted_s
    scaled = raw * sampler.scale()
    mcts = post_warmup_mcts(result.messages)
    in_band = [m for m in mcts if 25_000 <= m <= 27_000]
    ok = len(in_band) == len(mcts) and len(mcts) > 0 and scaled < 5.0
    report(1, ok,
           f"{len(in_band)}/{len(mcts)} priority completions in [25.0, 27.0] ms "
           f"(min {min(mcts) / 1000:.3f}, max {max(mcts) / 1000:.3f}), "
           f"30 s horizon simulated in {scaled:.2f} s at reference speed "
           f"(< 5 s; {raw:.2f} s raw)")


def test_criterion_2_early_retransmit_floor():
    # one-packet message, no background, first transmission on path 1 dropped:
    # only the loss alarm can detect it, recovery takes 1.625 RTT + overheads
    cfg = scenario(symmetric_paths(), [(1, 200_000, 1_000)], "cwr", BASE_SEED,
                   2_000_000, background=False)
    cfg.sources[0].start_offset_us = 0
    sim = Simulation(cfg)
    force_data_losses(sim, 1, (0,))
    result = sim.run()
    first = result.messages[0]
    ok = (first.loss_involved and first.completed_at is not None
          and 81_250 <= first.mct <= 85_000)
    report(2, ok,
           f"forced-loss message completed in {first.mct / 1000:.3f} ms, "
           f"within [81.25, 85.0] ms")


def test_criterion_3_ideal_window_growth():
    cfg = scenario(symmetric_paths(), [], "lowrtt", BASE_SEED, 12_000_000)
    result = Simulation(cfg).run()
    records, skipped = result.growth_records()
    assert not skipped, skipped
    ok = all(1_215 <= r.mean_growth <= 1_350 for r in records)
    detail = ", ".join(f"path {r.path_id}: {r.mean_growth:.0f} B/RTT"
                       for r in records)
    report(3, ok, f"loss-free full-load CA growth in [1215, 1350]: {detail}")


GROWTH_CELLS = [(50_000, 10_000), (50_000, 25_000), (50_000, 50_000),
                (100_000, 10_000), (100_000, 25_000), (100_000, 50_000)]


def _mean_growth(inter_arrival, size, scheduler, reps=10, horizon=6_000_000):
    sums = {1: 0.0, 2: 0.0}
    for rep in range(reps):
        cfg = scenario(symmetric_paths(LOSS), [(1, inter_arrival, size)],
                       scheduler, BASE_SEED + rep, horizon)
        result = Simulation(cfg).run()
        records, skipped = result.growth_records()
        assert not skipped, (scheduler, inter_arrival, size, skipped)
        for r in records:
            sums[r.path_id] += r.mean_growth
    return {p: sums[p] / reps for p in sums}


def test_criterion_4_growth_ordering_and_monotonicity():
    table = {}
    for inter_arrival, size in GROWTH_CELLS:
        for scheduler in ("lowrtt", "cwr", "cwr_red"):
            table[(inter_arrival, size, scheduler)] = _mean_growth(
                inter_arrival, size, scheduler)
    ordering_ok = True
    for inter_arrival, size in GROWTH_CELLS:
        for path_id in (1, 2):
            low = table[(inter_arrival, size, "lowrtt")][path_id]
            mid = table[(inter_arrival, size, "cwr")][path_id]
            red = table[(inter_arrival, size, "cwr_red")][path_id]
            if not low >= mid >= red:
                ordering_ok = False
    monotone_ok = True
    for path_id in (1, 2):
        by_size = [table[(50_000, size, "cwr_red")][path_id]
                   for size in (10_000, 25_000, 50_000)]
        if not (by_size[0] >= by_size[1] >= by_size[2]):
            monotone_ok = False
    sample = {s: round(table[(50_000, 50_000, s)][1]) for s in
              ("lowrtt", "cwr", "cwr_red")}
    report(4, ordering_ok and monotone_ok,
           f"lowrtt >= cwr >= cwr_red on both paths over 6 cells x 10 reps; "
           f"redundant deficit monotone in message size "
           f"(50 ms/50 kB path-1 means: {sample})")


def _tail_fraction(scheduler, reps=10, horizon=20_000_000):
    pooled = []
    for rep in range(reps):
        cfg = scenario(symmetric_paths(LOSS), TABLE_SOURCES, scheduler,
                       BASE_SEED + rep, horizon)
        result = Simulation(cfg).run()
        pooled.extend(post_warmup_mcts(result.messages))
    return sum(1 for m in pooled if m > 50_000) / len(pooled), len(pooled)


def test_criterion_5_redundancy_tail_benefit():
    frac_cwr, n_cwr = _tail_fraction("cwr")
    frac_red, n_red = _tail_fraction("cwr_red")
    ok = frac_red < frac_cwr
    report(5, ok,
           f"fraction of priority completions above 1 RTT: "
           f"cwr {frac_cwr:.5f} (n={n_cwr}) vs cwr_red {frac_red:.5f} "
           f"(n={n_red}), strictly smaller with redundancy")


def test_criterion_6_asymmetric_rtt_equivalence():
    # RTT 20 ms / 100 ms; losses exercise the retransmit-vs-duplicate race
    paths = lambda: [PathConfig(1, 10_000, loss_rate=LOSS),
                     PathConfig(2, 50_000, loss_rate=LOSS)]
    pooled = {}
    dup2_completions = 0
    loss_hit = 0
    for scheduler in ("cwr", "cwr_red"):
        samples = []
        for rep in range(5):
            cfg = scenario(paths(), TABLE_SOURCES, scheduler, BASE_SEED + rep,
                           20_000_000, background=False)
            result = Simulation(cfg).run()
            samples.extend(post_warmup_mcts(result.messages))
            loss_hit += sum(1 for m in result.messages if m.loss_involved)
            if scheduler == "cwr_red":
                dup2_completions += sum(
                    1 for m in result.messages
                    if m.completed_by_duplicate and m.completing_path == 2)
        pooled[scheduler] = ccdf(samples)
    gap = max_ccdf_gap(pooled["cwr"], pooled["cwr_red"])
    ok = dup2_completions == 0 and gap < 0.02
    report(6, ok,
           f"path-2-duplicate first completions: {dup2_completions} (need 0, "
           f"{loss_hit} loss-involved messages raced), pooled ccdf gap "
           f"{100 * gap:.2f} pp (< 2 pp)")


def test_criterion_7_priority_share_doubles():
    totals = {}
    for scheduler in ("cwr", "cwr_red"):
        cfg = scenario(symmetric_paths(LOSS), [(1, 100_000, 10_000)],
                       scheduler, BASE_SEED, 20_000_000)
        result = Simulation(cfg).run()
        totals[scheduler] = sum(b.priority_bytes
                                for b in result.metrics.throughput())
    ratio = totals["cwr_red"] / totals["cwr"]
    ok = 1.8 <= ratio <= 2.2
    report(7, ok,
           f"priority transport bytes cwr_red/cwr = {ratio:.3f}, "
           f"within 2x +- 10%")


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        cfg = scenario(symmetric_paths(LOSS), TABLE_SOURCES, "cwr_red",
                       BASE_SEED, 5_000_000)
        result = Simulation(cfg).run()
        outdir = tmp_path / tag
        result.write_outputs(outdir)
        outputs.append({name.name: name.read_bytes()
                        for name in sorted(outdir.iterdir())})
    ok = outputs[0] == outputs[1] and len(outputs[0]) == 5
    report(8, ok, "identical (config, seed) produced byte-identical "
                  f"{sorted(outputs[0])}")


def test_criterion_9_invariant_suites_standalone():
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(Path(__file__).with_name("test_properties.py"))],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    ok = proc.returncode == 0 and elapsed < 60.0
    report(9, ok,
           f"property suite ran standalone in {elapsed:.1f} s (< 60 s): "
           f"{proc.stdout.strip().splitlines()[-1] if proc.stdout else ''}")
