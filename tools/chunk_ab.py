#!/usr/bin/env python3
"""A/B a git revision's simulator against this working tree, one chunk at a time.

    python tools/chunk_ab.py REF [--workload W] [--seconds N] [--seed N ...]
                                 [--aa]

REF's src/ is exported with `git archive` into a temporary directory, and
both trees are imported into this one process, REF's package as `cwrsim_ref`
and the working tree's as `cwrsim_work`. Each builds the same configuration:
W is `line_rate` or `priority_only` (bench/workloads.py's, default
`line_rate`) or the stem of a file in scenarios/; `shipped_scenarios`
runs every scenarios/*.scn stem in turn, as the benchmark workload of that
name does, and pools their chunks; `all` runs the three benchmark
workloads, `line_rate`, `priority_only` and `shipped_scenarios`, one after
the other and pools each on its own. --seconds (default: the configuration's
own horizon) sets its horizon and --seed (default 1) its seed; given several
seeds, the comparison runs once per seed and scenario. The two runs then
advance in alternating chunks of 0.2 s of simulated time, the first tree to
run a chunk alternating too, and the CPU time of every chunk is taken per
tree. Both trees must dispatch the same number of events in every chunk
and end with equal manifests, or the tool exits 1; with
`shipped_scenarios`, every scenario is held to this.

Printed per seed and scenario: the per-chunk ratio REF CPU / work CPU
(above 1 means the working tree is faster), its median and quartiles, the
number of chunks the working tree won, and each tree's dispatched events
per CPU-second over the counted chunks; after several runs of a workload,
the same over every counted chunk of all of them. With --aa, each run also
pairs the working tree with a second import of itself (as `cwrsim_aa`, in
the REF role), an A/A from the same session that shows how far the ratio
strays with no change at all. The chunks of the first 2 s run but are not
counted: in them the windows are still opening and the interpreter's caches
filling.
Because the two trees share one process, host noise lands on both sides of
a chunk alike, so the spread is much narrower than between fresh processes;
short chunks give many of them, so the median is steady even where single
chunks spread by several percent. Two copies of one tree read 1.003 and
1.008 on 30 s of `line_rate`, and 1.003 / 0.998 / 0.995 (pooled 1.000,
quartiles 0.968-1.032) on the full 120 s of `priority_only`, seeds 11 /
12 / 13.
"""
from __future__ import annotations

import argparse
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
WORKLOADS = REPO / "bench" / "workloads.py"
BENCH_CONFIGS = {"line_rate": "line_rate_config",
                 "priority_only": "priority_only_config"}
CHUNK_US = 200_000
UNCOUNTED_US = 2_000_000
MODULES = ("engine", "link", "transport", "scheduling", "traffic", "metrics",
           "scenario", "simulation", "cli")


def import_tree(src: Path, name: str) -> ModuleType:
    """Import src/cwrsim as the package `name`, with all its modules."""
    spec = importlib.util.spec_from_file_location(
        name, src / "cwrsim" / "__init__.py",
        submodule_search_locations=[str(src / "cwrsim")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return package


def bench_config(package: ModuleType, workload: str, seed: int):
    """bench/workloads.py's config for workload, built from package's classes.

    workloads.py imports `cwrsim` by name, so it is executed afresh with
    that name bound to package for the duration of its import.
    """
    aliases = {"cwrsim": package}
    aliases.update((f"cwrsim.{m}", getattr(package, m)) for m in MODULES)
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"{package.__name__}_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module
    return getattr(workloads, BENCH_CONFIGS[workload])(seed)


def make_config(package: ModuleType, workload: str, seed: int,
                seconds: int | None):
    if workload in BENCH_CONFIGS:
        config = bench_config(package, workload, seed)
    else:
        config = package.scenario.parse_scenario(SCENARIOS / f"{workload}.scn")
        config.seed = seed
    if seconds is not None:
        config.duration_us = seconds * 1_000_000
    return config


class Tally:
    """Counted chunks of one comparison: each chunk's ref/work CPU ratio,
    and the events dispatched and CPU seconds taken over them per tree."""

    def __init__(self) -> None:
        self.ratios: list[float] = []
        self.events = 0
        self.cpu = {"ref": 0.0, "work": 0.0}

    def add(self, other: "Tally") -> None:
        self.ratios.extend(other.ratios)
        self.events += other.events
        for side, seconds in other.cpu.items():
            self.cpu[side] += seconds

    def summary(self) -> str:
        q1, median, q3 = statistics.quantiles(self.ratios, n=4)
        won = sum(r > 1 for r in self.ratios)
        rates = ", ".join(f"{side} {self.events / seconds:,.0f}"
                          for side, seconds in self.cpu.items())
        return (f"median {median:.3f} (quartiles {q1:.3f}-{q3:.3f}), work "
                f"faster in {won} of {len(self.ratios)} chunks; events per "
                f"CPU-second {rates}")


def run_chunks(packages: dict[str, ModuleType], workload: str, seed: int,
               seconds: int | None) -> tuple[Tally, int]:
    """Run packages["ref"] and packages["work"] in alternating chunks;
    returns the counted chunks' tally and the events each tree
    dispatched."""
    sims = {side: package.simulation.Simulation(
                make_config(package, workload, seed, seconds))
            for side, package in packages.items()}
    horizon = sims["ref"].config.duration_us
    for sim in sims.values():
        sim.traffic.start()
    tally = Tally()
    end = 0
    chunk = 0
    while end < horizon:
        end = min(end + CHUNK_US, horizon)
        order = ("ref", "work") if chunk % 2 == 0 else ("work", "ref")
        cpu = {}
        events = {}
        for side in order:
            engine = sims[side].engine
            started = time.process_time()
            events[side] = engine.run_until(end)
            cpu[side] = time.process_time() - started
        if events["ref"] != events["work"]:
            sys.exit(f"error: chunk {chunk} dispatched {events['ref']} events "
                     f"at REF and {events['work']} in the working tree")
        if end > UNCOUNTED_US and cpu["work"] > 0:
            tally.ratios.append(cpu["ref"] / cpu["work"])
            tally.events += events["work"]
            for side, seconds in cpu.items():
                tally.cpu[side] += seconds
        chunk += 1
    manifests = {}
    for side, sim in sims.items():
        sim.verify_invariants()
        manifests[side] = packages[side].simulation.RunResult(sim).manifest()
    if manifests["ref"] != manifests["work"]:
        sys.exit("error: the two trees' manifests differ")
    return tally, sims["work"].engine.dispatched


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare against")
    parser.add_argument("--workload", default="line_rate",
                        help="line_rate, priority_only, shipped_scenarios, "
                             "all or a scenario stem (default line_rate)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="simulated seconds (default: the workload's)")
    parser.add_argument("--seed", type=int, nargs="+", default=[1],
                        help="one or more seeds (default 1)")
    parser.add_argument("--aa", action="store_true",
                        help="also run the working tree against itself")
    args = parser.parse_args(argv)
    shipped = [scn.stem for scn in sorted(SCENARIOS.glob("*.scn"))]
    if args.workload == "all":
        workloads = {**{w: [w] for w in BENCH_CONFIGS},
                     "shipped_scenarios": shipped}
    elif args.workload == "shipped_scenarios":
        workloads = {args.workload: shipped}
    elif args.workload in BENCH_CONFIGS \
            or (SCENARIOS / f"{args.workload}.scn").is_file():
        workloads = {args.workload: [args.workload]}
    else:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is not None and args.seconds * 1_000_000 <= UNCOUNTED_US:
        parser.error(f"--seconds must be above {UNCOUNTED_US // 1_000_000}")

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.ref, "src"],
                                 cwd=REPO, capture_output=True)
        if archive.returncode != 0:
            sys.exit(f"error: git archive {args.ref}: "
                     f"{archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        work = import_tree(REPO / "src", "cwrsim_work")
        pairs = {args.ref: {"ref": import_tree(Path(tmp) / "src",
                                               "cwrsim_ref"), "work": work}}
        if args.aa:
            pairs["A/A"] = {"ref": import_tree(REPO / "src", "cwrsim_aa"),
                            "work": work}
        for workload, stems in workloads.items():
            pooled = {label: Tally() for label in pairs}
            for seed in args.seed:
                for stem in stems:
                    for label, packages in pairs.items():
                        tally, events = run_chunks(packages, stem, seed,
                                                   args.seconds)
                        if len(tally.ratios) < 2:
                            sys.exit("error: too few counted chunks for "
                                     "quartiles")
                        pooled[label].add(tally)
                        print(f"{stem} seed {seed}, {events} events per "
                              f"tree: CPU ratio {label} / work: "
                              f"{tally.summary()}", flush=True)
            if len(args.seed) * len(stems) > 1:
                runs = f"{len(args.seed)} seeds"
                if len(stems) > 1:
                    runs += f" x {len(stems)} scenarios"
                for label, tally in pooled.items():
                    print(f"{workload} pooled over {runs}: CPU ratio "
                          f"{label} / work: {tally.summary()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
