"""The benchmark's workloads, each run as operations through cwrsim's public API.

An operation is one workload pass: it simulates, writes the run's output
files under a fresh directory, and raises CheckFailed when an output check
fails. Every workload is a closed loop in one thread; the seed is the only
input that varies between benchmark runs.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from cwrsim import cli
from cwrsim.link import PathConfig
from cwrsim.scenario import ScenarioConfig, parse_scenario
from cwrsim.simulation import Simulation
from cwrsim.traffic import DataSourceConfig

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

# criterion 1: with nothing lost, every post-warm-up priority message
# completes within one one-way delay plus serialization
LINE_RATE_BAND_US = (25_000, 27_000)

PRIORITY_ONLY_HORIZON_US = 120_000_000


class CheckFailed(Exception):
    """An operation's outputs are wrong."""


def line_rate_config(seed: int) -> ScenarioConfig:
    """Criterion 1: cwr/pfifo, two 25 ms paths at 100 Mbit/s, background on."""
    return ScenarioConfig(
        paths=[PathConfig(1, 25_000), PathConfig(2, 25_000)],
        sources=[DataSourceConfig(1, 100_000, 10_000)],
        duration_us=30_000_000, seed=seed, stream_scheduler="pfifo",
        path_scheduler="cwr", background=True)


def priority_only_config(seed: int) -> ScenarioConfig:
    """cwr_red/pfifo without background: criterion 5's sources, lossy paths."""
    return ScenarioConfig(
        paths=[PathConfig(1, 10_000, loss_rate=0.004),
               PathConfig(2, 50_000, loss_rate=0.004)],
        sources=[DataSourceConfig(1, 100_000, 10_000),
                 DataSourceConfig(2, 70_000, 7_000),
                 DataSourceConfig(3, 135_000, 5_000)],
        duration_us=PRIORITY_ONLY_HORIZON_US, seed=seed,
        stream_scheduler="pfifo", path_scheduler="cwr_red", background=False)


def scenario_files() -> list[Path]:
    return sorted(SCENARIOS.glob("*.scn"))


def run_line_rate(seed: int, outdir: Path) -> None:
    result = Simulation(line_rate_config(seed)).run()
    result.write_outputs(outdir)
    mcts = result.priority_mcts()
    low, high = LINE_RATE_BAND_US
    outside = [m for m in mcts if not low <= m <= high]
    if not mcts or outside:
        raise CheckFailed(
            f"{len(outside)} of {len(mcts)} priority completions outside "
            f"[{low}, {high}] us")


def run_priority_only(seed: int, outdir: Path) -> None:
    Simulation(priority_only_config(seed)).run().write_outputs(outdir)


def run_shipped_scenarios(seed: int, outdir: Path) -> None:
    for scn in scenario_files():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", str(scn), "--seed", str(seed),
                             "--out", str(outdir / scn.stem)])
        if code != cli.EXIT_OK:
            raise CheckFailed(f"cwrsim simulate {scn.name} exited {code}")


def setup_line_rate(seed: int) -> None:
    Simulation(line_rate_config(seed))


def setup_priority_only(seed: int) -> None:
    Simulation(priority_only_config(seed))


def setup_shipped_scenarios(seed: int) -> None:
    for scn in scenario_files():
        config = parse_scenario(scn)
        config.seed = seed
        Simulation(config)


OPERATIONS = {
    "line_rate": run_line_rate,
    "shipped_scenarios": run_shipped_scenarios,
    "priority_only": run_priority_only,
}

# Distinct seeds a run's timed operations cycle over. The work in one pass
# varies with the seed (coefficient of variation of the events dispatched):
# 9% for shipped_scenarios and 1.4% for priority_only over ten seeds, none
# for the lossless line_rate over three. A run's mean over more seeds varies
# less between runs.
SEEDS_PER_RUN = {
    "line_rate": 2,
    "shipped_scenarios": 8,
    "priority_only": 4,
}

SETUPS = {
    "line_rate": setup_line_rate,
    "shipped_scenarios": setup_shipped_scenarios,
    "priority_only": setup_priority_only,
}


def check_spurious_losses(outdir: Path) -> None:
    """No path declared more losses than its link dropped.

    The difference can be negative without anything spurious: a packet
    dropped within the last round trip is still undetected at the horizon.
    """
    manifests = sorted(outdir.rglob("manifest.json"))
    if not manifests:
        raise CheckFailed("no manifest.json written")
    for manifest in manifests:
        paths = json.loads(manifest.read_text())["paths"]
        for path_id, stats in paths.items():
            spurious = stats["losses_declared"] - stats["data_packets_dropped"]
            if spurious > 0:
                raise CheckFailed(
                    f"{manifest.relative_to(outdir)}: path {path_id}: "
                    f"{spurious} spurious losses")
