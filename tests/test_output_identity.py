"""Output-identity gate: `write_outputs` bytes of short runs are pinned.

Each digest is the SHA-256 over the output files in name order, each file
contributing its name and its bytes. A change meant to keep outputs
byte-identical must leave every digest as it is; a change that alters
outputs on purpose updates the digests and says so in CHANGES.md.

Observation is also gated here: a run with a trace hook and per-event
invariant checks writes the same bytes as a run with neither.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from cwrsim.link import PathConfig
from cwrsim.scenario import ScenarioConfig, parse_scenario
from cwrsim.simulation import Simulation
from cwrsim.traffic import DataSourceConfig
from test_properties import random_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def shipped(name: str, horizon_us: int, **overrides):
    """A shipped scenario cut to `horizon_us`, with fields overridden."""
    def make(seed: int) -> ScenarioConfig:
        cfg = parse_scenario(SCENARIOS / f"{name}.scn")
        cfg.duration_us = horizon_us
        cfg.seed = seed
        for field, value in overrides.items():
            setattr(cfg, field, value)
        return cfg
    return make


def priority_only(seed: int) -> ScenarioConfig:
    """cwr_red/pfifo without background: three sources over lossy paths."""
    return ScenarioConfig(
        paths=[PathConfig(1, 10_000, loss_rate=0.004),
               PathConfig(2, 50_000, loss_rate=0.004)],
        sources=[DataSourceConfig(1, 100_000, 10_000),
                 DataSourceConfig(2, 70_000, 7_000),
                 DataSourceConfig(3, 135_000, 5_000)],
        duration_us=10_000_000, seed=seed, stream_scheduler="pfifo",
        path_scheduler="cwr_red", background=False)


def line_rate(seed: int) -> ScenarioConfig:
    """cwr/pfifo, one priority source beside saturating background, no loss."""
    return ScenarioConfig(
        paths=[PathConfig(1, 25_000), PathConfig(2, 25_000)],
        sources=[DataSourceConfig(1, 100_000, 10_000)],
        duration_us=2_000_000, seed=seed, stream_scheduler="pfifo",
        path_scheduler="cwr", background=True)


CONFIGS = {
    "asymmetric_rtt": shipped("asymmetric_rtt", 3_000_000),
    "one_source_cwr": shipped("one_source_cwr", 3_000_000),
    "three_sources": shipped("three_sources", 3_000_000),
    "priority_only": priority_only,
    "line_rate": line_rate,
    "asymmetric_rtt_lowrtt": shipped("asymmetric_rtt", 3_000_000,
                                     path_scheduler="lowrtt"),
}

DIGESTS = {
    ("asymmetric_rtt", 1): "c7b3e39b9f2703eed220ebedd49d07b0039826f6410ec96a84a1f1c2e6bab4fd",
    ("asymmetric_rtt", 2): "42d97d007300c8e77b26336827fc80e6ccaf503484470f981f8adc2939051a69",
    ("one_source_cwr", 1): "201d65989f1da27c595ed637a32d991f3b19476a0313ac5578e87b99d224b878",
    ("one_source_cwr", 2): "d6c30fed45ec7b2364dd0d6b4d23d9433bc6d4ea0487f142bd0ca9cb12d46334",
    ("three_sources", 1): "c815f7471dacd3147b8c4b754ae18cd47fbd12c9554ead4fc5919ab439ad1bdb",
    ("three_sources", 2): "aafe3288d038c2e07a6c56a53aac428d08ceb58dd6f32b3b63a0de1734153ace",
    ("priority_only", 1): "7767b1b5f23babe17612eeffc55baa3f50aab780da40b8960cda4b8bf18e662a",
    ("priority_only", 2): "6557f42edb63d4ad9c3513c4a65944c3a42f7d85bccef355aac525a373ff6705",
    ("line_rate", 1): "5f6d4d63589661763ac512f92940eaef03cb0d2ab9d05339187fd8a2eaa78761",
    ("line_rate", 2): "d630098c73080b70b44a8a69f15b14bf223af72d3f100f2ff0839a5b462a8525",
    ("asymmetric_rtt_lowrtt", 1): "a94153a17d8b9cadd6a4b3c8390ac739cb3002ab45e313de3114b6b6b04ff783",
    ("asymmetric_rtt_lowrtt", 2): "106b94a374e1fc46cc078a3d40201ed36898489f9e109d2a69de1fe20b24c7c6",
}


def outputs_digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(outdir.iterdir()):
        h.update(f.name.encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_write_outputs_bytes_are_pinned(tmp_path, name, seed):
    Simulation(CONFIGS[name](seed)).run().write_outputs(tmp_path)
    assert outputs_digest(tmp_path) == DIGESTS[(name, seed)]


OBSERVED_CONFIGS = (
    [pytest.param(lambda i=i: random_config(i), id=f"random_config_{i}")
     for i in range(8)]
    + [pytest.param(lambda make=make: make(1), id=f"{name}_1")
       for name, make in CONFIGS.items()])


@pytest.mark.parametrize("make", OBSERVED_CONFIGS)
def test_tracing_and_invariant_checks_leave_outputs_unchanged(tmp_path, make):
    Simulation(make()).run().write_outputs(tmp_path / "plain")
    records = []
    observed = Simulation(make(), trace=lambda *rec: records.append(rec),
                          check_interval=1)
    observed.run().write_outputs(tmp_path / "observed")
    assert any(rec[1] == "send" for rec in records)
    assert outputs_digest(tmp_path / "observed") \
        == outputs_digest(tmp_path / "plain")
