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
    "three_sources_rr": shipped("three_sources", 3_000_000,
                                stream_scheduler="rr"),
}

DIGESTS = {
    ("asymmetric_rtt", 1): "e7630dcc05299ce32543ee2a3678f949ce010bb5d8d3ae346d9da8145c54d54a",
    ("asymmetric_rtt", 2): "ee5117ef8dacf67282a5befd43f58825b7f9b7abf5befbe45fbf32a09ff95413",
    ("one_source_cwr", 1): "dfd2c651f39a5c8cf87ec9f72839cdcc352e8443ba0a204550c6711d08bc9dd2",
    ("one_source_cwr", 2): "5fbdaedf2c461ddf8ed9ac6fa4063925778492596fa42300a32421a3713bd3ad",
    ("three_sources", 1): "8e3c2ebac8180cd2cbeaa5870d5e2f1009bce1d58f80a056398dd6d8284e0262",
    ("three_sources", 2): "a455a467023148d01387c90838e5560373b2d3f2b8613713e88a706efa38b61c",
    ("priority_only", 1): "5f019a893d8caed3acf69d18b8cfb7550fcbf072325364b1765945211f301184",
    ("priority_only", 2): "0e7390e800bebe3ecc9dba8e395d53bcd715f2c3158af969213ce41ca7aa21dc",
    ("line_rate", 1): "47ce87cc7d9843d3e6c953b99b07f1076dd6aec5257e966bc5d1750f0e41649c",
    ("line_rate", 2): "66e942d01d1d07424cfdf42b3048ea61ae365c4cb624a6f266a0c4498f1b1d97",
    ("asymmetric_rtt_lowrtt", 1): "dd3a8d197abe732243c86ec2147896944a6b1118895fc7b4cfa873978278b978",
    ("asymmetric_rtt_lowrtt", 2): "8cc8b2fee2dc8d46f85a46e40897f273fac404681b3348f375d983329a0ef011",
    ("three_sources_rr", 1): "6bbd6bc36b88f73073152114b3a5286d128a55cbb1dc31e5635788441e5bb23a",
    ("three_sources_rr", 2): "469f27805de8aceb47928ca1cb1e31ecc26aadb25e08c679bcedb4f7de60518d",
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
