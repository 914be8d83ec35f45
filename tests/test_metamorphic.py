"""Metamorphic relations: an input change whose effect on every output file
is known exactly, checked over random_config draws."""
from __future__ import annotations

import csv
import json

from hypothesis import example, given, settings, strategies as st

from cwrsim.scheduling import PATH_SCHEDULERS, STREAM_SCHEDULERS
from cwrsim.simulation import Simulation
from cwrsim.traffic import BACKGROUND_STREAM_ID
from test_properties import random_config

# order-preserving, because _rtt_key breaks srtt ties by path_id
RELABEL = {1: 3, 2: 7}
FILES_WITHOUT_IDS = ("mct.csv", "ccdf.csv", "throughput.csv")


def outputs(cfg, outdir, trace=None, messages=None):
    """The run's written files by name, its manifest parsed, and its
    write_outputs warnings; `trace` is passed to the Simulation, and the
    run's MessageRecords are added to the list `messages` if one is given."""
    result = Simulation(cfg, trace=trace).run()
    if messages is not None:
        messages += result.messages
    warnings = result.write_outputs(outdir)
    files = {name: (outdir / name).read_bytes() for name in FILES_WITHOUT_IDS}
    with (outdir / "cwnd_growth.csv").open() as fh:
        files["cwnd_growth.csv"] = list(csv.reader(fh))
    files["manifest.json"] = json.loads((outdir / "manifest.json").read_text())
    return files, warnings


def ids_restored(files, warnings, back):
    """The relabelled run's outputs with every path id mapped through back."""
    header, *rows = files["cwnd_growth.csv"]
    files["cwnd_growth.csv"] = [header] + [[str(back[int(row[0])]), *row[1:]]
                                           for row in rows]
    manifest = files["manifest.json"]
    manifest["paths"] = {str(back[int(pid)]): stats
                         for pid, stats in manifest["paths"].items()}
    for path in manifest["config"]["paths"]:
        path["path_id"] = back[path["path_id"]]
    for new, old in back.items():
        warnings = [w.replace(f"path {new}:", f"path {old}:")
                    for w in warnings]
    return files, warnings


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_order_preserving_path_relabel_changes_only_the_ids(tmp_path_factory,
                                                            seed):
    base = random_config(seed)
    relabelled = random_config(seed)
    for path in relabelled.paths:
        path.path_id = RELABEL[path.path_id]
    expected = outputs(base, tmp_path_factory.mktemp("base"))
    files, warnings = outputs(relabelled, tmp_path_factory.mktemp("relabel"))
    assert set(files["manifest.json"]["paths"]) == {"3", "7"}
    back = {new: old for old, new in RELABEL.items()}
    assert ids_restored(files, warnings, back) == expected


def labelled_run(cfg, outdir, messages=None):
    """outputs() with the path scheduler's name blanked where it is
    written, plus the run's send records and each node's number of
    blocked decisions; `messages` is passed to outputs()."""
    records = []
    blocked = {"server": 0, "client": 0}

    def trace(node, kind, now, *fields):
        if kind == "send":
            path_id, number, frame, is_dup, is_rtx = fields
            records.append((node.name, now, path_id, number, frame.stream_id,
                            frame.epoch, frame.offset, frame.length,
                            frame.priority, is_dup, is_rtx))
        else:
            blocked[node.name] += 1

    files, warnings = outputs(cfg, outdir, trace, messages)
    header, *rows = files["cwnd_growth.csv"]
    files["cwnd_growth.csv"] = [header] + [[row[0], "", *row[2:]]
                                           for row in rows]
    files["manifest.json"]["config"]["path_scheduler"] = ""
    return files, warnings, records, blocked


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=2),
       st.sampled_from(tuple(STREAM_SCHEDULERS)))
def test_schedulers_agree_without_priority_sources(tmp_path_factory, seed,
                                                   kept, stream_scheduler):
    # with nothing to reserve for or duplicate, the three path schedulers
    # send the same packets at the same instants and block alike
    runs = []
    for scheduler in PATH_SCHEDULERS:
        cfg = random_config(seed)
        cfg.sources = cfg.sources[:kept]
        for source in cfg.sources:
            source.priority = False
        # a run with neither would send nothing
        cfg.background = cfg.background or not cfg.sources
        cfg.stream_scheduler = stream_scheduler
        cfg.path_scheduler = scheduler
        runs.append(labelled_run(cfg, tmp_path_factory.mktemp(scheduler)))
    assert runs[0][2] and runs[0] == runs[1] == runs[2]
    # pfifo ranks background ahead of every non-priority message stream
    # and may never send one; rr gives each stream its turn
    if cfg.sources and stream_scheduler == "rr":
        assert any(rec[0] == "server" and rec[4] != BACKGROUND_STREAM_ID
                   for rec in runs[0][2])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
# the lone path's window carries little more than the sources offer, so a
# backlog leaves messages without loss incomplete at the horizon
@example(seed=3194)
def test_redundancy_on_one_path_changes_only_the_refrain_count(
        tmp_path_factory, seed):
    # one path leaves nothing to duplicate on: cwr_red sends each packet
    # once, as cwr does (so mct.csv's duplicated column stays 0), and only
    # counts its priority sends as refrains
    runs = []
    messages = []
    for scheduler in ("cwr", "cwr_red"):
        cfg = random_config(seed)
        cfg.paths = cfg.paths[:1]
        cfg.path_scheduler = scheduler
        run = labelled_run(cfg, tmp_path_factory.mktemp(scheduler), messages)
        del run[0]["manifest.json"]["diagnostics"]["refrain"]
        runs.append(run)
    assert runs[0][2] and runs[0] == runs[1]
    # losses on the lone path are recovered: in both runs, every message
    # that lost a packet and was generated 300 ms or more before the
    # horizon completed (mct.csv lists only completed messages)
    assert all(m.completed_at is not None for m in messages
               if m.loss_involved
               and m.generated_at < cfg.duration_us - 300_000)
