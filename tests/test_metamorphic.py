"""Metamorphic relations: an input change whose effect on every output file
is known exactly, checked over random_config draws."""
from __future__ import annotations

import csv
import json

from hypothesis import given, settings, strategies as st

from cwrsim.simulation import Simulation
from test_properties import random_config

# order-preserving, because _rtt_key breaks srtt ties by path_id
RELABEL = {1: 3, 2: 7}
FILES_WITHOUT_IDS = ("mct.csv", "ccdf.csv", "throughput.csv")


def outputs(cfg, outdir):
    """The run's written files by name, its manifest parsed, and its
    write_outputs warnings."""
    warnings = Simulation(cfg).run().write_outputs(outdir)
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
