"""Command-line interface: output files, determinism, compare report."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cwrsim.cli import main
from cwrsim.link import serialization_us
from cwrsim.scheduling import GATE_PACKETS, PATH_SCHEDULERS, STREAM_SCHEDULERS
from cwrsim.transport import HEADER_BYTES, MAX_PACKET_BYTES, MAX_PAYLOAD_BYTES

SCENARIO = """
duration_us = 2000000
seed = 5
path_scheduler = {scheduler}
background = true

[path]
owd_us = 25000
loss_rate = 0.0005

[path]
owd_us = 25000
loss_rate = 0.0005

[source]
inter_arrival_us = 100000
message_size_bytes = 10000
start_offset_us = 200000
"""


def write_scenario(tmp_path, scheduler="cwr", name="case.scn"):
    p = tmp_path / name
    p.write_text(SCENARIO.format(scheduler=scheduler))
    return p


def test_simulate_writes_output_contract(tmp_path):
    scn = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--out", str(out)]) == 0
    run_dir = out / "run_000"
    for name in ("mct.csv", "ccdf.csv", "throughput.csv", "cwnd_growth.csv",
                 "manifest.json"):
        assert (run_dir / name).exists()
    assert (out / "ccdf.csv").exists()  # pooled
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["path_scheduler"] == "cwr"
    assert manifest["messages"]["generated"] > 0


def test_simulate_repetitions_vary_seed(tmp_path):
    scn = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--reps", "2", "--out", str(out)]) == 0
    seeds = []
    for rep in range(2):
        manifest = json.loads((out / f"run_{rep:03d}" / "manifest.json").read_text())
        seeds.append(manifest["config"]["seed"])
    assert seeds == [5, 6]


def test_pooled_growth_table_holds_every_runs_rows_in_order(tmp_path):
    scn = write_scenario(tmp_path)
    scn.write_text(scn.read_text().replace("duration_us = 2000000",
                                           "duration_us = 4000000"))
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--reps", "2", "--out", str(out)]) == 0
    header, *rows = (out / "run_000" / "cwnd_growth.csv").read_text() \
        .splitlines(keepends=True)
    rows += (out / "run_001" / "cwnd_growth.csv").read_text() \
        .splitlines(keepends=True)[1:]
    assert len(rows) == 4  # both paths of both runs
    assert (out / "cwnd_growth.csv").read_text() == header + "".join(rows)


def test_second_repetition_equals_a_run_at_its_seed(tmp_path):
    # the scenario's seed is 5: repetition 1 runs seed 6
    scn = write_scenario(tmp_path)
    reps, single = tmp_path / "reps", tmp_path / "single"
    assert main(["simulate", str(scn), "--reps", "2", "--out", str(reps)]) == 0
    assert main(["simulate", str(scn), "--seed", "6", "--out",
                 str(single)]) == 0
    names = sorted(f.name for f in (single / "run_000").iterdir())
    assert names == sorted(f.name for f in (reps / "run_001").iterdir())
    for name in names:
        assert (reps / "run_001" / name).read_bytes() \
            == (single / "run_000" / name).read_bytes(), name


def test_same_config_and_seed_yield_byte_identical_outputs(tmp_path):
    scn = write_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(scn), "--out", str(out_a)]) == 0
    assert main(["simulate", str(scn), "--out", str(out_b)]) == 0
    for name in ("mct.csv", "ccdf.csv", "throughput.csv", "cwnd_growth.csv",
                 "manifest.json"):
        a = (out_a / "run_000" / name).read_bytes()
        b = (out_b / "run_000" / name).read_bytes()
        assert a == b, name


def test_every_manifest_under_out_holds_the_counts_bench_reads(tmp_path):
    # bench/ sums these over every manifest.json below --out, so a pooled
    # summary must take another name
    out = tmp_path / "out"
    assert main(["simulate", str(write_scenario(tmp_path)), "--reps", "2",
                 "--out", str(out)]) == 0
    manifests = sorted(out.rglob("manifest.json"))
    assert [m.parent.name for m in manifests] == ["run_000", "run_001"]
    for manifest in manifests:
        data = json.loads(manifest.read_text())
        assert type(data["events_dispatched"]) is int
        assert data["paths"]
        for counts in data["paths"].values():
            assert type(counts["losses_declared"]) is int
            assert type(counts["data_packets_dropped"]) is int


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[path]\nloss_rate = 2.0\nowd_us = 10\n")
    assert main(["simulate", str(bad)]) == 1
    assert "line" in capsys.readouterr().err


def test_overloaded_sources_exit_code(tmp_path, capsys):
    # 10,400 B on the wire every 200 us offer 416 Mbit/s to 200 Mbit/s
    scn = tmp_path / "overload.scn"
    scn.write_text("duration_us = 2000000\nbackground = false\n"
                   "[path]\nowd_us = 25000\n[path]\nowd_us = 25000\n"
                   "[source]\ninter_arrival_us = 200\n"
                   "message_size_bytes = 10000\n")
    assert main(["simulate", str(scn), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {scn}: line 7: source 1: the sources up to this one offer "
        "416000000 bit/s")
    assert not (tmp_path / "out").exists()


def test_path_outside_the_validity_envelope_exit_code(tmp_path, capsys):
    # 2 Mbit/s: one 1350 B packet serializes in 5.4 ms, more than the RTT
    slow = tmp_path / "slow.scn"
    slow.write_text("duration_us = 3000000\n\n[path]\nowd_us = 2500\n"
                    "rate_bps = 2000000\n")
    assert main(["simulate", str(slow), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {slow}: line 3: path 1: outside the validity envelope")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("[path]\nowd_us = 0\n", "line 2: path 1: owd_us must be > 0"),
    ("[path]\nowd_us = 25000\nrate_bps = 0\n",
     "line 2: path 1: rate_bps must be > 0"),
    ("[path]\nowd_us = 25000\nloss_rate = 1.0\n",
     "line 2: path 1: loss_rate must be in [0, 1)"),
    ("[path]\nowd_us = 25000\n[source]\ninter_arrival_us = 0\n"
     "message_size_bytes = 100\n",
     "line 4: source 1: inter_arrival_us must be > 0"),
    ("[path]\nowd_us = 25000\n[source]\ninter_arrival_us = 100000\n"
     "message_size_bytes = 0\n",
     "line 4: source 1: message_size_bytes must be > 0"),
    ("[path]\nowd_us = 25000\n[source]\ninter_arrival_us = 100000\n"
     "message_size_bytes = 100\nstart_offset_us = -1\n",
     "line 4: source 1: start_offset_us must be >= 0"),
    ("path_scheduler = x\n[path]\nowd_us = 25000\n",
     "line 2: path_scheduler must be one of ('lowrtt', 'cwr', 'cwr_red'), "
     "got 'x'"),
    ("stream_scheduler = x\n[path]\nowd_us = 25000\n",
     "line 2: stream_scheduler must be one of ('rr', 'pfifo'), got 'x'"),
], ids=["owd_us", "rate_bps", "loss_rate", "inter_arrival_us",
        "message_size_bytes", "start_offset_us", "path_scheduler",
        "stream_scheduler"])
def test_rejected_scenario_names_its_line_and_rule(tmp_path, capsys, text,
                                                   message):
    scn = tmp_path / "bad.scn"
    scn.write_text("duration_us = 2000000\n" + text)
    assert main(["simulate", str(scn), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {scn}: {message}\n"
    assert not (tmp_path / "out").exists()


@st.composite
def envelope_scenarios(draw) -> str:
    """Small scenario files inside the validity envelope, just over the
    1 s warm-up."""
    lines = [f"duration_us = {draw(st.integers(1_000_001, 1_200_000))}",
             f"seed = {draw(st.integers(0, 2 ** 32))}",
             "path_scheduler = "
             f"{draw(st.sampled_from(tuple(PATH_SCHEDULERS)))}",
             "stream_scheduler = "
             f"{draw(st.sampled_from(tuple(STREAM_SCHEDULERS)))}",
             f"background = {draw(st.booleans())}"]
    capacity = 0
    for _ in range(draw(st.integers(1, 2))):
        rate = draw(st.sampled_from([10_000_000, 20_000_000, 100_000_000]))
        capacity += rate
        # the RTT, twice owd_us, must exceed 8 * GATE_PACKETS serializations
        low = 4 * GATE_PACKETS * serialization_us(MAX_PACKET_BYTES, rate) + 1
        lines += ["[path]", f"owd_us = {draw(st.integers(low, 100_000))}",
                  f"rate_bps = {rate}",
                  f"loss_rate = {draw(st.sampled_from([0, 0.0005, 0.02]))}"]
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(100, 20_000))
        # each of up to three sources offers at most a third of the paths'
        # capacity on the wire (its message plus a header per packet)
        wire_bits = 8 * (size + -(-size // MAX_PAYLOAD_BYTES) * HEADER_BYTES)
        fastest = max(20_000, -(-3 * wire_bits * 1_000_000 // capacity))
        lines += [
            "[source]",
            f"inter_arrival_us = {draw(st.integers(fastest, 200_000))}",
            f"message_size_bytes = {size}",
            f"priority = {draw(st.booleans())}",
            f"start_offset_us = {draw(st.integers(0, 300_000))}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=20, deadline=None)
@given(text=envelope_scenarios())
def test_any_envelope_scenario_runs_or_reports_an_invariant(tmp_path_factory,
                                                            text):
    tmp = tmp_path_factory.mktemp("run")
    scn = tmp / "case.scn"
    scn.write_text(text)
    assert main(["simulate", str(scn), "--out", str(tmp / "out")]) in (0, 2)


@pytest.mark.parametrize("argv, message", [
    (["simulate", "{scn}", "--seed", "abc"], "invalid int value: 'abc'"),
    (["compare"], "required: dirs"),
    (["bogus"], "invalid choice: 'bogus'"),
])
def test_usage_errors_exit_1(tmp_path, capsys, argv, message):
    # 2 is the invariant-breach code, not argparse's usage code
    scn = write_scenario(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([arg.format(scn=scn) for arg in argv])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: cwrsim") and message in err


def test_importing_the_cli_skips_dataclasses_and_inspect():
    # each pulls in further modules (ast, dis, tokenize) that every CLI run
    # would pay for at start-up
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; before = set(sys.modules); import cwrsim.cli; "
            "print(sorted({'dataclasses', 'inspect'} "
            "& (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout == "[]\n"


def test_missing_file_exit_code(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.scn")]) == 1


def test_compare_reports_growth_ordering(tmp_path, capsys):
    dirs = []
    for scheduler in ("lowrtt", "cwr"):
        scn = write_scenario(tmp_path, scheduler, f"{scheduler}.scn")
        out = tmp_path / f"out_{scheduler}"
        # longer horizon so the growth metric has enough windows
        scn.write_text(scn.read_text().replace("duration_us = 2000000",
                                               "duration_us = 4000000"))
        assert main(["simulate", str(scn), "--out", str(out)]) == 0
        dirs.append(str(out))
    assert main(["compare", *dirs]) == 0
    report = capsys.readouterr().out
    assert "lowrtt" in report and "cwr" in report
    assert "growth ordering" in report


# (scheduler, owd_us, extra simulate args) of the first and the last
# simulate into one --out
REUSE_CASES = {
    "another_scheduler": (("lowrtt", "25000", ["--reps", "2"]),
                          ("cwr", "25000", [])),
    "another_scenario": (("cwr", "25000", ["--reps", "2"]),
                         ("cwr", "50000", [])),
    "another_seed": (("cwr", "25000", ["--reps", "2"]),
                     ("cwr", "25000", ["--seed", "50"])),
    "fewer_reps": (("cwr", "25000", ["--reps", "3"]),
                   ("cwr", "25000", ["--reps", "1"])),
}


@pytest.mark.parametrize("first, last", REUSE_CASES.values(),
                         ids=REUSE_CASES.keys())
def test_compare_reads_a_reused_out_as_its_last_simulate(tmp_path, capsys,
                                                         first, last):
    def simulate(case, out):
        scheduler, owd, extra = case
        scn = tmp_path / f"{scheduler}_{owd}.scn"
        # 4 s: every run has growth rows, so each run counts in the report
        scn.write_text(SCENARIO.format(scheduler=scheduler)
                       .replace("duration_us = 2000000",
                                "duration_us = 4000000")
                       .replace("owd_us = 25000", f"owd_us = {owd}"))
        assert main(["simulate", str(scn), *extra, "--out", str(out)]) == 0

    def compare(out):
        capsys.readouterr()
        code = main(["compare", str(out)])
        return code, *capsys.readouterr()

    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    simulate(first, reused)
    simulate(last, reused)
    simulate(last, fresh)
    expected = compare(fresh)
    assert expected[0] == 0 and "(1 run(s))" in expected[1]
    assert compare(reused) == expected


def test_a_stopped_simulate_leaves_no_pooled_table(tmp_path, capsys):
    # the first simulate's pooled tables must not outlive the second one,
    # which stops at run_001
    scn = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--out", str(out)]) == 0
    (out / "run_001").write_text("kept\n")
    assert main(["simulate", str(scn), "--reps", "2", "--out", str(out)]) == 1
    assert not (out / "cwnd_growth.csv").exists()
    assert not (out / "ccdf.csv").exists()
    capsys.readouterr()
    assert main(["compare", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {out / 'cwnd_growth.csv'}: "
                            "No such file or directory\n")
    assert captured.out == ""


def test_compare_rejects_a_dir_named_twice(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(write_scenario(tmp_path)),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    again = out / ".." / "out"
    assert main(["compare", str(out), str(again)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {again}: named twice; compare counts "
                            "each dir once\n")
    assert captured.out == ""


def test_simulate_rejects_fewer_than_one_repetition(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    for reps in ("0", "-3"):
        out = tmp_path / f"out_{reps}"
        assert main(["simulate", str(scn), "--reps", reps,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "--reps" in captured.err and "wrote" not in captured.out
        assert not out.exists()


@pytest.mark.parametrize("out, afile", [("afile", "afile"),
                                       ("out", "out/run_000")])
def test_out_naming_a_file_exit_code(tmp_path, capsys, out, afile):
    # --out names a file, or holds a file where a run directory goes
    scn = write_scenario(tmp_path)
    afile = tmp_path / afile
    afile.parent.mkdir(exist_ok=True)
    afile.write_text("kept\n")
    assert main(["simulate", str(scn), "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {afile}: ")
    assert "wrote" not in captured.out
    assert afile.read_text() == "kept\n"


def test_undecodable_scenario_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(b"# caf\xe9\n[path]\nowd_us = 25000\n")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def fake_run_dir(tmp_path, manifest: str, growth: str | None = None) -> Path:
    """A compare input dir holding one run's manifest and the pooled growth
    table; returns the run's dir."""
    run_dir = tmp_path / "out" / "run_000"
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(manifest)
    if growth is not None:
        (run_dir.parent / "cwnd_growth.csv").write_text(growth)
    return run_dir


GROWTH_HEADER = "path_id,scheduler,mean_growth_bytes_per_rtt\n"


@pytest.mark.parametrize("manifest", [
    '{"engine_version": "0.1.0"}',
    '{"config": {"seed": 1}}',
    '{"config": {"path_scheduler": 5}}',
    '{"config": {"path_scheduler": "foo"}}',
    '["config"]',
    "{not json",
    "[" * 200_000,  # nests deeper than json can parse
])
def test_compare_rejects_a_manifest_without_its_scheduler(tmp_path, capsys,
                                                          manifest):
    run_dir = fake_run_dir(tmp_path, manifest)
    assert main(["compare", str(run_dir.parent)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {run_dir / 'manifest.json'}: ")


@pytest.mark.parametrize("lowrtt_growth, cwr_growth", [
    (GROWTH_HEADER, GROWTH_HEADER),
    (GROWTH_HEADER + "1,lowrtt,1264.0\n", GROWTH_HEADER + "2,cwr,1200.0\n"),
], ids=["header_only", "disjoint_paths"])
def test_compare_orders_no_paths_without_a_common_one(tmp_path, capsys,
                                                      lowrtt_growth,
                                                      cwr_growth):
    dirs = [fake_run_dir(tmp_path / scheduler,
                         f'{{"config": {{"path_scheduler": "{scheduler}"}}}}',
                         growth).parent
            for scheduler, growth in (("cwr", cwr_growth),
                                      ("lowrtt", lowrtt_growth))]
    assert main(["compare", *map(str, dirs)]) == 0
    assert capsys.readouterr().out.endswith(
        "growth ordering (lowrtt >= cwr per path): no path has a growth "
        "figure under every scheduler\n")


@pytest.mark.parametrize("cwr_growth, verdict", [("1200.0", "holds"),
                                                ("1300.0", "violated")])
def test_compare_reports_whether_the_growth_ordering_holds(tmp_path, capsys,
                                                          cwr_growth,
                                                          verdict):
    dirs = [fake_run_dir(tmp_path / scheduler,
                         f'{{"config": {{"path_scheduler": "{scheduler}"}}}}',
                         GROWTH_HEADER + f"1,{scheduler},{growth}\n").parent
            for scheduler, growth in (("lowrtt", "1264.0"),
                                      ("cwr", cwr_growth))]
    assert main(["compare", *map(str, dirs)]) == 0
    assert capsys.readouterr().out.endswith(
        f"growth ordering (lowrtt >= cwr per path): {verdict}\n")


def test_simulate_reports_each_omitted_growth_row(tmp_path, capsys):
    # without background, one 10 kB message a second leaves both paths in
    # slow start, so neither has a growth figure
    scn = tmp_path / "quiet.scn"
    scn.write_text(SCENARIO.format(scheduler="cwr")
                   .replace("background = true", "background = false")
                   .replace("inter_arrival_us = 100000",
                            "inter_arrival_us = 1000000"))
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "".join(
        f"run 0: cwnd_growth omitted: path {p}: path never reached "
        "congestion avoidance\n" for p in (1, 2))
    assert (out / "run_000" / "cwnd_growth.csv").read_text() == GROWTH_HEADER


@pytest.mark.parametrize("growth", [
    "path_id,scheduler\n1,cwr\n",
    GROWTH_HEADER + "1,cwr,fast\n",
    GROWTH_HEADER + "one,cwr,1264.0\n",
    GROWTH_HEADER + "1,cwr\n",
    GROWTH_HEADER + "1,cwr," + "9" * 131_073 + "\n",  # over csv's field limit
    GROWTH_HEADER + "1,cwr,nan\n",
    GROWTH_HEADER + "1,cwr,inf\n",
    GROWTH_HEADER + "1,cwr,-inf\n",
])
def test_compare_rejects_an_unreadable_growth_table(tmp_path, capsys, growth):
    run_dir = fake_run_dir(tmp_path, '{"config": {"path_scheduler": "cwr"}}',
                           growth)
    assert main(["compare", str(run_dir.parent)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {run_dir.parent / 'cwnd_growth.csv'}: line 2: ")

