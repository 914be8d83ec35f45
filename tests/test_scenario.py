"""Scenario file parsing and validation."""
from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cwrsim.engine import RNG_STREAMS
from cwrsim.scenario import (MAX_DURATION_US, MAX_THROUGHPUT_BINS, _PATH_KEYS,
                             _SOURCE_KEYS, _TOP_KEYS, ScenarioConfig,
                             ScenarioError, parse_scenario)
from cwrsim.link import PathConfig
from cwrsim.metrics import BIN_WIDTH_US, WARMUP_US
from cwrsim.simulation import Simulation
from cwrsim.traffic import DataSourceConfig

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def write(tmp_path, text):
    p = tmp_path / "case.scn"
    p.write_text(text)
    return p


def test_parse_shipped_three_source_scenario():
    cfg = parse_scenario(SCENARIOS / "three_sources.scn")
    assert cfg.duration_us == 30_000_000
    assert cfg.path_scheduler == "cwr_red"
    assert [p.owd_us for p in cfg.paths] == [25_000, 25_000]
    assert [(s.inter_arrival_us, s.message_size_bytes) for s in cfg.sources] \
        == [(100_000, 10_000), (70_000, 7_000), (135_000, 5_000)]
    assert all(s.priority for s in cfg.sources)


def test_parse_minimal_scenario(tmp_path):
    cfg = parse_scenario(write(tmp_path, """
        seed = 42
        [path]
        owd_us = 25000
    """))
    assert cfg.seed == 42
    assert cfg.paths[0].path_id == 1
    assert cfg.paths[0].rate_bps == 100_000_000
    assert cfg.stream_scheduler == "pfifo" and cfg.path_scheduler == "cwr"


def test_scheduler_enum_mapping(tmp_path):
    cfg = parse_scenario(write(tmp_path,
                               "path_scheduler = cwr_red\n[path]\nowd_us = 25000\n"))
    assert cfg.path_scheduler == "cwr_red"


def test_unknown_key_reports_line_number(tmp_path):
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario(write(tmp_path, "seed = 1\n\nowd = 5\n[path]\nowd_us = 25000\n"))


def test_invalid_loss_rate_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="loss_rate"):
        parse_scenario(write(tmp_path, "[path]\nowd_us = 25000\nloss_rate = 1.5\n"))


def test_missing_required_keys(tmp_path):
    with pytest.raises(ScenarioError, match="path needs owd_us"):
        parse_scenario(write(tmp_path, "[path]\nrate_bps = 1000\n"))
    with pytest.raises(ScenarioError, match="inter_arrival_us"):
        parse_scenario(write(tmp_path, "[path]\nowd_us = 25000\n"
                                       "[source]\nmessage_size_bytes = 5\n"))


@pytest.mark.parametrize("text, message", [
    ("seed = 1\nduration_s = 30\n[path]\nowd_us = 25000\n",
     "line 2: unknown key 'duration_s'"),
    ("seed = 1\n[path]\nrtt_us = 50000\n", "line 3: unknown key 'rtt_us'"),
    ("seed = 1\nbackground = yes\n[path]\nowd_us = 25000\n",
     "line 2: expected a boolean, got 'yes'"),
    ("seed = 1\nbackground = on\n[path]\nowd_us = 25000\n",
     "line 2: expected a boolean, got 'on'"),
    ("seed = 1\nbackground = 1\n[path]\nowd_us = 25000\n",
     "line 2: expected a boolean, got '1'"),
], ids=["duration_s", "rtt_us", "yes", "on", "1"])
def test_removed_spelling_rejected_with_its_line(tmp_path, text, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(write(tmp_path, text))
    assert str(info.value) == message


def test_file_keys_are_the_config_fields(tmp_path):
    # one key per settable field, spelled as the field
    assert set(_TOP_KEYS) == set(ScenarioConfig.__slots__) - {"paths",
                                                               "sources"}
    assert set(_PATH_KEYS) == set(PathConfig.__slots__) - {"path_id"}
    assert set(_SOURCE_KEYS) == set(DataSourceConfig.__slots__) \
        - {"source_id"}
    # README's example under "Scenario files" parses and sets every key
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Scenario files", 1)[1].split("```\n")[1]
    parse_scenario(write(tmp_path, example))
    keys = {"": set(), "[path]": set(), "[source]": set()}
    section = ""
    for line in example.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif line:
            keys[section].add(line.partition("=")[0].strip())
    assert keys == {"": set(_TOP_KEYS), "[path]": set(_PATH_KEYS),
                    "[source]": set(_SOURCE_KEYS)}


def test_bad_enum_rejected_with_line(tmp_path):
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario(write(tmp_path, "path_scheduler = fastest\n"
                                       "[path]\nowd_us = 25000\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario(write(tmp_path, "[link]\nowd_us = 25000\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="duplicate key"):
        parse_scenario(write(tmp_path, "seed = 1\nseed = 2\n[path]\nowd_us = 25000\n"))


def test_no_paths_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="path"):
        parse_scenario(write(tmp_path, "seed = 1\n"))


def test_comments_and_blank_lines_ignored(tmp_path):
    cfg = parse_scenario(write(tmp_path, """
        # comment
        seed = 9   # trailing comment

        [path]
        owd_us = 25000
    """))
    assert cfg.seed == 9


def test_validate_catches_bad_programmatic_config():
    with pytest.raises(ScenarioError):
        ScenarioConfig(paths=[]).validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(paths=[PathConfig(1, 25_000)],
                       stream_scheduler="lifo").validate()
    cfg = ScenarioConfig(paths=[PathConfig(1, 25_000)], seed=2 ** 70)
    cfg.validate()
    assert cfg.seed < 2 ** 64


@pytest.mark.parametrize("duration_us", [-1, WARMUP_US // 2, WARMUP_US])
def test_validate_rejects_warmup_outside_the_horizon(duration_us):
    cfg = ScenarioConfig(paths=[PathConfig(1, 25_000)], duration_us=duration_us)
    with pytest.raises(ScenarioError, match="warm-up") as info:
        cfg.validate()
    assert info.value.key == "duration_us"
    ScenarioConfig(paths=[PathConfig(1, 25_000)],
                   duration_us=WARMUP_US + 1).validate()


@pytest.mark.parametrize("duration_us, accepted", [
    (MAX_DURATION_US, True), (MAX_DURATION_US + 1, False),
    (2 * MAX_DURATION_US, False)])
def test_validate_bounds_the_horizon_in_throughput_bins(duration_us, accepted):
    assert MAX_DURATION_US == MAX_THROUGHPUT_BINS * BIN_WIDTH_US
    cfg = ScenarioConfig(paths=[PathConfig(1, 25_000)], duration_us=duration_us)
    if accepted:
        cfg.validate()
    else:
        with pytest.raises(ScenarioError, match="throughput bins") as info:
            cfg.validate()
        assert info.value.key == "duration_us"


def test_short_scenario_file_inside_the_default_warmup_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="warm-up") as info:
        parse_scenario(write(tmp_path,
                             "seed = 3\nduration_us = 500000\n"
                             "[path]\nowd_us = 25000\n"))
    assert info.value.line == 2


@pytest.mark.parametrize("line", ["duration_us = 1000000", "duration_us = -5"])
def test_duration_us_inside_the_default_warmup_names_its_line(tmp_path, line):
    with pytest.raises(ScenarioError, match="warm-up") as info:
        parse_scenario(write(tmp_path, f"# horizon\n{line}\n[path]\nowd_us = 25000\n"))
    assert info.value.line == 2
    cfg = parse_scenario(write(tmp_path, f"duration_us = {WARMUP_US + 1}\n"
                                         "[path]\nowd_us = 25000\n"))
    assert cfg.duration_us == WARMUP_US + 1


@pytest.mark.parametrize("line", [f"duration_us = {10 ** 30}",
                                  "duration_us = 10000000001"])
def test_horizon_past_the_throughput_bins_names_its_line(tmp_path, line):
    with pytest.raises(ScenarioError, match="throughput bins") as info:
        parse_scenario(write(tmp_path,
                             f"# horizon\n{line}\n[path]\nowd_us = 25000\n"))
    assert info.value.line == 2
    cfg = parse_scenario(write(tmp_path, "duration_us = 10000000000\n"
                                         "[path]\nowd_us = 25000\n"))
    assert cfg.duration_us == 10_000_000_000  # 100,000 bins of 100 ms


def test_to_dict_round_trips_scenario_fields():
    # every settable field off its default; the warm-up and the bin width
    # are fixed and echoed as they are
    cfg = ScenarioConfig(
        paths=[PathConfig(3, 12_000, rate_bps=50_000_000, loss_rate=0.25,
                          ack_loss_enabled=True)],
        sources=[DataSourceConfig(2, 40_000, 1_500, priority=False,
                                  start_offset_us=5)],
        duration_us=4_000_000, seed=9, stream_scheduler="rr",
        path_scheduler="cwr_red", background=False)
    expected = {
        "paths": [{"path_id": 3, "owd_us": 12_000, "rate_bps": 50_000_000,
                   "loss_rate": 0.25, "ack_loss_enabled": True}],
        "sources": [{"source_id": 2, "inter_arrival_us": 40_000,
                     "message_size_bytes": 1_500, "priority": False,
                     "start_offset_us": 5}],
        "duration_us": 4_000_000, "seed": 9, "stream_scheduler": "rr",
        "path_scheduler": "cwr_red", "background": False,
        "warmup_us": 1_000_000, "bin_width_us": 100_000,
    }
    # repr also tells True from 1 and keeps the field order
    assert repr(cfg.to_dict()) == repr(expected)


def test_configs_built_without_sources_do_not_share_a_list():
    a = ScenarioConfig(paths=[PathConfig(1, 25_000)])
    b = ScenarioConfig(paths=[PathConfig(1, 25_000)])
    a.sources.append(DataSourceConfig(1, 100_000, 10_000))
    assert b.sources == []


@pytest.mark.parametrize("owd_us, accepted", [(2_592, False), (2_593, True)])
def test_validity_envelope_boundary_names_the_path_line(tmp_path, owd_us,
                                                        accepted):
    # at 100 Mbit/s six 1350 B serializations take 648 us, and the RTT must
    # exceed eight times that: 5184 us
    p = write(tmp_path, f"[path]\nowd_us = 25000\n[path]\nowd_us = {owd_us}\n")
    if accepted:
        assert parse_scenario(p).paths[1].owd_us == owd_us
    else:
        with pytest.raises(ScenarioError, match="validity envelope") as info:
            parse_scenario(p)
        assert info.value.line == 3


@pytest.mark.parametrize("count, accepted", [(RNG_STREAMS // 2, True),
                                             (RNG_STREAMS // 2 + 1, False)])
def test_validate_bounds_the_paths_by_the_random_streams(count, accepted):
    # two streams per path: a 2049th path's forward link would draw what
    # the next seed's first path draws, so repetitions would share draws
    assert RNG_STREAMS == 4096
    cfg = ScenarioConfig(paths=[PathConfig(i, 25_000)
                                for i in range(1, count + 1)])
    if accepted:
        cfg.validate()
    else:
        with pytest.raises(ScenarioError, match="at most 2048 paths") as info:
            cfg.validate()
        assert info.value.key == ("path", 2048)


def test_a_path_past_the_random_streams_names_its_line(tmp_path):
    # line 1 holds the seed; the i-th [path] header, from 0, is line 2 + 2i
    text = "seed = 1\n" + "[path]\nowd_us = 25000\n" * (RNG_STREAMS // 2 + 1)
    with pytest.raises(ScenarioError, match="at most 2048 paths") as info:
        parse_scenario(write(tmp_path, text))
    assert info.value.line == 2 + 2 * (RNG_STREAMS // 2)


def test_programmatic_path_outside_the_envelope_rejected():
    cfg = ScenarioConfig(paths=[PathConfig(1, 100)])  # 200 us RTT
    with pytest.raises(ScenarioError, match="path 1: outside the validity"):
        cfg.validate()


@pytest.mark.parametrize("section, line", [
    ("[path]\nowd_us = 25000\nloss_rate = 1.5\n", 2),
    ("[path]\nowd_us = 25000\n[source]\ninter_arrival_us = 0\n"
     "message_size_bytes = 100\n", 4)])
def test_section_range_error_names_the_section_line(tmp_path, section, line):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(write(tmp_path, f"seed = 1\n{section}"))
    assert info.value.line == line


@pytest.mark.parametrize("size", ["1000000000000", "9" * 30])
def test_message_past_the_horizon_capacity_names_the_source_line(tmp_path,
                                                                 size):
    # parsed and validated only: running it would packetize the message
    with pytest.raises(ScenarioError, match="exceeds") as info:
        parse_scenario(write(tmp_path, "duration_us = 2000000\n[path]\n"
                                       "owd_us = 25000\n[source]\n"
                                       "inter_arrival_us = 100000\n"
                                       f"message_size_bytes = {size}\n"))
    assert info.value.line == 4
    assert info.value.key == ("source", 0)


@pytest.mark.parametrize("size, accepted", [(50_000_000, True),
                                            (50_000_001, False)])
def test_message_size_is_bounded_by_all_paths_over_the_run(size, accepted):
    # 2 s over 100 + 100 Mbit/s serialize 50,000,000 B; one such message
    # every 2.1 s keeps the offered load under the paths' capacity
    cfg = ScenarioConfig(
        paths=[PathConfig(1, 25_000), PathConfig(2, 25_000)],
        sources=[DataSourceConfig(1, 100_000, 1_000),
                 DataSourceConfig(2, 2_100_000, size)],
        duration_us=2_000_000)
    if accepted:
        cfg.validate()
    else:
        with pytest.raises(ScenarioError,
                           match="source 2: a 50000001 B message exceeds"
                                 " the 50000000 B") as info:
            cfg.validate()
        assert info.value.key == ("source", 1)


def test_overloaded_sources_name_the_source_line(tmp_path):
    # two 100 Mbit/s paths; on the wire the first source offers 8 * 5,200 B
    # per 1,040 us (40 Mbit/s) and the second 8 * 10,400 B per 500 us
    # (166.4 Mbit/s)
    text = ("duration_us = 2000000\n[path]\nowd_us = 25000\n[path]\n"
            "owd_us = 25000\n[source]\ninter_arrival_us = 1040\n"
            "message_size_bytes = 5000\n[source]\n"
            "inter_arrival_us = {}\nmessage_size_bytes = 10000\n")
    with pytest.raises(ScenarioError, match="source 2: the sources up to "
                       "this one offer 206400000 bit/s on the wire, above "
                       "the 200000000") as info:
        parse_scenario(write(tmp_path, text.format(500)))
    assert info.value.line == 9
    assert info.value.key == ("source", 1)
    # at 520 us the second source offers exactly 160 Mbit/s: the sum equals
    # the capacity, which is allowed
    cfg = parse_scenario(write(tmp_path, text.format(520)))
    assert len(cfg.sources) == 2


def test_load_rule_runs_after_every_per_source_check():
    # the first source overloads the path, the second repeats its id: the
    # per-source message wins
    cfg = _config(sources=[DataSourceConfig(1, 100, 10_000),
                           DataSourceConfig(1, 100_000, 1_000)])
    with pytest.raises(ScenarioError, match="duplicate source_id 1"):
        cfg.validate()


def _config(**fields):
    return ScenarioConfig(**{"paths": [PathConfig(1, 25_000)],
                             "duration_us": 2_000_000, **fields})


@pytest.mark.parametrize("make", [
    lambda: _config(duration_us=2.5e6),
    lambda: _config(seed=1.0),
    lambda: _config(sources=[DataSourceConfig(1, 1e5, 1000)]),
    lambda: _config(paths=[PathConfig(1, 25000.5)]),
    lambda: _config(paths=[PathConfig(1, 25_000, rate_bps=True)]),
    lambda: _config(paths=[PathConfig(1, 25_000, loss_rate=2)]),
    lambda: _config(paths=[PathConfig(1, 25_000, loss_rate="0.1")]),
    lambda: _config(sources=[DataSourceConfig(1, 100_000, 1000),
                             DataSourceConfig(1, 70_000, 1000)]),
    lambda: _config(background="off"),
    lambda: _config(paths=[PathConfig(1, 25_000, ack_loss_enabled=1)]),
    lambda: _config(sources=[DataSourceConfig(1, 100_000, 1000,
                                              priority="no")]),
    lambda: _config(stream_scheduler=[]),
    lambda: _config(path_scheduler={}),
    lambda: _config(paths=5),
    lambda: _config(sources=5),
    lambda: _config(paths=["x"]),
    lambda: _config(sources=[None]),
], ids=["float duration", "float seed", "float inter-arrival", "float owd",
        "bool rate", "loss_rate 2", "str loss_rate", "duplicate source_id",
        "str background", "int ack_loss_enabled", "str priority",
        "list stream_scheduler", "dict path_scheduler", "int paths",
        "int sources", "str path", "None source"])
def test_bad_programmatic_field_is_a_scenario_error(make):
    with pytest.raises(ScenarioError):
        make().validate()
    with pytest.raises(ScenarioError):
        Simulation(make())


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_numbers_rejected_with_their_line(tmp_path, value):
    with pytest.raises(ScenarioError, match="finite") as info:
        parse_scenario(write(tmp_path, f"[path]\nowd_us = 25000\n"
                                       f"loss_rate = {value}\n"))
    assert info.value.line == 3


VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "25000", "100000", "1e400", "1e303",
                     "inf",
                     "-inf", "nan", "0.5", "1.5", "1e-9", "true", "off",
                     "cwr", "cwr_red", "lowrtt", "rr", "pfifo", "", "x",
                     "9" * 30, "0x10"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\r\n"),
            max_size=12))
LINES = st.one_of(
    st.sampled_from(["[path]", "[source]", "[junk]", "# comment", "",
                     "no equals sign"]),
    st.builds("{} = {}".format,
              st.sampled_from(sorted(_TOP_KEYS | _PATH_KEYS | _SOURCE_KEYS)
                              + ["junk"]),
              VALUES))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(LINES, max_size=14))
def test_any_scenario_text_parses_or_raises_scenario_error(tmp_path_factory,
                                                           lines):
    p = tmp_path_factory.mktemp("fuzz") / "case.scn"
    p.write_text("\n".join(lines), encoding="utf-8")
    try:
        cfg = parse_scenario(p)
    except ScenarioError:
        return
    cfg.validate()
