"""Scenario configuration: flat key=value files with repeated [path]/[source] sections."""
from __future__ import annotations

import math
from pathlib import Path

from .engine import RNG_STREAMS, SEED_MASK
from .link import PathConfig, nominal_rtt_us, serialization_us
from .metrics import BIN_WIDTH_US, WARMUP_US
from .scheduling import GATE_PACKETS, PATH_SCHEDULERS, STREAM_SCHEDULERS
from .traffic import DataSourceConfig
from .transport import HEADER_BYTES, MAX_PACKET_BYTES, MAX_PAYLOAD_BYTES

# a run allocates a total and a priority byte counter per BIN_WIDTH_US of
# its horizon when it is built, and throughput.csv holds a row per bin;
# this caps both, at 10,000 s
MAX_THROUGHPUT_BINS = 100_000
MAX_DURATION_US = MAX_THROUGHPUT_BINS * BIN_WIDTH_US


class ScenarioError(ValueError):
    """Parse or validation failure, with the offending line when known.

    `key` names what validate rejected: a field such as "duration_us", or
    ("path", i) / ("source", i) for the i-th section. `reason` has no line."""

    def __init__(self, message: str, line: int | None = None, key=None):
        self.line = line
        self.key = key
        self.reason = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _require(obj, names: tuple[str, ...], kind, what: str, key=None) -> None:
    """Reject a field of obj that is not a `kind`; a bool counts only as a
    bool."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, kind) \
                or isinstance(value, bool) != (kind is bool):
            raise ScenarioError(f"{name} must be {what}, got {value!r}",
                                key=key or name)


def _require_list(obj, name: str, kind) -> None:
    """Reject a field of obj that is not a list of `kind`."""
    value = getattr(obj, name)
    if not isinstance(value, list) \
            or not all(isinstance(item, kind) for item in value):
        raise ScenarioError(
            f"{name} must be a list of {kind.__name__}, got {value!r}",
            key=name)


class ScenarioConfig:
    """Everything one run needs: paths, sources, schedulers, seed, horizon."""

    __slots__ = ("paths", "sources", "duration_us", "seed",
                 "stream_scheduler", "path_scheduler", "background")

    def __init__(self, paths: list[PathConfig],
                 sources: list[DataSourceConfig] | None = None,
                 duration_us: int = 30_000_000, seed: int = 1,
                 stream_scheduler: str = "pfifo", path_scheduler: str = "cwr",
                 background: bool = True):
        self.paths = paths
        self.sources = [] if sources is None else sources
        self.duration_us = duration_us
        self.seed = seed
        self.stream_scheduler = stream_scheduler
        self.path_scheduler = path_scheduler
        self.background = background

    def validate(self) -> None:
        """Reject what the model cannot represent; every rule lives here."""
        _require(self, ("stream_scheduler", "path_scheduler"), str, "a string")
        _require_list(self, "paths", PathConfig)
        _require_list(self, "sources", DataSourceConfig)
        if not self.paths:
            raise ScenarioError("at least one [path] section is required")
        # each path draws from two RngStreams, ids 2i and 2i + 1
        max_paths = RNG_STREAMS // 2
        if len(self.paths) > max_paths:
            raise ScenarioError(
                f"at most {max_paths} paths, got {len(self.paths)}: each "
                f"takes two of a seed's {RNG_STREAMS} random streams",
                key=("path", max_paths))
        _require(self, ("seed",), int, "an integer")
        _require(self, ("background",), bool, "a boolean")
        _require(self, ("duration_us",), int, "an integer")
        if self.duration_us > MAX_DURATION_US:
            raise ScenarioError(
                f"the run may last at most {MAX_DURATION_US} us "
                f"({MAX_THROUGHPUT_BINS} throughput bins of "
                f"{BIN_WIDTH_US} us)", key="duration_us")
        if self.duration_us <= WARMUP_US:
            raise ScenarioError(
                f"the run must be longer than the {WARMUP_US} us warm-up, "
                f"got duration_us = {self.duration_us}", key="duration_us")
        if self.stream_scheduler not in STREAM_SCHEDULERS:
            raise ScenarioError(
                f"stream_scheduler must be one of {tuple(STREAM_SCHEDULERS)}, "
                f"got {self.stream_scheduler!r}", key="stream_scheduler")
        if self.path_scheduler not in PATH_SCHEDULERS:
            raise ScenarioError(
                f"path_scheduler must be one of {tuple(PATH_SCHEDULERS)}, "
                f"got {self.path_scheduler!r}", key="path_scheduler")
        path_ids = set()
        for i, p in enumerate(self.paths):
            key = ("path", i)
            _require(p, ("loss_rate",), (int, float), "a number", key)
            _require(p, ("ack_loss_enabled",), bool, "a boolean", key)
            _require(p, ("path_id", "owd_us", "rate_bps"), int, "an integer",
                     key)
            if p.owd_us <= 0:
                raise ScenarioError(
                    f"path {p.path_id}: owd_us must be > 0", key=key)
            if p.rate_bps <= 0:
                raise ScenarioError(
                    f"path {p.path_id}: rate_bps must be > 0", key=key)
            if not 0.0 <= p.loss_rate < 1.0:
                raise ScenarioError(
                    f"path {p.path_id}: loss_rate must be in [0, 1)", key=key)
            if p.path_id in path_ids:
                raise ScenarioError(f"duplicate path_id {p.path_id}", key=key)
            path_ids.add(p.path_id)
            # a packet is declared lost 9/8 of an RTT after its send; the
            # serializer backlog it may queue behind (GATE_PACKETS max
            # packets) must fit in that 1/8 margin, or queueing alone
            # fires the loss alarm
            backlog_us = GATE_PACKETS * serialization_us(MAX_PACKET_BYTES,
                                                         p.rate_bps)
            if 8 * backlog_us >= nominal_rtt_us(p):
                raise ScenarioError(
                    f"path {p.path_id}: outside the validity envelope: "
                    f"{GATE_PACKETS} serializations of a {MAX_PACKET_BYTES} B "
                    f"packet take {backlog_us} us, which must be under an "
                    f"eighth of the {nominal_rtt_us(p)} us RTT", key=key)
        # a message is packetized whole when it is generated, so one larger
        # than all paths together can serialize over the run cannot be sent
        # and would only cost memory
        capacity = sum(p.rate_bps for p in self.paths)
        horizon_bits = capacity * self.duration_us
        source_ids = set()
        for i, s in enumerate(self.sources):
            key = ("source", i)
            _require(s, ("priority",), bool, "a boolean", key)
            _require(s, ("source_id", "inter_arrival_us", "message_size_bytes",
                         "start_offset_us"), int, "an integer", key)
            if s.inter_arrival_us <= 0:
                raise ScenarioError(
                    f"source {s.source_id}: inter_arrival_us must be > 0",
                    key=key)
            if s.message_size_bytes <= 0:
                raise ScenarioError(
                    f"source {s.source_id}: message_size_bytes must be > 0",
                    key=key)
            if s.start_offset_us < 0:
                raise ScenarioError(
                    f"source {s.source_id}: start_offset_us must be >= 0",
                    key=key)
            if s.source_id in source_ids:
                raise ScenarioError(f"duplicate source_id {s.source_id}",
                                    key=key)
            source_ids.add(s.source_id)
            if s.message_size_bytes * 8 * 1_000_000 > horizon_bits:
                raise ScenarioError(
                    f"source {s.source_id}: a {s.message_size_bytes} B "
                    f"message exceeds the {horizon_bits // 8_000_000} B all "
                    f"paths together can serialize in {self.duration_us} us",
                    key=key)
        # sources that offer more than the paths carry grow a backlog without
        # bound, and a run's cost grows with its square. The offered bit/s
        # are summed exactly, as num / den; the first source that takes the
        # sum past capacity is named.
        num, den = 0, 1
        for i, s in enumerate(self.sources):
            size = s.message_size_bytes
            wire = size + HEADER_BYTES * -(-size // MAX_PAYLOAD_BYTES)
            num = num * s.inter_arrival_us + 8_000_000 * wire * den
            den *= s.inter_arrival_us
            if num > capacity * den:
                raise ScenarioError(
                    f"source {s.source_id}: the sources up to this one offer "
                    f"{num // den} bit/s on the wire, above the {capacity} "
                    f"bit/s of all paths together", key=("source", i))
        self.seed &= SEED_MASK

    def to_dict(self) -> dict:
        """The config as plain data, with the fixed warm-up and bin width."""
        config = {name: getattr(self, name) for name in self.__slots__}
        config["warmup_us"] = WARMUP_US
        config["bin_width_us"] = BIN_WIDTH_US
        config["paths"] = [
            {name: getattr(p, name) for name in PathConfig.__slots__}
            for p in self.paths]
        config["sources"] = [
            {name: getattr(s, name) for name in DataSourceConfig.__slots__}
            for s in self.sources]
        return config


def _parse_bool(raw: str, line: int) -> bool:
    low = raw.lower()
    if low not in ("true", "false"):
        raise ScenarioError(f"expected a boolean, got {raw!r}", line)
    return low == "true"


def _parse_int(raw: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {raw!r}", line) from None


def _parse_float(raw: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"expected a number, got {raw!r}", line) from None
    if not math.isfinite(value):
        raise ScenarioError(f"expected a finite number, got {raw!r}", line)
    return value


def _parse_text(raw: str, line: int) -> str:
    return raw


# each section's vocabulary: key -> parser of its value; a key is the name
# of the config field it sets
_TOP_KEYS = {"duration_us": _parse_int, "seed": _parse_int,
             "stream_scheduler": _parse_text, "path_scheduler": _parse_text,
             "background": _parse_bool}
_PATH_KEYS = {"owd_us": _parse_int, "rate_bps": _parse_int,
              "loss_rate": _parse_float, "ack_loss_enabled": _parse_bool}
_SOURCE_KEYS = {"inter_arrival_us": _parse_int,
                "message_size_bytes": _parse_int, "priority": _parse_bool,
                "start_offset_us": _parse_int}
_SECTION_KEYS = {"path": _PATH_KEYS, "source": _SOURCE_KEYS}
# the keys each section must set: its fields without a default
_REQUIRED_KEYS = {"path": ("owd_us",),
                  "source": ("inter_arrival_us", "message_size_bytes")}


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Read a scenario file into a validated ScenarioConfig.

    Parsing owns only the file's vocabulary: sections, keys, value syntax
    and the required keys. ScenarioConfig.validate owns every range and
    consistency rule; its ScenarioError is raised again naming the line
    that set the rejected field, or the rejected section's header line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"not UTF-8 text: byte {exc.start} cannot be decoded") from None
    top = {}  # key -> (parsed value, line)
    sections = {"path": [], "source": []}
    current, vocabulary = top, _TOP_KEYS

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                raise ScenarioError(f"unknown section [{section}]", lineno)
            current, vocabulary = {}, _SECTION_KEYS[section]
            sections[section].append((lineno, current))
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in vocabulary:
            raise ScenarioError(f"unknown key {key!r}", lineno)
        if key in current:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        current[key] = (vocabulary[key](value.strip(), lineno), lineno)

    config = ScenarioConfig(paths=[])
    lines: dict[str | tuple[str, int], int] = {}
    for key, (value, ln) in top.items():
        setattr(config, key, value)
        lines[key] = ln

    for section, built, make in (("path", config.paths, PathConfig),
                                 ("source", config.sources, DataSourceConfig)):
        for i, (section_line, keys) in enumerate(sections[section]):
            for required in _REQUIRED_KEYS[section]:
                if required not in keys:
                    raise ScenarioError(f"{section} needs {required}",
                                        section_line)
            built.append(make(i + 1, **{k: v for k, (v, _) in keys.items()}))
            lines[section, i] = section_line

    try:
        config.validate()
    except ScenarioError as exc:
        raise ScenarioError(exc.reason, lines.get(exc.key), exc.key) from None
    return config
