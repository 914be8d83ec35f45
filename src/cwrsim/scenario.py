"""Scenario configuration: flat key=value files with repeated [path]/[source] sections."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .engine import SEED_MASK
from .link import PathConfig
from .scheduling import PATH_SCHEDULERS, STREAM_SCHEDULERS
from .traffic import DataSourceConfig

_TOP_KEYS = {"duration_s", "duration_us", "seed", "stream_scheduler",
             "path_scheduler", "background"}
_PATH_KEYS = {"owd_us", "rtt_us", "rate_bps", "loss_rate", "ack_loss_enabled"}
_SOURCE_KEYS = {"inter_arrival_us", "message_size_bytes", "priority",
                "start_offset_us"}
# the metrics allocate every throughput bin of the horizon before the run
# starts; at the default 100 ms bin this allows 10,000 s
MAX_THROUGHPUT_BINS = 100_000


class ScenarioError(ValueError):
    """Parse or validation failure, with the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_horizon(duration_us: int | float, bin_width_us: int,
                   line: int | None = None) -> None:
    """Reject a horizon of more than MAX_THROUGHPUT_BINS throughput bins."""
    longest = MAX_THROUGHPUT_BINS * bin_width_us
    if duration_us > longest:
        raise ScenarioError(
            f"the run may last at most {longest} us "
            f"({MAX_THROUGHPUT_BINS} throughput bins of {bin_width_us} us)",
            line)


@dataclass
class ScenarioConfig:
    """Everything one run needs: paths, sources, schedulers, seed, horizon."""

    paths: list[PathConfig]
    sources: list[DataSourceConfig] = field(default_factory=list)
    duration_us: int = 30_000_000
    seed: int = 1
    stream_scheduler: str = "pfifo"
    path_scheduler: str = "cwr"
    background: bool = True
    warmup_us: int = 1_000_000
    bin_width_us: int = 100_000

    def validate(self) -> None:
        if not self.paths:
            raise ScenarioError("at least one [path] section is required")
        if self.duration_us <= 0:
            raise ScenarioError("duration must be positive")
        if not 0 <= self.warmup_us < self.duration_us:
            raise ScenarioError(
                f"warmup_us must be in [0, duration_us = {self.duration_us}), "
                f"got {self.warmup_us}")
        if self.bin_width_us <= 0:
            raise ScenarioError("bin_width_us must be positive")
        _check_horizon(self.duration_us, self.bin_width_us)
        if self.stream_scheduler not in STREAM_SCHEDULERS:
            raise ScenarioError(
                f"stream_scheduler must be one of {STREAM_SCHEDULERS}")
        if self.path_scheduler not in PATH_SCHEDULERS:
            raise ScenarioError(
                f"path_scheduler must be one of {PATH_SCHEDULERS}")
        seen = set()
        for p in self.paths:
            p.validate()
            if p.path_id in seen:
                raise ScenarioError(f"duplicate path_id {p.path_id}")
            seen.add(p.path_id)
        for s in self.sources:
            s.validate()
        self.seed &= SEED_MASK

    def to_dict(self) -> dict:
        return {
            "duration_us": self.duration_us,
            "seed": self.seed,
            "stream_scheduler": self.stream_scheduler,
            "path_scheduler": self.path_scheduler,
            "background": self.background,
            "warmup_us": self.warmup_us,
            "bin_width_us": self.bin_width_us,
            "paths": [{
                "path_id": p.path_id, "owd_us": p.owd_us, "rate_bps": p.rate_bps,
                "loss_rate": p.loss_rate, "ack_loss_enabled": p.ack_loss_enabled,
            } for p in self.paths],
            "sources": [{
                "source_id": s.source_id,
                "inter_arrival_us": s.inter_arrival_us,
                "message_size_bytes": s.message_size_bytes,
                "priority": s.priority,
                "start_offset_us": s.start_offset_us,
            } for s in self.sources],
        }


def _parse_bool(raw: str, line: int) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ScenarioError(f"expected a boolean, got {raw!r}", line)


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


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Read a scenario file; raises ScenarioError with a line number on defects."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"not UTF-8 text: byte {exc.start} cannot be decoded") from None
    top: dict[str, tuple[str, int]] = {}
    path_sections: list[tuple[int, dict[str, tuple[str, int]]]] = []
    source_sections: list[tuple[int, dict[str, tuple[str, int]]]] = []
    current: dict[str, tuple[str, int]] | None = top
    current_keys = _TOP_KEYS

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section == "path":
                current = {}
                current_keys = _PATH_KEYS
                path_sections.append((lineno, current))
            elif section == "source":
                current = {}
                current_keys = _SOURCE_KEYS
                source_sections.append((lineno, current))
            else:
                raise ScenarioError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in current_keys:
            raise ScenarioError(f"unknown key {key!r}", lineno)
        if key in current:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        current[key] = (value, lineno)

    config = ScenarioConfig(paths=[])

    if "duration_s" in top and "duration_us" in top:
        raise ScenarioError("give duration_s or duration_us, not both",
                            top["duration_us"][1])
    if "duration_s" in top or "duration_us" in top:
        # the default horizon is inside both bounds; only a duration line
        # can leave them
        key = "duration_s" if "duration_s" in top else "duration_us"
        raw, ln = top[key]
        if key == "duration_s":
            seconds = _parse_float(raw, ln)
            if seconds <= 0:
                raise ScenarioError("duration_s must be positive", ln)
            micros = seconds * 1_000_000  # inf past the float range
        else:
            micros = _parse_int(raw, ln)
        _check_horizon(micros, config.bin_width_us, ln)
        config.duration_us = int(round(micros))
        if config.duration_us <= config.warmup_us:
            raise ScenarioError(
                f"the run must be longer than the {config.warmup_us} us "
                f"warm-up, got {config.duration_us} us", ln)
    if "seed" in top:
        raw, ln = top["seed"]
        config.seed = _parse_int(raw, ln)
    if "stream_scheduler" in top:
        raw, ln = top["stream_scheduler"]
        if raw not in STREAM_SCHEDULERS:
            raise ScenarioError(
                f"stream_scheduler must be one of {STREAM_SCHEDULERS}, "
                f"got {raw!r}", ln)
        config.stream_scheduler = raw
    if "path_scheduler" in top:
        raw, ln = top["path_scheduler"]
        if raw not in PATH_SCHEDULERS:
            raise ScenarioError(
                f"path_scheduler must be one of {PATH_SCHEDULERS}, got {raw!r}",
                ln)
        config.path_scheduler = raw
    if "background" in top:
        raw, ln = top["background"]
        config.background = _parse_bool(raw, ln)

    for section_line, keys in path_sections:
        if "owd_us" in keys and "rtt_us" in keys:
            raise ScenarioError("give owd_us or rtt_us, not both",
                                keys["rtt_us"][1])
        if "owd_us" in keys:
            owd = _parse_int(*keys["owd_us"])
        elif "rtt_us" in keys:
            raw, ln = keys["rtt_us"]
            rtt = _parse_int(raw, ln)
            if rtt % 2:
                # forward and reverse one-way delays are equal whole us
                raise ScenarioError(f"rtt_us must be even, got {rtt}", ln)
            owd = rtt // 2
        else:
            raise ScenarioError("path needs owd_us or rtt_us", section_line)
        pcfg = PathConfig(path_id=len(config.paths) + 1, owd_us=owd)
        if "rate_bps" in keys:
            pcfg.rate_bps = _parse_int(*keys["rate_bps"])
        if "loss_rate" in keys:
            raw, ln = keys["loss_rate"]
            pcfg.loss_rate = _parse_float(raw, ln)
            if not 0.0 <= pcfg.loss_rate < 1.0:
                raise ScenarioError("loss_rate must be in [0, 1)", ln)
        if "ack_loss_enabled" in keys:
            pcfg.ack_loss_enabled = _parse_bool(*keys["ack_loss_enabled"])
        try:
            pcfg.validate()
        except ValueError as exc:
            raise ScenarioError(str(exc), section_line) from None
        config.paths.append(pcfg)

    for section_line, keys in source_sections:
        for required in ("inter_arrival_us", "message_size_bytes"):
            if required not in keys:
                raise ScenarioError(f"source needs {required}", section_line)
        scfg = DataSourceConfig(
            source_id=len(config.sources) + 1,
            inter_arrival_us=_parse_int(*keys["inter_arrival_us"]),
            message_size_bytes=_parse_int(*keys["message_size_bytes"]),
        )
        if "priority" in keys:
            scfg.priority = _parse_bool(*keys["priority"])
        if "start_offset_us" in keys:
            scfg.start_offset_us = _parse_int(*keys["start_offset_us"])
        try:
            scfg.validate()
        except ValueError as exc:
            raise ScenarioError(str(exc), section_line) from None
        config.sources.append(scfg)

    config.validate()
    return config
