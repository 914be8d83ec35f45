"""tools/reach.py: the probe of the src/ lines that runs leave unreached."""
from __future__ import annotations

import inspect
from pathlib import Path

import pytest

from cwrsim import metrics
from cwrsim.link import PathConfig
from cwrsim.scenario import ScenarioConfig
from cwrsim.simulation import Node
from cwrsim.traffic import DataSourceConfig

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def reach():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(TOOLS))
        import reach
        yield reach


def test_probe_finds_a_function_only_tests_call(reach):
    # one short run of messages of both classes beside background on lossy
    # paths: under pfifo, background ranks ahead of a non-priority message
    cfg = ScenarioConfig(
        paths=[PathConfig(1, 25_000, loss_rate=0.004),
               PathConfig(2, 25_000, loss_rate=0.004)],
        sources=[DataSourceConfig(1, 100_000, 10_000),
                 DataSourceConfig(2, 100_000, 5_000, priority=False)],
        duration_us=1_100_000, seed=3)
    missed = reach.probe([cfg])
    gap_file = inspect.getsourcefile(metrics.max_ccdf_gap)
    gap_body = {n for n, name in reach.function_lines(gap_file).items()
                if name == "max_ccdf_gap"}
    assert gap_body and gap_body <= missed[gap_file]
    send_file = inspect.getsourcefile(Node.try_send)
    source, first = inspect.getsourcelines(Node.try_send)
    sends = {first + i for i, text in enumerate(source)
             if "self._transmit(" in text}
    assert len(sends) == 1 and sends <= reach.function_lines(send_file).keys()
    assert not sends & missed[send_file]
    report = reach.report(missed)
    assert any(line.endswith(".py:" + f"{min(gap_body)}-{max(gap_body)}"
                             " max_ccdf_gap") for line in report)
