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
from cwrsim.transport import PathSendState

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def reach():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(TOOLS))
        import reach
        yield reach


def test_probe_finds_a_function_only_tests_call(reach):
    # one short run of two message sources beside background on lossy paths
    cfg = ScenarioConfig(
        paths=[PathConfig(1, 25_000, loss_rate=0.004),
               PathConfig(2, 25_000, loss_rate=0.004)],
        sources=[DataSourceConfig(1, 100_000, 10_000),
                 DataSourceConfig(2, 100_000, 5_000)],
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


def test_branch_report_lists_a_test_that_never_changed_its_answer(reach):
    # lossy paths without ack loss: every ack is for a packet still in the
    # ledger, while a path's loss alarm is armed both anew and over an
    # earlier one
    cfg = ScenarioConfig(
        paths=[PathConfig(1, 25_000, loss_rate=0.004),
               PathConfig(2, 25_000, loss_rate=0.004)],
        sources=[DataSourceConfig(1, 100_000, 10_000)],
        duration_us=1_100_000, seed=3)
    arcs = {}
    reach.probe([cfg], (), arcs)

    def test_line(fn, text):
        source, first = inspect.getsourcelines(fn)
        [line] = [first + i for i, t in enumerate(source) if text in t]
        return f"{inspect.getsourcefile(fn)}:{line}"

    found = {f"{name}:{node.lineno}": never
             for name in arcs
             for node, never in reach.one_sided_tests(name, arcs[name])}
    assert found[test_line(PathSendState.ack_packet,
                           "if entry is None:")] is True
    assert test_line(Node._arm_alarm,
                     "if ps.alarm_entry is not None:") not in found
    report = reach.branch_report(arcs)
    assert any(line.endswith(" PathSendState.ack_packet: never True")
               for line in report)


def test_stale_rtx_config_reaches_the_stale_retransmission_continue(reach):
    # the identity sweep keeps this config for one branch: a stream in the
    # send pass whose queued retransmissions have all gone stale
    from identity_sweep import stale_rtx_config

    missed = reach.probe([stale_rtx_config()])
    source, first = inspect.getsourcelines(Node.try_send)
    # the `continue` of the branch with neither an owed retransmission nor
    # data to send
    [line] = [first + i for i, text in enumerate(source)
              if text.strip() == "continue"
              and source[i - 1].strip() == "else:"]
    assert line not in missed[inspect.getsourcefile(Node.try_send)]
