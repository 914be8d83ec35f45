"""Link emulation: serialization arithmetic, FIFO order, drop behavior."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cwrsim.engine import RngStream
from cwrsim.link import (LinkTransmission, OneWayLink, PathConfig,
                         nominal_rtt_us, serialization_us)


def make_link(owd_us=25_000, rate_bps=100_000_000, loss_rate=0.0, **kw):
    cfg = PathConfig(1, owd_us, rate_bps, loss_rate, **kw)
    return OneWayLink(cfg, RngStream(1, 0))


def test_single_packet_timing():
    # 1350 B at 100 Mbit/s serializes in 108 us; arrival owd later
    link = make_link()
    tx = link.transmit(1350, True, 0)
    assert tx == LinkTransmission(0, 108, 25_108, False)


def test_fifo_serialization_spacing():
    link = make_link()
    first = link.transmit(1350, True, 0)
    second = link.transmit(1350, True, 0)
    assert first.arrival == 25_108
    assert second.send_start == 108
    assert second.arrival == 25_216


def test_serialization_rounds_up():
    assert serialization_us(1350, 100_000_000) == 108
    assert serialization_us(950, 100_000_000) == 76
    assert serialization_us(51, 100_000_000) == 5
    assert serialization_us(50, 100_000_000) == 4


def test_nominal_rtt_doubles_owd():
    assert nominal_rtt_us(PathConfig(1, 25_000)) == 50_000
    assert nominal_rtt_us(PathConfig(1, 10_000)) == 20_000
    assert nominal_rtt_us(PathConfig(2, 50_000)) == 100_000


def test_loss_is_silent():
    link = make_link(loss_rate=0.999999)
    tx = link.transmit(1350, True, 0)
    assert tx.dropped and tx.arrival is None
    # the serializer was still occupied
    assert link.busy_until == 108


def test_forced_loss_indices_drop_exactly_those_packets():
    link = make_link(forced_data_losses=(1, 3))
    results = [link.transmit(1350, True, 0).dropped for _ in range(5)]
    assert results == [False, True, False, True, False]


def test_forced_loss_still_consumes_a_draw():
    plain = make_link(loss_rate=0.3)
    forced = make_link(loss_rate=0.3, forced_data_losses=(0,))
    a = [plain.transmit(1350, True, 0).dropped for _ in range(50)]
    b = [forced.transmit(1350, True, 0).dropped for _ in range(50)]
    assert b[0] is True
    assert a[1:] == b[1:]


@given(st.sets(st.integers(min_value=0, max_value=39)))
def test_lossless_link_send_drops_exactly_the_forced_indices(forced):
    link = make_link(forced_data_losses=tuple(sorted(forced)))
    dropped = {i for i in range(40) if link.send(1350, True, 0) is None}
    assert dropped == forced
    assert link.data_dropped == len(forced)


def test_acks_not_dropped_by_default():
    link = make_link(loss_rate=0.999999)
    assert not link.transmit(50, False, 0).dropped


def test_ack_loss_enabled_applies_loss_to_acks():
    link = make_link(loss_rate=0.999999, ack_loss_enabled=True)
    assert link.transmit(50, False, 0).dropped


def test_config_validation():
    with pytest.raises(ValueError):
        PathConfig(1, 0).validate()
    with pytest.raises(ValueError):
        PathConfig(1, 1000, rate_bps=0).validate()
    with pytest.raises(ValueError):
        PathConfig(1, 1000, loss_rate=1.0).validate()
    with pytest.raises(ValueError):
        OneWayLink(PathConfig(1, 1000), RngStream(1, 0)).transmit(0, True, 0)


@given(st.lists(st.integers(min_value=1, max_value=1350), min_size=1,
                max_size=60),
       st.integers(min_value=1_000_000, max_value=200_000_000))
def test_zero_loss_delivers_in_order_at_most_line_rate(sizes, rate):
    link = make_link(rate_bps=rate)
    arrivals = []
    for size in sizes:
        tx = link.transmit(size, True, 0)
        assert not tx.dropped
        arrivals.append((tx.arrival, size))
    # in order, exactly once
    assert arrivals == sorted(arrivals, key=lambda a: a[0])
    assert len(arrivals) == len(sizes)
    # over any window >= 10 serialization times, goodput stays at or below
    # the configured rate, up to one packet of boundary quantization
    max_ser = serialization_us(1350, rate)
    window = 10 * max_ser
    times = [a for a, _ in arrivals]
    for start in times:
        got = sum(s for a, s in arrivals if start <= a < start + window)
        assert got * 8 * 1_000_000 <= rate * window + 1350 * 8 * 1_000_000
