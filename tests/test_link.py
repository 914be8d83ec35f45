"""Link emulation: serialization arithmetic, FIFO order, drop behavior."""
from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from conftest import drop_data_packets
from cwrsim.engine import RngStream
from cwrsim.link import OneWayLink, PathConfig, nominal_rtt_us, serialization_us
from cwrsim.scenario import ScenarioConfig, ScenarioError


def make_link(owd_us=25_000, rate_bps=100_000_000, loss_rate=0.0, **kw):
    cfg = PathConfig(1, owd_us, rate_bps, loss_rate, **kw)
    return OneWayLink(cfg, RngStream(1, 0))


def test_single_packet_timing():
    # 1350 B at 100 Mbit/s serializes in 108 us; arrival owd later
    link = make_link()
    assert link.send(1350, True, 0) == 25_108
    assert link.busy_until == 108


def test_fifo_serialization_spacing():
    link = make_link()
    assert link.send(1350, True, 0) == 25_108
    # the second packet starts when the first leaves the serializer
    assert link.busy_until == 108
    assert link.send(1350, True, 0) == 25_216
    assert link.busy_until == 216


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
    assert link.send(1350, True, 0) is None
    # the serializer was still occupied
    assert link.busy_until == 108


def forced_link(indices, **kw):
    link = make_link(**kw)
    drop_data_packets(link, indices)
    return link


def test_forced_loss_indices_drop_exactly_those_packets():
    link = forced_link((1, 3))
    results = [link.send(1350, True, 0) is None for _ in range(5)]
    assert results == [False, True, False, True, False]


def test_forced_loss_still_consumes_a_draw():
    plain = make_link(loss_rate=0.3)
    forced = forced_link((0,), loss_rate=0.3)
    a = [plain.send(1350, True, 0) is None for _ in range(50)]
    b = [forced.send(1350, True, 0) is None for _ in range(50)]
    assert b[0] is True
    assert a[1:] == b[1:]


@given(st.sets(st.integers(min_value=0, max_value=39)))
def test_lossless_link_send_drops_exactly_the_forced_indices(forced):
    link = forced_link(forced)
    dropped = {i for i in range(40) if link.send(1350, True, 0) is None}
    assert dropped == forced
    assert link.data_dropped == len(forced)


def test_forced_drops_leave_every_other_packet_as_its_unwrapped_twin_sends_it():
    # both links draw losses from the same RngStream; one packet in three is
    # an ack, which a forced index never counts
    forced = {0, 2, 5, 9, 14}
    twin = make_link(loss_rate=0.3)
    link = forced_link(forced, loss_rate=0.3)
    data_index = 0
    forced_drops = 0
    for i in range(45):
        carries_data = i % 3 != 2
        size = 1350 if carries_data else 50
        now = 97 * i
        expected = twin.send(size, carries_data, now)
        arrival = link.send(size, carries_data, now)
        if carries_data and data_index in forced:
            assert arrival is None
            forced_drops += expected is not None
        else:
            assert arrival == expected
        if not carries_data:
            assert arrival is not None
        assert link.busy_until == twin.busy_until
        data_index += carries_data
    assert data_index == 30 and forced_drops > 0
    assert link.data_dropped == twin.data_dropped + forced_drops


def test_loss_draw_edge_rates():
    # a drop is one draw of the link's stream against loss_rate
    lossless = make_link(loss_rate=0.0)
    assert all(lossless.send(1350, True, 0) is not None for _ in range(100))
    lossy = make_link(loss_rate=0.999999)
    assert all(lossy.send(1350, True, 0) is None for _ in range(100))


def test_loss_rate_matches_probability():
    # binomial(1e6, 5e-4): mean 500, the interval is ~6.7 sigma wide
    link = OneWayLink(PathConfig(1, 25_000, loss_rate=0.0005),
                      RngStream(12345, 0))
    for _ in range(1_000_000):
        link.send(1350, True, 0)
    assert 350 <= link.data_dropped <= 650


def test_acks_not_dropped_by_default():
    link = make_link(loss_rate=0.999999)
    assert link.send(50, False, 0) is not None


def test_ack_loss_enabled_applies_loss_to_acks():
    link = make_link(loss_rate=0.999999, ack_loss_enabled=True)
    assert link.send(50, False, 0) is None


@pytest.mark.parametrize("cfg, message", [
    (PathConfig(1, 0), "path 1: owd_us must be > 0"),
    (PathConfig(1, 1000, rate_bps=0), "path 1: rate_bps must be > 0")])
def test_config_validation(cfg, message):
    # a link trusts its config: the scenario rejects it, naming the path
    with pytest.raises(ScenarioError, match=message) as info:
        ScenarioConfig(paths=[cfg]).validate()
    assert info.value.key == ("path", 0)


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, -0.5])
def test_loss_rate_outside_the_unit_interval_rejected(rate):
    # a link trusts its config: the scenario rejects it, naming the path
    cfg = ScenarioConfig(paths=[PathConfig(1, 25_000),
                                PathConfig(2, 25_000, loss_rate=rate)])
    with pytest.raises(ScenarioError,
                       match=r"path 2: loss_rate must be in \[0, 1\)") as info:
        cfg.validate()
    assert info.value.key == ("path", 1)


@given(st.lists(st.integers(min_value=1, max_value=1350), min_size=1,
                max_size=60),
       st.integers(min_value=1_000_000, max_value=200_000_000))
def test_zero_loss_delivers_in_order_at_most_line_rate(sizes, rate):
    link = make_link(rate_bps=rate)
    arrivals = []
    for size in sizes:
        arrival = link.send(size, True, 0)
        assert arrival is not None
        arrivals.append((arrival, size))
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


# Sends interleaved over two links: (which link, packet size, carries data,
# microseconds since the previous send).
link_sends = st.lists(st.tuples(
    st.integers(min_value=0, max_value=1),
    st.one_of(st.integers(min_value=1, max_value=1350),
              st.sampled_from((50, 51))),
    st.booleans(), st.integers(min_value=0, max_value=20_000)),
    min_size=1, max_size=80)
link_rates = st.integers(min_value=1_000_000, max_value=1_000_000_000)


@given(link_sends, link_rates, link_rates)
# the same sizes on links 100x apart in rate: a serialization time kept per
# size for both links would give one of them the other's
@example([(0, 1350, True, 0), (1, 1350, True, 0), (1, 50, False, 0),
          (0, 50, False, 0)], 1_000_000, 100_000_000)
def test_arrival_is_start_plus_serialization_plus_delay(sends, rate_a, rate_b):
    links = [make_link(owd_us=25_000, rate_bps=rate_a),
             make_link(owd_us=7_000, rate_bps=rate_b)]
    busy = [0, 0]
    now = 0
    for which, size, carries_data, step in sends:
        now += step
        link = links[which]
        start = max(now, busy[which])
        busy[which] = start + serialization_us(size, link.rate_bps)
        assert link.send(size, carries_data, now) == busy[which] + link.owd_us
        assert link.busy_until == busy[which]
