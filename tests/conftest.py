"""Shared test helpers."""
from __future__ import annotations


def drop_data_packets(link, indices) -> None:
    """Make `link` drop the data packets with these 0-based indices, by
    wrapping its `send`, which counts the data packets it takes. The
    wrapped send still runs first, so the serializer and the loss draw
    advance exactly as without the wrapper, and a forced drop is counted
    in `data_dropped` like a random one."""
    send = link.send
    forced = frozenset(indices)
    data_sent = 0

    def forced_send(size_bytes, carries_data, now):
        nonlocal data_sent
        arrival = send(size_bytes, carries_data, now)
        if carries_data:
            index = data_sent
            data_sent += 1
            if index in forced and arrival is not None:
                link.data_dropped += 1
                return None
        return arrival

    link.send = forced_send


def force_data_losses(sim, path_id: int, indices) -> None:
    """Drop these data-packet indices in both directions of one path of a
    built Simulation, before it runs."""
    for node in (sim.server, sim.client):
        drop_data_packets(node.links[path_id], indices)
