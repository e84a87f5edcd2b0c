"""Workload generators — seeded, reproducible stimulus.

The paper's platform would be fed by real traffic; offline we synthesize
it.  Every generator takes an explicit seed so each benchmark row is
reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class PacketStimulus:
    """One packet to inject: arrival time (µs), id and length (bytes)."""

    time_us: int
    pkt_id: int
    length: int


#: packet sizes a Poisson stream draws from, in bytes (Ethernet frames)
MIN_LENGTH = 64
MAX_LENGTH = 1500


def poisson_packets(
    count: int, rate_per_ms: float, seed: int = 0
) -> list[PacketStimulus]:
    """*count* packets with exponential inter-arrivals and random sizes."""
    if rate_per_ms <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    mean_gap_us = 1000.0 / rate_per_ms
    time_us = 0.0
    packets = []
    for index in range(count):
        time_us += rng.expovariate(1.0 / mean_gap_us)
        packets.append(PacketStimulus(
            int(time_us), index + 1, rng.randint(MIN_LENGTH, MAX_LENGTH)))
    return packets


def periodic_packets(
    count: int, period_us: int, length: int = 256
) -> list[PacketStimulus]:
    """A constant-bit-rate stream starting at time zero."""
    return [
        PacketStimulus(i * period_us, i + 1, length) for i in range(count)
    ]


def inject_stimulus(machine, mac_handle: int,
                    packets: list[PacketStimulus]) -> None:
    """Feed a packet list into a machine's MAC as M1 events."""
    for packet in packets:
        machine.inject(
            mac_handle, "M1",
            {"pkt_id": packet.pkt_id, "length": packet.length},
            delay=packet.time_us,
        )
