"""Seeded population generator for the ``population`` workload.

Wires N packet-processing pipelines (MAC -> classifier -> crypto -> DMA
-> stats, the catalog's packetproc model) into one abstract-runtime
simulation through the public population API only -- ``create_instance``
and ``relate`` -- with four flow records shared by every pipeline.  Every
MAC gets its own Poisson packet stream in *simulated* microseconds.  The
streams are generated here from the benchmark's seed, so the program
under test receives only the generated stimulus.
"""

from __future__ import annotations

import json
import random

#: flow records shared by every pipeline (the classifier uses pkt_id % 4)
FLOWS = 4
#: (class key letters, identifying attribute) of each pipeline stage
STAGES = (("M", "mac_id"), ("CL", "cl_id"), ("CE", "ce_id"),
          ("D", "dma_id"), ("ST", "st_id"))
#: (from, to, association) links inside one pipeline
LINKS = (("M", "CL", "R1"), ("CL", "CE", "R2"), ("CL", "D", "R3"),
         ("CE", "D", "R4"), ("D", "ST", "R5"))


def poisson_stream(rng: random.Random, count: int, rate_per_ms: float,
                   first_id: int = 1, min_length: int = 64,
                   max_length: int = 1500) -> list[tuple[int, int, int]]:
    """*count* packets ``(time_us, pkt_id, length)`` with exponential gaps."""
    mean_gap_us = 1000.0 / rate_per_ms
    time_us = 0.0
    packets = []
    for index in range(count):
        time_us += rng.expovariate(1.0 / mean_gap_us)
        packets.append((int(time_us), first_id + index,
                        rng.randint(min_length, max_length)))
    return packets


def make_stimulus(seed: int, pipelines: int, packets_per_mac: int,
                  rate_per_ms: float) -> list[list[tuple[int, int, int]]]:
    """One Poisson stream per MAC; packet ids are unique across MACs."""
    rng = random.Random(seed)
    return [
        poisson_stream(rng, packets_per_mac, rate_per_ms,
                       first_id=1 + index * packets_per_mac)
        for index in range(pipelines)
    ]


def stimulus_bytes(stimulus) -> bytes:
    """Canonical bytes of a stimulus: equal seeds give equal bytes."""
    return json.dumps(stimulus, separators=(",", ":")).encode("ascii")


def wire(simulation, pipelines: int) -> list[int]:
    """Create and relate *pipelines* pipelines plus the shared flow records.

    Returns the MAC handle of each pipeline, in creation order.
    """
    macs = []
    for index in range(pipelines):
        handles = {
            key: simulation.create_instance(key, **{identifier: index + 1})
            for key, identifier in STAGES
        }
        for left, right, association in LINKS:
            simulation.relate(handles[left], handles[right], association)
        macs.append(handles["M"])
    for flow in range(FLOWS):
        simulation.create_instance("FR", flow_id=flow)
    return macs


def inject(simulation, macs: list[int], stimulus) -> int:
    """Queue every packet at its MAC as a delayed ``M1``; returns the count."""
    count = 0
    for mac, stream in zip(macs, stimulus, strict=True):
        for time_us, pkt_id, length in stream:
            simulation.inject(mac, "M1", {"pkt_id": pkt_id, "length": length},
                              delay=time_us)
            count += 1
    return count
