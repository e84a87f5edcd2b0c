"""Partition sweeps — "measure, then move the marks".

Drives the full paper workflow end to end, once per candidate partition:

    marks -> compile -> co-simulate under a fixed workload -> measure

The stimulus and the measurement code never change between partitions;
only the marking file does.  That invariance *is* the claim of paper
section 4, and experiment E4 reports the resulting latency / throughput
/ utilization table.  Both are read from the run's trace: a packet's
latency runs from its ``M1`` arrival to the ``ST1`` consumption it
caused, found through the trace's
:class:`~repro.runtime.causality.CausalIndex`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.marks.partition import marks_for_partition
from repro.mda.compiler import ModelCompiler
from repro.obs.metrics import percentile_nearest_rank
from repro.runtime.causality import CausalIndex
from repro.runtime.tracing import Trace
from repro.xuml.model import Model

from .config import CoSimConfig
from .engine import US_TO_NS, CoSimMachine
from .workload import PacketStimulus, inject_stimulus


@dataclass
class PartitionMeasurement:
    """One row of the E4 partition sweep."""

    hardware_classes: tuple[str, ...]
    offered_packets: int
    completed: int
    mean_latency_ns: float
    p99_latency_ns: float
    throughput_per_s: float
    cpu_utilization: float
    bus_utilization: float
    bus_messages: int
    makespan_ns: int
    extras: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return "+".join(self.hardware_classes) or "(all software)"


def packet_timings(trace: Trace) -> list[tuple[int, int]]:
    """``(arrival_ns, completed_ns)`` per completed packet, in completion
    order.

    A packet is an ``M1`` signal sent by the environment; it arrives its
    ``delay`` after the send.  It completes at the first ``ST1``
    consumption whose causal root it is.
    """
    index = CausalIndex(trace)
    samples: list[tuple[int, int]] = []
    done: set[int] = set()
    for _, time, sequence, label, _, _ in index.consumptions:
        if label != "ST1":
            continue
        root = index.root_of(sequence)
        if root is None or root in done:
            continue
        _, sent_at, root_label, _, delay = index.sent[root]
        if root_label == "M1":
            done.add(root)
            samples.append((sent_at + delay * US_TO_NS, time))
    return samples


def measure_partition(
    model: Model,
    hardware_classes: tuple[str, ...],
    packets: list[PacketStimulus],
    config: CoSimConfig | None = None,
    populate: Callable[[CoSimMachine], dict] | None = None,
    horizon_us: int | None = None,
) -> PartitionMeasurement:
    """Compile *model* with the given classes in hardware and measure it.

    *populate* builds the instance population on the machine and returns
    a handle map containing at least ``"M"`` (the stimulus entry point);
    by default the packet-processor population is used.
    """
    component = model.components[0]
    marks = marks_for_partition(component, tuple(hardware_classes))
    build = ModelCompiler(model).compile(marks)
    machine = CoSimMachine(build, config)

    if populate is None:
        from repro.models import packetproc
        handles = packetproc.populate(machine)
    else:
        handles = populate(machine)

    inject_stimulus(machine, handles["M"], packets)
    machine.run(horizon_us=horizon_us)

    samples = packet_timings(machine.trace)
    latencies = [end - start for start, end in samples]
    throughput = 0.0
    if len(samples) > 1 and samples[-1][1] != samples[0][1]:
        span_s = (samples[-1][1] - samples[0][1]) / 1e9
        throughput = (len(samples) - 1) / span_s
    utilization = machine.utilization_report()
    return PartitionMeasurement(
        hardware_classes=tuple(hardware_classes),
        offered_packets=len(packets),
        completed=len(samples),
        mean_latency_ns=statistics.fmean(latencies) if latencies
        else float("nan"),
        p99_latency_ns=percentile_nearest_rank(latencies, 0.99),
        throughput_per_s=throughput,
        cpu_utilization=utilization["cpu"],
        bus_utilization=utilization["bus"],
        bus_messages=machine.bus.stats.messages,
        makespan_ns=machine.now,
        extras={"utilization": utilization},
    )


def sweep_partitions(
    model: Model,
    candidates: Iterable[tuple[str, ...]],
    packets: list[PacketStimulus],
    config: CoSimConfig | None = None,
    populate: Callable[[CoSimMachine], dict] | None = None,
) -> list[PartitionMeasurement]:
    """Measure every candidate partition under one fixed workload."""
    return [
        measure_partition(model, candidate, packets, config, populate)
        for candidate in candidates
    ]


def best_partition(
    measurements: list[PartitionMeasurement],
    objective: str = "mean_latency_ns",
) -> PartitionMeasurement:
    """The sweep winner under an objective (lower is better, except
    throughput where higher wins)."""
    if not measurements:
        raise ValueError("no measurements to choose from")
    complete = [m for m in measurements
                if m.completed == m.offered_packets] or measurements
    if objective == "throughput_per_s":
        return max(complete, key=lambda m: m.throughput_per_s)
    return min(complete, key=lambda m: getattr(m, objective))
