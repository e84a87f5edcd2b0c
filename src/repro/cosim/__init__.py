"""Co-simulation of the partitioned SoC (the paper's "prototype runs").

* :class:`CoSimMachine` — timed execution of a compiled build: one CPU,
  concurrent hardware blocks, a shared arbitrated bus carrying generated
  interface messages
* :class:`CoSimConfig` — the documented platform timing model
* :func:`measure_partition` / :func:`sweep_partitions` — marks ->
  compile -> co-simulate -> latency and throughput read from the trace
"""

from .bus import Bus, BusRequest, BusStats
from .config import CoSimConfig
from .engine import CoSimMachine, ResourceStats, US_TO_NS
from .faults import (
    NO_FAULT,
    FaultDecision,
    FaultError,
    FaultPlan,
    FaultRates,
    FaultStats,
)
from .report import (
    measurements_to_csv,
    render_fault_stats,
    render_table,
    write_csv,
)
from .sweep import (
    PartitionMeasurement,
    best_partition,
    measure_partition,
    sweep_partitions,
)
from .workload import (
    PacketStimulus,
    bursty_packets,
    inject_stimulus,
    periodic_packets,
    poisson_packets,
)

__all__ = [
    "Bus",
    "BusRequest",
    "BusStats",
    "CoSimConfig",
    "CoSimMachine",
    "FaultDecision",
    "FaultError",
    "FaultPlan",
    "FaultRates",
    "FaultStats",
    "NO_FAULT",
    "PacketStimulus",
    "PartitionMeasurement",
    "ResourceStats",
    "US_TO_NS",
    "best_partition",
    "bursty_packets",
    "inject_stimulus",
    "measure_partition",
    "measurements_to_csv",
    "periodic_packets",
    "poisson_packets",
    "render_fault_stats",
    "render_table",
    "sweep_partitions",
    "write_csv",
]
