"""Unified observability: structured trace export, metrics, critical path.

* :mod:`~repro.obs.export` — versioned JSONL trace serialization with a
  byte-identical round-trip guarantee
* :mod:`~repro.obs.metrics` — the registry ``repro metrics`` fills:
  per-event samples from the runtime, the co-simulation and the bus
  (no-ops unless a registry is :func:`observe`-d), and counts the
  command reads from the objects that keep them
* :mod:`~repro.obs.critical` — longest send→consume→transition chain of
  a recorded run

Surface: ``repro trace`` and ``repro metrics`` (see :mod:`repro.cli`).
"""

from .critical import CriticalPath, CriticalStep, critical_path
from .export import (
    SCHEMA,
    SCHEMA_VERSION,
    TraceSchemaError,
    dump_jsonl,
    load_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    active_registry,
    observe,
    percentile_nearest_rank,
    set_active_registry,
)

__all__ = [
    "Counter",
    "CriticalPath",
    "CriticalStep",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "SCHEMA",
    "SCHEMA_VERSION",
    "TraceSchemaError",
    "active_registry",
    "critical_path",
    "dump_jsonl",
    "load_jsonl",
    "observe",
    "percentile_nearest_rank",
    "set_active_registry",
]
