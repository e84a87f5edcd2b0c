"""Unified observability: structured trace export, metrics, critical path.

* :mod:`~repro.obs.export` — versioned JSONL trace serialization with a
  byte-identical round-trip guarantee
* :mod:`~repro.obs.metrics` — one registry of counters/gauges/histograms
  shared by the runtime, the co-simulation and the build cache; hooks
  are no-ops unless a registry is :func:`observe`-d
* :mod:`~repro.obs.critical` — longest send→consume→transition chain of
  a recorded run

Surface: ``repro trace`` and ``repro metrics`` (see :mod:`repro.cli`).
"""

from .critical import CriticalPath, CriticalStep, critical_path
from .export import (
    SCHEMA,
    SCHEMA_VERSION,
    TraceSchemaError,
    batch_report_trace,
    dump_jsonl,
    load_jsonl,
    read_jsonl,
    write_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
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
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "SCHEMA",
    "SCHEMA_VERSION",
    "TraceSchemaError",
    "active_registry",
    "batch_report_trace",
    "critical_path",
    "dump_jsonl",
    "load_jsonl",
    "observe",
    "percentile_nearest_rank",
    "read_jsonl",
    "set_active_registry",
    "write_jsonl",
]
