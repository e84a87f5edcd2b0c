"""Sweep reporting — tables and CSV export of partition measurements.

One renderer shared by the CLI, the examples and the benches, plus CSV
export so sweep results feed spreadsheets and plotting scripts.
"""

from __future__ import annotations

import csv
import io

from .faults import FaultStats
from .sweep import PartitionMeasurement

_CSV_COLUMNS = (
    "partition", "offered_packets", "completed", "mean_latency_ns",
    "p99_latency_ns", "throughput_per_s", "cpu_utilization",
    "bus_utilization", "bus_messages", "makespan_ns",
)


def render_table(measurements: list[PartitionMeasurement]) -> str:
    """The fixed-width sweep table used everywhere."""
    lines = [
        f"{'partition':18s} {'mean lat':>10s} {'p99 lat':>10s} "
        f"{'thr/s':>9s} {'cpu':>5s} {'bus':>6s}"
    ]
    for m in measurements:
        lines.append(
            f"{m.label:18s} {m.mean_latency_ns / 1000:8.1f}us "
            f"{m.p99_latency_ns / 1000:8.1f}us "
            f"{m.throughput_per_s:9.0f} {m.cpu_utilization:5.2f} "
            f"{m.bus_utilization:6.3f}"
        )
    return "\n".join(lines)


def measurements_to_csv(measurements: list[PartitionMeasurement]) -> str:
    """CSV text, one row per measurement, stable column order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for m in measurements:
        writer.writerow([
            m.label, m.offered_packets, m.completed,
            f"{m.mean_latency_ns:.1f}", f"{m.p99_latency_ns:.1f}",
            f"{m.throughput_per_s:.1f}", f"{m.cpu_utilization:.4f}",
            f"{m.bus_utilization:.4f}", m.bus_messages, m.makespan_ns,
        ])
    return buffer.getvalue()


def render_fault_stats(stats: FaultStats, label: str = "faults") -> str:
    """One-paragraph summary of a run's fault injection and recovery."""
    lines = [
        f"{label}: {stats.injected} injected "
        f"(drop {stats.injected_drops}, corrupt {stats.injected_corruptions},"
        f" dup {stats.injected_duplicates}, delay {stats.injected_delays})",
        f"  detected {stats.detected}  retransmissions "
        f"{stats.retransmissions}  recovered {stats.recovered}",
        f"  lost {stats.lost} (critical {stats.critical_lost})  "
        f"dup-discarded {stats.duplicates_discarded}  "
        f"delivered-corrupted {stats.delivered_corrupted}",
    ]
    return "\n".join(lines)


def write_csv(measurements: list[PartitionMeasurement], path) -> str:
    """Write the CSV to *path*; returns the path written."""
    import pathlib

    target = pathlib.Path(path)
    target.write_text(measurements_to_csv(measurements))
    return str(target)
