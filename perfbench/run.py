"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lint --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program under test is
imported from ``src/``.  A pass sets up, runs and checks one instance of
the workload; passes repeat until ``--seconds`` have gone by, and at
least ``MIN_PASSES`` run.  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are reported, tracing off.  With ``--trace 1`` plain and
traced passes alternate: the per-layer metrics come from the traced
passes, the tracing overhead from both, and the last traced pass's spans
are written to ``perfbench/out/``.  Readable lines come first; the last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out"
MIN_PASSES = 3
#: fewest plain/traced pass pairs in a traced run
MIN_PAIRS = 2
#: the span file keeps at most this many spans of the last traced pass
SPAN_FILE_LIMIT = 200_000
#: End-to-end timings are reported in seconds of a host on which the
#: fixed loop of ``loop_s`` takes this long.  The loop is timed around
#: every pass, so slow drifts in a shared host's speed (about +-20%
#: between runs minutes apart on a shared 2-core host) largely cancel
#: out of the figures.
REFERENCE_LOOP_S = 0.001

clock = time.perf_counter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    source = ROOT / "src"
    if not ((source / "repro" / "__init__.py").is_file()
            and spec_path.is_file()):
        print(f"perfbench: {ROOT} is not a source checkout "
              "(it needs BENCHMARK.json and src/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads

    factory = workloads.WORKLOADS.get(args.workload)
    if factory is None:
        print(f"perfbench: no workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    SCRATCH.mkdir(exist_ok=True)
    workload = factory(args.seed, ROOT, SCRATCH)
    tally = workloads.Tally()
    if args.trace:
        wanted = spec["per_layer"]
        values = traced_run(workload, args.seconds, tally)
    else:
        wanted = spec["end_to_end"]
        values = plain_run(workload, args.seconds, tally)

    for metric in wanted:
        print(f"  {metric['name']:26s} {values[metric['name']]:14.6g} "
              f"{metric['unit']}")
    print(f"  {'error_rate':26s} {tally.failed / tally.attempted:14.6g} "
          f"ratio ({tally.failed} failed of {tally.attempted} attempted)")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0


def one_pass(workload, tally):
    """Set up, run and check one pass: (setup seconds, Pass, wall seconds)."""
    gc.collect()
    began = clock()
    state = workload.setup()
    setup_s = clock() - began
    try:
        result = workload.run(state)
        workload.check(state, result, tally)
        wall = clock() - began
    finally:
        workload.cleanup(state)
    return setup_s, result, wall


def loop_s() -> float:
    """Host seconds of a fixed pure-Python loop (median of five)."""
    samples = []
    for _ in range(5):
        start = clock()
        total = 0
        for value in range(20_000):
            total += value * value
        samples.append(clock() - start)
    return statistics.median(samples)


def plain_run(workload, seconds: float, tally) -> dict[str, float]:
    """End-to-end metrics: medians over the passes, tracing off."""
    setups, passes, scales = [], [], []
    began = clock()
    while len(passes) < MIN_PASSES or clock() - began < seconds:
        before = loop_s()
        setup_s, result, _ = one_pass(workload, tally)
        scale = 2 * REFERENCE_LOOP_S / (before + loop_s())
        setups.append(setup_s * scale)
        passes.append(result)
        scales.append(scale)
    workload.final_check(passes[-1], tally)
    print(f"perfbench {workload.name}: seed {workload.seed}, "
          f"{len(passes)} passes in {clock() - began:.1f} s; host seconds "
          f"scaled by {statistics.median(scales):.4g} (median)")
    for name, unit in workload.own_metrics:
        samples = [sample for p in passes for sample in p.samples[name]]
        print(f"  {name:26s} {statistics.median(samples):14.6g} {unit} "
              f"({_sample_note(samples)}; host seconds)")
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(
            p.seconds * scale for p, scale in zip(passes, scales)),
        "phase_geomean_ms": statistics.median(
            statistics.geometric_mean(p.phases.values()) * 1e3 * scale
            for p, scale in zip(passes, scales)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - tally.failed / tally.attempted,
    }


def traced_run(workload, seconds: float, tally) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes, and the overhead."""
    import layers
    from spans import SpanRecorder

    recorder = SpanRecorder()
    plain_walls, traced_walls, rows = [], [], []
    began = clock()
    while len(rows) < MIN_PAIRS or clock() - began < seconds:
        # alternate which side of a pair runs first
        for traced in (False, True) if len(rows) % 2 == 0 else (True, False):
            if not traced:
                plain_walls.append(one_pass(workload, tally)[2])
                continue
            recorder.reset()
            with recorder.installed(layers.BOUNDARIES):
                _, result, wall = one_pass(workload, tally)
            summary = recorder.summary()
            row = layers.layer_values(summary, recorder.counts)
            row["bench.traced_wall_s"] = wall
            row["bench.span_self_s"] = sum(
                entry["self_s"] for entry in summary.values())
            tally.check(row["bench.span_self_s"] <= wall,
                        "span self times sum to no more than the traced "
                        "wall time")
            rows.append(row)
            traced_walls.append(wall)
    workload.final_check(result, tally)
    values = {name: statistics.median(row[name] for row in rows)
              for name in rows[0]}
    values["bench.trace_overhead"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls))
    path = SCRATCH / f"spans-{workload.name}.tsv"
    written = recorder.write_tsv(path, SPAN_FILE_LIMIT)
    print(f"perfbench {workload.name} (traced): seed {workload.seed}, "
          f"{len(rows)} plain/traced pairs in {clock() - began:.1f} s; "
          f"{written} spans of the last traced pass in "
          f"{path.relative_to(ROOT)}")
    return values


def _sample_note(samples) -> str:
    """Sample count, and the highest percentile with ten samples above it."""
    if len(samples) <= 10:
        return f"median of {len(samples)}"
    ordered = sorted(samples)
    rank = len(ordered) - 10
    return (f"median of {len(ordered)}; p{100 * rank // len(ordered)} "
            f"{ordered[rank - 1]:.6g}")


if __name__ == "__main__":
    sys.exit(main())
