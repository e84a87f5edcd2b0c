"""E9 — the build cache makes the paper's cheap-retarget claim measurable.

E2 showed a partition change costs one mark flip instead of hundreds of
hand-edited lines; E9 shows the *regeneration* after that flip is cheap
too.  Shape to reproduce: a warm-cache single-mark retarget is at least
5× faster than a cold full compile while recompiling strictly fewer
classes and producing byte-identical artifacts; and the batch scheduler
compiling the catalog × mark-variant matrix with 4 workers beats 1
worker on wall clock.

Timing uses best-of-N medians over the same inputs; byte-identity and
class-reuse assertions are exact, so a cache bug fails the bench even
on a noisy machine.

The parallel half of the claim needs hardware that can express it: on a
box with one usable core, four CPU-bound workers cannot beat one, so
there the bench asserts the scheduler's degradation is bounded (within
2.5x of serial) and that the results are still digest-identical —
correctness never depends on the core count.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.build import (
    ArtifactStore,
    IncrementalCompiler,
    batch_to_csv,
    catalog_matrix,
    clear_manifest_memo,
    run_batch,
)
from repro.exec import clear_lowering_cache
from repro.marks import marks_for_partition
from repro.mda import ModelCompiler
from repro.models import build_model

from conftest import print_table

MODEL = "elevator"
ROUNDS = 5
PARALLEL_JOBS = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _median_time(fn, rounds: int = ROUNDS) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_experiment(tmp_path):
    model = build_model(MODEL)
    component = model.components[0]
    keys = sorted(component.class_keys)
    marks_a = marks_for_partition(component, (keys[0],))
    marks_b = marks_for_partition(component, (keys[1],))

    # --- cold: the status quo, a full compile per retarget -------------
    def cold_compile():
        # ModelCompiler reads the in-process lowering cache; a cold
        # compile parses, analyzes and lowers from scratch
        clear_lowering_cache()
        return ModelCompiler(model).compile(marks_b)

    clear_manifest_memo()
    cold_s = _median_time(cold_compile)
    cold_build = cold_compile()

    # --- warm: the cache has seen partition A; retarget to B -----------
    clear_manifest_memo()
    store = ArtifactStore(tmp_path / "cache")
    compiler = IncrementalCompiler(model, store=store)
    compiler.compile(marks_a)
    first_start = time.perf_counter()
    warm_build = compiler.compile(marks_b)
    first_retarget_s = time.perf_counter() - first_start
    retarget_stats = compiler.last_stats
    # steady state: every piece of both partitions is cached
    warm_s = _median_time(lambda: compiler.compile(marks_b))

    # --- parallel: the full catalog matrix, 1 worker vs 4 --------------
    matrix = catalog_matrix()
    clear_manifest_memo()
    serial = min(
        (run_batch(matrix, jobs=1)
         for _ in range(3)), key=lambda r: r.elapsed_s)
    parallel = min(
        (run_batch(matrix, jobs=PARALLEL_JOBS)
         for _ in range(3)), key=lambda r: r.elapsed_s)

    # and the cached batch: second run over one shared cache directory
    cache_dir = str(tmp_path / "batch-cache")
    run_batch(matrix, jobs=PARALLEL_JOBS, cache_dir=cache_dir)
    cached = run_batch(matrix, jobs=PARALLEL_JOBS, cache_dir=cache_dir)

    return {
        "cold_s": cold_s,
        "first_retarget_s": first_retarget_s,
        "warm_s": warm_s,
        "cold_build": cold_build,
        "warm_build": warm_build,
        "retarget_stats": retarget_stats,
        "matrix": matrix,
        "serial": serial,
        "parallel": parallel,
        "cached": cached,
    }


def test_e9_build_cache(benchmark, tmp_path):
    results = benchmark.pedantic(
        lambda: run_experiment(tmp_path), rounds=1, iterations=1)

    cold_s = results["cold_s"]
    warm_s = results["warm_s"]
    first_s = results["first_retarget_s"]
    stats = results["retarget_stats"]
    serial = results["serial"]
    parallel = results["parallel"]
    cached = results["cached"]
    cores = _usable_cores()

    print_table(
        f"E9: build cache — cold vs warm retarget ({MODEL}), "
        f"batch x{len(results['matrix'])} jobs",
        f"{'measure':34s} {'value':>12s}",
        [
            f"{'cold full compile':34s} {cold_s * 1000:10.2f}ms",
            f"{'first warm retarget (1 mark)':34s} "
            f"{first_s * 1000:10.2f}ms",
            f"{'steady warm retarget':34s} {warm_s * 1000:10.2f}ms",
            f"{'speedup (cold/warm)':34s} {cold_s / warm_s:11.1f}x",
            f"{'classes recompiled on retarget':34s} "
            f"{stats.classes_compiled:3d} of {stats.classes_total:3d}",
            f"{'usable cpu cores':34s} {cores:12d}",
            f"{'batch serial (1 worker)':34s} "
            f"{serial.elapsed_s * 1000:10.0f}ms",
            f"{'batch parallel (4 workers)':34s} "
            f"{parallel.elapsed_s * 1000:10.0f}ms",
            f"{'parallel speedup':34s} "
            f"{serial.elapsed_s / parallel.elapsed_s:11.2f}x",
            f"{'second-run cache hit rate':34s} "
            f"{cached.hit_rate * 100:10.1f}%",
        ],
    )

    # shape: warm retarget produces byte-identical artifacts to a cold
    # full build of the same marks
    assert results["warm_build"].artifacts == \
        results["cold_build"].artifacts

    # shape: the retarget recompiled strictly fewer classes — only the
    # two classes whose side changed (A's class back to sw, B's to hw)
    assert 0 < stats.classes_compiled < stats.classes_total
    assert stats.classes_reused == stats.classes_total - \
        stats.classes_compiled
    assert stats.manifest_reused

    # shape: the cached retarget is >= 5x faster than the cold compile
    assert cold_s >= 5 * warm_s, (
        f"warm retarget {warm_s * 1000:.2f}ms not 5x faster than "
        f"cold {cold_s * 1000:.2f}ms")

    # shape: 4 workers beat 1 worker on the catalog matrix — wherever
    # the hardware has more than one core to run them on.  On a
    # single-core box the same assertion would measure the scheduler's
    # contention, not its speedup, so there the bound is that fanning
    # out costs at most 2.5x serial while staying digest-identical.
    assert not serial.failed and not parallel.failed
    assert [r.digest for r in serial.results] == \
        [r.digest for r in parallel.results]
    if cores >= 2:
        assert parallel.elapsed_s < serial.elapsed_s, (
            f"parallel {parallel.elapsed_s:.2f}s vs serial "
            f"{serial.elapsed_s:.2f}s on {cores} cores")
    else:
        assert parallel.elapsed_s < 2.5 * serial.elapsed_s, (
            f"single-core degradation unbounded: parallel "
            f"{parallel.elapsed_s:.2f}s vs serial "
            f"{serial.elapsed_s:.2f}s")

    # shape: a repeated batch is served from cache, nothing recompiled
    assert cached.hit_rate >= 0.9
    assert cached.classes_compiled == 0

    # the counters export as CSV like E8's sweeps do
    csv_lines = batch_to_csv(cached).strip().splitlines()
    assert csv_lines[0].startswith("model,variant,ok")
    assert len(csv_lines) == len(results["matrix"]) + 1

    benchmark.extra_info["cold_ms"] = round(cold_s * 1000, 3)
    benchmark.extra_info["warm_ms"] = round(warm_s * 1000, 3)
    benchmark.extra_info["speedup"] = round(cold_s / warm_s, 1)
    benchmark.extra_info["parallel_speedup"] = round(
        serial.elapsed_s / parallel.elapsed_s, 2)
    benchmark.extra_info["usable_cores"] = cores
    benchmark.extra_info["second_run_hit_rate"] = round(
        cached.hit_rate, 3)
