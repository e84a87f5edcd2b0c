"""Batch compilation service — the catalog × mark-variant matrix, fanned out.

:func:`catalog_matrix` enumerates the standard build matrix (every
catalog model × the all-software baseline, each single-class hardware
retarget, and the all-hardware build); :func:`run_batch` compiles the
matrix on a process pool sharing one content-addressed cache directory.

Guarantees the service makes:

* **deterministic ordering** — results come back in matrix order no
  matter which worker finished first, so two runs of the same matrix
  produce comparable reports line-for-line;
* **crash containment** — a worker that dies (segfault, ``os._exit``,
  OOM-kill) breaks only its pool generation: the scheduler rebuilds the
  pool, retries the jobs that were in flight, and reports the job that
  keeps killing workers as failed instead of taking the batch down;
* **shared-cache safety** — workers share the cache directory through
  the store's atomic writes; identical keys always carry identical
  bytes, so racing writers are harmless.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.marks.partition import marks_for_partition
from repro.models.catalog import CATALOG, build_model

from .fingerprint import artifacts_digest
from .incremental import IncrementalCompiler
from .store import ArtifactStore, StoreStats

#: Test hook: a worker whose job matches "<model>:<variant>" hard-exits,
#: simulating a native crash for the containment tests.
_CRASH_ENV = "REPRO_BUILD_CRASH"

@dataclass(frozen=True)
class BatchJob:
    """One cell of the build matrix: a model under one partition."""

    model: str
    variant: str
    hardware: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.model}:{self.variant}"


@dataclass
class JobResult:
    """What one cell produced (or why it did not)."""

    job: BatchJob
    ok: bool
    error: str = ""
    artifact_count: int = 0
    total_lines: int = 0
    digest: str = ""
    classes_total: int = 0
    classes_compiled: int = 0
    classes_reused: int = 0
    elapsed_s: float = 0.0
    store: StoreStats = field(default_factory=StoreStats)


@dataclass
class BatchReport:
    """The whole batch, in matrix order, plus aggregate counters."""

    results: list[JobResult]
    jobs: int
    elapsed_s: float
    worker_failures: int = 0

    @property
    def failed(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def store(self) -> StoreStats:
        total = StoreStats()
        for result in self.results:
            total.merge(result.store)
        return total

    @property
    def hit_rate(self) -> float:
        return self.store.hit_rate

    @property
    def classes_compiled(self) -> int:
        return sum(r.classes_compiled for r in self.results)

    @property
    def classes_reused(self) -> int:
        return sum(r.classes_reused for r in self.results)


def catalog_matrix(models: tuple[str, ...] | None = None) -> list[BatchJob]:
    """The standard batch matrix over the model catalog.

    Per model: the all-software baseline, one single-class hardware
    retarget per class (the paper's "move one mark" operation), and the
    all-hardware build.  Unknown model names raise ``KeyError`` naming
    the catalog.  Only the class keys are read, so the models are built
    unchecked: each job checks its model when it compiles it.
    """
    known = tuple(entry.name for entry in CATALOG)
    if models:
        unknown = [name for name in models if name not in known]
        if unknown:
            raise KeyError(
                f"no catalog model named {'/'.join(unknown)} "
                f"(have {'/'.join(known)})")
    jobs: list[BatchJob] = []
    for entry in CATALOG:
        if models and entry.name not in models:
            continue
        component = entry.build(check=False).components[0]
        keys = tuple(sorted(component.class_keys))
        variants = [("sw-only", ())]
        variants.extend((f"hw={key}", (key,)) for key in keys)
        variants.append(("hw-all", keys))
        jobs.extend(
            BatchJob(entry.name, label, hardware)
            for label, hardware in variants
        )
    return jobs


def _execute_job(job: BatchJob, store: ArtifactStore | None) -> JobResult:
    """Compile one matrix cell against *store* (None: no cache)."""
    if os.environ.get(_CRASH_ENV) == job.label:
        os._exit(13)  # simulate a native worker crash (test hook)
    start = time.perf_counter()
    try:
        model = build_model(job.model)
        component = model.components[0]
        marks = marks_for_partition(component, job.hardware)
        compiler = IncrementalCompiler(model, store=store)
        build = compiler.compile(marks)
        stats = compiler.last_stats
        return JobResult(
            job=job,
            ok=True,
            artifact_count=len(build.artifacts),
            total_lines=build.total_lines(),
            digest=artifacts_digest(build.artifacts),
            classes_total=stats.classes_total,
            classes_compiled=stats.classes_compiled,
            classes_reused=stats.classes_reused,
            elapsed_s=time.perf_counter() - start,
            store=stats.store,
        )
    except Exception as exc:
        return JobResult(
            job=job, ok=False,
            error=f"{type(exc).__name__}: {exc}",
            elapsed_s=time.perf_counter() - start,
        )


def _execute_chunk(
    block: list[BatchJob], cache_dir: str | None, gc_bytes: int | None,
) -> list[JobResult]:
    """Compile a contiguous slice of the matrix against one store.

    Chunked dispatch amortises the submit/result round-trip over several
    jobs and lets the worker keep one store handle and a warm manifest
    memo across the whole slice — per-job IPC was the dominant scheduler
    overhead on small matrices.  ``cache_dir=None`` compiles without a
    store.
    """
    store = (ArtifactStore(cache_dir, max_bytes=gc_bytes)
             if cache_dir is not None else None)
    return [_execute_job(job, store) for job in block]


def run_batch(
    matrix: list[BatchJob],
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    gc_bytes: int | None = None,
) -> BatchReport:
    """Compile the whole *matrix* with *jobs* workers; see module docs."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    results: dict[int, JobResult] = {}
    worker_failures = 0

    if jobs == 1:
        # inline: the whole matrix is one slice, so the in-process
        # manifest memo and the cache are both warm across it
        results.update(enumerate(_execute_chunk(matrix, cache_dir, gc_bytes)))
    else:
        # 4 chunks per worker balances dispatch overhead against load
        # skew from uneven job sizes
        chunk = max(1, -(-len(matrix) // (jobs * 4)))
        blocks = [
            (first, matrix[first:first + chunk])
            for first in range(0, len(matrix), chunk)
        ]
        crashed: list[tuple[int, BatchJob]] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                (first, block,
                 pool.submit(_execute_chunk, block, cache_dir, gc_bytes))
                for first, block in blocks
            ]
            for first, block, future in futures:
                try:
                    for offset, result in enumerate(future.result()):
                        results[first + offset] = result
                except BrokenExecutor:
                    # results computed before the crash died with the
                    # worker; every job in the slice goes to retry
                    crashed.extend(
                        (first + offset, job)
                        for offset, job in enumerate(block))
                except Exception as exc:  # worker-side infrastructure
                    for offset, job in enumerate(block):
                        results[first + offset] = JobResult(
                            job=job, ok=False,
                            error=f"{type(exc).__name__}: {exc}")
        if crashed:
            # A dead worker breaks its whole pool generation, so every
            # in-flight job lands here alongside the one that killed it.
            # Retry each suspect in its own single-worker pool: innocents
            # recover, and a genuinely poisonous job fails alone.
            worker_failures += 1
            for index, job in crashed:
                try:
                    with ProcessPoolExecutor(max_workers=1) as pool:
                        results[index] = pool.submit(
                            _execute_chunk, [job], cache_dir,
                            gc_bytes).result()[0]
                except BrokenExecutor:
                    worker_failures += 1
                    results[index] = JobResult(
                        job=job, ok=False,
                        error="worker process crashed")
                except Exception as exc:
                    results[index] = JobResult(
                        job=job, ok=False,
                        error=f"{type(exc).__name__}: {exc}")

    return BatchReport(
        results=[results[index] for index in range(len(matrix))],
        jobs=jobs,
        elapsed_s=time.perf_counter() - start,
        worker_failures=worker_failures,
    )
