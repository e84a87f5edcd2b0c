"""Content-addressed build cache + parallel batch compilation (E9).

* :mod:`~repro.build.fingerprint` — stable content hashes of
  model/marks/rules, with per-class dependency keys
* :class:`ArtifactStore` — atomic on-disk object store with LRU GC
* :class:`IncrementalCompiler` — retargets reuse cached per-class
  artifacts, byte-identical to a cold build
* :func:`run_batch` — process-pool batch scheduler over the catalog ×
  mark-variant matrix, with crash containment
"""

from .fingerprint import (
    GENERATOR_VERSION,
    artifacts_digest,
    canonical_json,
    class_dependency_key,
    manifest_dependency_key,
    model_fingerprint,
    rules_fingerprint,
    shared_dependency_key,
)
from .incremental import (
    CompileStats,
    IncrementalCompiler,
    clear_manifest_memo,
)
from .report import (
    batch_to_csv,
    render_batch_table,
    render_cache_summary,
    write_batch_csv,
)
from .scheduler import (
    BatchJob,
    BatchReport,
    JobResult,
    catalog_matrix,
    run_batch,
)
from .store import ArtifactStore, StoreError, StoreStats

__all__ = [
    "ArtifactStore",
    "BatchJob",
    "BatchReport",
    "CompileStats",
    "GENERATOR_VERSION",
    "IncrementalCompiler",
    "JobResult",
    "StoreError",
    "StoreStats",
    "artifacts_digest",
    "batch_to_csv",
    "canonical_json",
    "catalog_matrix",
    "class_dependency_key",
    "clear_manifest_memo",
    "manifest_dependency_key",
    "model_fingerprint",
    "render_batch_table",
    "render_cache_summary",
    "rules_fingerprint",
    "run_batch",
    "shared_dependency_key",
    "write_batch_csv",
]
