"""Incremental recompilation — retargets reuse everything marks left alone.

The paper's §4 claim is that "changing the partition is a matter of
changing the placement of the marks"; this module makes that claim a
*cached* operation.  :class:`IncrementalCompiler` is a
:class:`~repro.mda.compiler.ModelCompiler` whose two emission hooks key
every bundle by its dependency fingerprint and file it in an
:class:`~repro.build.store.ArtifactStore`; ``assemble`` still decides
what is emitted, and in which order:

* the manifest + signal flows (tables built around the lowering cache's
  IR) depend only on the model, so every retarget reuses them;
* each class's artifacts depend on the model, the class's resolved
  target and the marks *on that class* — moving one mark recompiles only
  the moved class;
* the interface and the ``marks.mks`` snapshot depend on the whole
  marking, so they are regenerated every time (they are cheap, and the
  paper's point is precisely that both halves are re-derived on every
  change).

Because cold and warm paths share one ``assemble``, a warm build is
byte-identical to a cold one by construction — and the tests and E9
bench verify it anyway.
"""

from __future__ import annotations

import json
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.marks.model import MarkSet
from repro.marks.partition import partition_from_flows, signal_flows
from repro.mda.compiler import Build, ModelCompiler
from repro.mda.manifest import build_manifest
from repro.mda.rules import RuleSet
from repro.xuml.model import Model

from .fingerprint import (
    class_dependency_key,
    manifest_dependency_key,
    model_fingerprint,
    rules_fingerprint,
    shared_dependency_key,
)
from .store import ArtifactStore, StoreStats

#: In-process manifest memo (manifest key -> (manifest, flows)); bounded
#: so long-lived batch workers touring a large catalog stay bounded too.
_MANIFEST_MEMO: "OrderedDict[str, tuple]" = OrderedDict()
_MEMO_LIMIT = 32


@dataclass
class CompileStats:
    """What one :meth:`IncrementalCompiler.compile` call reused vs redid."""

    model: str
    component: str
    classes_total: int = 0
    classes_compiled: int = 0
    classes_reused: int = 0
    shared_compiled: int = 0
    shared_reused: int = 0
    manifest_reused: bool = False
    #: this compile's slice of the store counters
    store: StoreStats = field(default_factory=StoreStats)

    @property
    def fully_cached(self) -> bool:
        return self.classes_compiled == 0 and self.shared_compiled == 0

    def describe(self) -> str:
        manifest = "reused" if self.manifest_reused else "lowered"
        return (
            f"{self.model}/{self.component}: "
            f"{self.classes_compiled}/{self.classes_total} classes "
            f"compiled, {self.classes_reused} reused; "
            f"shared {self.shared_compiled} compiled "
            f"{self.shared_reused} reused; manifest {manifest}"
        )


class IncrementalCompiler(ModelCompiler):
    """A :class:`ModelCompiler` with a content-addressed artifact cache.

    With ``store=None`` it still memoizes the manifest and signal flows
    in process (every same-model retarget skips rebuilding the tables),
    but emits all artifacts fresh; with a store, per-class and shared
    artifacts come from cache whenever their dependency keys match.
    """

    def __init__(
        self,
        model: Model,
        component: str | None = None,
        rules: RuleSet | None = None,
        store: ArtifactStore | None = None,
    ):
        super().__init__(model, component, rules)
        self.store = store
        self._rules_fp = rules_fingerprint(self.rules)
        self.last_stats: CompileStats | None = None

    @property
    def _model_fp(self) -> str:
        # read per use, not kept: the memo serves it until the model is
        # edited, and an edited model must miss the store
        return model_fingerprint(self.model)

    def compile(self, marks: MarkSet) -> Build:
        """The same pipeline as ``ModelCompiler.compile``, cached."""
        self.last_stats = CompileStats(
            model=self.model.name, component=self.component.name,
            classes_total=len(self.component.classes),
        )
        before = (self.store.stats.snapshot() if self.store is not None
                  else None)
        manifest, flows = self._manifest_and_flows()
        partition = partition_from_flows(self.component, marks, flows)
        build = self.assemble(manifest, partition, marks)
        if before is not None:
            self.last_stats.store = self.store.stats.delta(before)
        return build

    # -- cached pieces -------------------------------------------------------

    def _manifest_and_flows(self):
        key = manifest_dependency_key(self._model_fp, self.component.name)
        memoized = _MANIFEST_MEMO.get(key)
        if memoized is not None:
            _MANIFEST_MEMO.move_to_end(key)
            self.last_stats.manifest_reused = True
            return memoized
        if self.store is not None:
            cached = self.store.get(key, pickle.loads)
            if cached is not None:
                manifest, flows = cached
                self.last_stats.manifest_reused = True
                self._memoize(key, (manifest, flows))
                return manifest, flows
        manifest = build_manifest(self.model, self.component)
        flows = signal_flows(self.model, self.component)
        if self.store is not None:
            self.store.put(key, pickle.dumps((manifest, flows)))
        self._memoize(key, (manifest, flows))
        return manifest, flows

    @staticmethod
    def _memoize(key: str, value) -> None:
        _MANIFEST_MEMO[key] = value
        _MANIFEST_MEMO.move_to_end(key)
        while len(_MANIFEST_MEMO) > _MEMO_LIMIT:
            _MANIFEST_MEMO.popitem(last=False)

    def _shared_bundle(self, kind: str, emit, manifest) -> dict[str, str]:
        key = shared_dependency_key(self._model_fp, self.component.name,
                                    kind)
        cached = self._get_bundle(key)
        if cached is not None:
            self.last_stats.shared_reused += 1
            return cached
        bundle = super()._shared_bundle(kind, emit, manifest)
        self._put_bundle(key, bundle)
        self.last_stats.shared_compiled += 1
        return bundle

    def _class_bundle(self, manifest, class_key: str, target: str,
                      marks: MarkSet) -> dict[str, str]:
        key = class_dependency_key(
            self._model_fp, self._rules_fp, self.component.name,
            class_key, target, marks)
        cached = self._get_bundle(key)
        if cached is not None:
            self.last_stats.classes_reused += 1
            return cached
        bundle = super()._class_bundle(manifest, class_key, target, marks)
        self._put_bundle(key, bundle)
        self.last_stats.classes_compiled += 1
        return bundle

    def _get_bundle(self, key: str) -> dict[str, str] | None:
        if self.store is None:
            return None
        return self.store.get(key, json.loads)

    def _put_bundle(self, key: str, bundle: dict[str, str]) -> None:
        if self.store is not None:
            self.store.put_text(key, json.dumps(bundle, sort_keys=True))


def clear_manifest_memo() -> None:
    """Drop the in-process manifest memo (tests and benchmarks)."""
    _MANIFEST_MEMO.clear()
