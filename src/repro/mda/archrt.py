"""Target-architecture runtime — executes what the compiler emitted.

The abstract runtime (:mod:`repro.runtime`) executes the *model*.  This
module executes the *build manifest*: the lowering it carries
(``ComponentManifest.lowered``) is the abstract runtime's own, the one
the generators print from as C and VHDL.  Conformance (experiment E3)
therefore compares source policies and clocks over one table set; it
does not execute the printed text.  That text is checked by its pinned
digests (``tests/mda/emitted_text_digests.json``) and, for C, by gcc
(:meth:`~repro.mda.compiler.Build.lint`).

:class:`TargetMachine` builds no tables of its own: it hands the
manifest's :class:`~repro.exec.cache.LoweredComponent` to the shared
:class:`~repro.runtime.dispatcher.Dispatcher`, which stores instances
and links, stamps, traces, queues, dispatches, runs activities and
serves bridges exactly as the abstract runtime does.  The architectures
(:mod:`repro.mda.csim`, :mod:`repro.mda.vsim`,
:mod:`repro.cosim.engine`) add only their source policy and clock.

Value semantics (C integer division, handle numbering, attribute
defaults) are kept identical to the abstract runtime on purpose: the
profile promises the model means the same thing before and after
translation.
"""

from __future__ import annotations

from repro.exec import IRExecutor
from repro.runtime.dispatcher import Dispatcher

from .manifest import ClassManifest, ComponentManifest


class ArchError(Exception):
    """Target-architecture execution failure."""


class TargetMachine(Dispatcher):
    """Manifest executor; subclasses choose the dispatch source.

    The machine shares the :class:`repro.runtime.Simulation` surface, so
    verification test cases drive either one directly.  Action
    semantics live in the shared execution core (:mod:`repro.exec`) and
    the signal life cycle, bridges and the store in :class:`Dispatcher`;
    this class loads the manifest's lowering and checks a send its
    tables lack against the manifest.
    """

    error = cant_happen_error = bridge_error = multiplicity_error = ArchError

    def __init__(self, manifest: ComponentManifest):
        super().__init__()
        self.manifest = manifest
        self.executor = IRExecutor(error=ArchError,
                                   selection_error=ArchError)
        self._load_tables(manifest.lowered)

    def _klass(self, class_key: str) -> ClassManifest:
        try:
            return self.manifest.classes[class_key]
        except KeyError:
            raise ArchError(f"manifest has no class {class_key!r}") from None

    def _unlisted_send(self, class_key: str, label: str, creation: bool):
        """A send the accept map lacks: the generated runtime checks
        nothing at a plain send, and a creation against the manifest."""
        if creation and not self._klass(class_key).events[label].creation:
            raise ArchError(f"{class_key}.{label} is not a creation event")

    # bound in this class's own namespace so the mda.archrt_dispatch span
    # resolves on every architecture runtime
    dispatch = Dispatcher.dispatch
