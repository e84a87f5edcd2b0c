"""Target-architecture runtime — executes what the compiler emitted.

The abstract runtime (:mod:`repro.runtime`) executes the *model*.  This
module executes the *build manifest*: the lowered IR, state tables and
attribute layouts the generators printed as C and VHDL.  Everything it
runs comes from the manifest, so an emitter that lowers wrongly fails
conformance (experiment E3) instead of slipping through.

:class:`TargetMachine` reads its tables -- attribute defaults, initial
states, associations, derived-attribute IR and state tables -- from the
manifest and hands them to the shared
:class:`~repro.runtime.dispatcher.Dispatcher`, which stores instances
and links, stamps, traces, queues, dispatches and serves bridges exactly
as the abstract runtime does.  The architectures (:mod:`repro.mda.csim`,
:mod:`repro.mda.vsim`, :mod:`repro.cosim.engine`) add only their source
policy and clock.

Value semantics (C integer division, handle numbering, attribute
defaults) are kept identical to the abstract runtime on purpose: the
profile promises the model means the same thing before and after
translation.
"""

from __future__ import annotations

from repro.exec import IRExecutor
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.events import SignalInstance
from repro.runtime.instances import Instance
from repro.xuml.association import Association, AssociationEnd, Multiplicity
from repro.xuml.statemachine import EventResponse

from .manifest import ClassManifest, ComponentManifest


class ArchError(Exception):
    """Target-architecture execution failure."""


def _manifest_end(end: tuple) -> AssociationEnd:
    """A manifest association end, (class, phrase, multiplicity)."""
    class_key, phrase, mult = end
    return AssociationEnd(class_key, phrase, Multiplicity(mult))


class TargetMachine(Dispatcher):
    """Manifest executor; subclasses choose the dispatch source.

    The machine shares the :class:`repro.runtime.Simulation` surface, so
    verification test cases drive either one directly.  Action
    semantics live in the shared execution core (:mod:`repro.exec`) and
    the signal life cycle, bridges and the store in :class:`Dispatcher`;
    this class supplies only the manifest's tables.
    """

    error = cant_happen_error = bridge_error = multiplicity_error = ArchError

    def __init__(self, manifest: ComponentManifest):
        super().__init__()
        self.manifest = manifest
        self.executor = IRExecutor(self, error=ArchError,
                                   selection_error=ArchError)
        classes, derived, operations = {}, {}, {}
        responses, creations, accepts = {}, {}, {}
        for key, klass in manifest.classes.items():
            classes[key] = (
                {name: default for name, _tag, default in klass.attributes},
                klass.initial_state if klass.is_active else None)
            derived.update(((key, name), ir)
                           for name, ir in klass.derived.items())
            operations.update(((key, name), operation.ir)
                              for name, operation in klass.operations.items())
            responses.update(((key, state, label),
                              EventResponse(klass.response(state, label)))
                             for state, _number in klass.states
                             for label in klass.events)
            responses.update(((key, state, label), to_state)
                             for (state, label), to_state
                             in klass.transitions.items())
            creations.update(((key, label), state)
                             for label, state in klass.creations.items())
            accepts.update(((key, label), event.creation)
                           for label, event in klass.events.items())
        associations = [
            Association(number, _manifest_end(one), _manifest_end(other), link)
            for number, (one, other, link) in manifest.associations.items()
        ]
        self._load_tables(classes, associations, derived, operations,
                          responses, creations, accepts)

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

    def _run_state_activity(self, instance: Instance, state: str,
                            signal: SignalInstance) -> None:
        self._run_to_completion(
            instance.handle, instance.class_key, state, signal,
            self._klass(instance.class_key).activities[state], signal.params,
        )

    # bound in this class's own namespace so the mda.archrt_dispatch span
    # resolves on every architecture runtime
    dispatch = Dispatcher.dispatch
