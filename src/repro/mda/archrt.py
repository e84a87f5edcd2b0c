"""Target-architecture runtime — executes what the compiler emitted.

The abstract runtime (:mod:`repro.runtime`) executes the *model*.  This
module executes the *build manifest*: the lowered IR, state tables and
attribute layouts the generators printed as C and VHDL.  Everything it
runs comes from the manifest, so an emitter that lowers wrongly fails
conformance (experiment E3) instead of slipping through.

:class:`TargetMachine` is manifest-backed storage (attribute dicts and
links) on the shared :class:`~repro.runtime.dispatcher.Dispatcher`,
which stamps, traces, queues, dispatches and serves bridges exactly as
the abstract runtime does.  The architectures (:mod:`repro.mda.csim`,
:mod:`repro.mda.vsim`, :mod:`repro.cosim.engine`) add only their source
policy and clock.

Value semantics (C integer division, handle numbering, attribute
defaults) are kept identical to the abstract runtime on purpose: the
profile promises the model means the same thing before and after
translation.
"""

from __future__ import annotations

from collections import defaultdict

from repro.exec import IRExecutor
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.events import SignalInstance
from repro.xuml.statemachine import EventResponse

from .manifest import ClassManifest, ComponentManifest


class ArchError(Exception):
    """Target-architecture execution failure."""


class TargetMachine(Dispatcher):
    """Manifest executor; subclasses choose the dispatch source.

    The machine shares the :class:`repro.runtime.Simulation` surface, so
    verification test cases drive either one directly.  Action
    semantics live in the shared execution core (:mod:`repro.exec`) and
    the signal life cycle and bridges in :class:`Dispatcher`; this class
    supplies only storage and links.
    """

    error = cant_happen_error = bridge_error = ArchError

    def __init__(self, manifest: ComponentManifest):
        super().__init__()
        self.manifest = manifest
        self.executor = IRExecutor(self, error=ArchError,
                                   selection_error=ArchError)
        #: class key -> handle -> {attr: value}
        self._data: dict[str, dict[int, dict[str, object]]] = {
            key: {} for key in manifest.classes
        }
        self._state: dict[int, str] = {}
        self._class_of: dict[int, str] = {}
        #: assoc -> phrase -> handle -> set(handles)
        self._links: dict[str, dict[str, dict[int, set[int]]]] = {}
        for number, (one, other, _link) in manifest.associations.items():
            self._links[number] = {
                one[1]: defaultdict(set),
                other[1]: defaultdict(set),
            }

    # -- population ---------------------------------------------------------

    def _store_instance(self, class_key: str, handle: int,
                        attribute_values: dict) -> str | None:
        klass = self._klass(class_key)
        data = {name: default for name, _tag, default in klass.attributes}
        data.update(attribute_values)
        self._data[class_key][handle] = data
        self._class_of[handle] = class_key
        if klass.is_active:
            self._state[handle] = klass.initial_state
        return self._state.get(handle)

    def _forget_instance(self, handle: int) -> str:
        class_key = self.class_of(handle)
        del self._data[class_key][handle]
        del self._class_of[handle]
        self._state.pop(handle, None)
        for by_phrase in self._links.values():
            for table in by_phrase.values():
                table.pop(handle, None)
                for peers in table.values():
                    peers.discard(handle)
        return class_key

    def class_of(self, handle: int) -> str:
        try:
            return self._class_of[handle]
        except KeyError:
            raise ArchError(f"no live instance #{handle}") from None

    def instances_of(self, class_key: str) -> tuple[int, ...]:
        return tuple(sorted(self._data[self._klass(class_key).key]))

    def state_of(self, handle: int) -> str | None:
        self.class_of(handle)
        return self._state.get(handle)

    def read_attribute(self, handle: int, name: str):
        class_key = self.class_of(handle)
        klass = self._klass(class_key)
        if name in klass.derived:
            return self.executor.run(klass.derived[name], handle, {})
        data = self._data[class_key][handle]
        if name not in data:
            raise ArchError(f"{class_key}#{handle} has no attribute {name!r}")
        return data[name]

    def write_attribute(self, handle: int, name: str, value) -> None:
        class_key = self.class_of(handle)
        data = self._data[class_key][handle]
        if name not in data:
            raise ArchError(f"{class_key}#{handle} has no attribute {name!r}")
        data[name] = value

    def _klass(self, class_key: str) -> ClassManifest:
        try:
            return self.manifest.classes[class_key]
        except KeyError:
            raise ArchError(f"manifest has no class {class_key!r}") from None

    # -- links ---------------------------------------------------------------

    def relate(self, left: int, right: int, number: str, phrase=None) -> None:
        left_end, right_end = self._resolve_ends(left, right, number, phrase)
        forward = self._links[number][right_end[1]]
        backward = self._links[number][left_end[1]]
        if right in forward[left]:
            return
        if right_end[2] in ("1", "0..1") and forward[left]:
            raise ArchError(f"{number}: multiplicity overflow at {left}")
        if left_end[2] in ("1", "0..1") and backward[right]:
            raise ArchError(f"{number}: multiplicity overflow at {right}")
        forward[left].add(right)
        backward[right].add(left)

    def unrelate(self, left: int, right: int, number: str, phrase=None) -> None:
        left_end, right_end = self._resolve_ends(left, right, number, phrase)
        forward = self._links[number][right_end[1]]
        backward = self._links[number][left_end[1]]
        if right not in forward[left]:
            raise ArchError(f"{number}: {left} and {right} are not related")
        forward[left].discard(right)
        backward[right].discard(left)

    def _resolve_ends(self, left, right, number, phrase):
        one, other, _link = self.manifest.associations[number]
        left_class = self.class_of(left)
        right_class = self.class_of(right)
        reflexive = one[0] == other[0]
        if reflexive:
            if phrase is None:
                raise ArchError(f"{number} is reflexive; phrase required")
            right_end = one if one[1] == phrase else other
            left_end = other if right_end is one else one
            return left_end, right_end
        if one[0] == right_class:
            right_end, left_end = one, other
        elif other[0] == right_class:
            right_end, left_end = other, one
        else:
            raise ArchError(f"{number}: {right_class} does not participate")
        if left_end[0] != left_class:
            raise ArchError(f"{number}: {left_class} does not participate")
        return left_end, right_end

    def navigate(self, handle: int, number: str, to_class: str,
                 phrase=None) -> tuple[int, ...]:
        one, other, _link = self.manifest.associations[number]
        candidates = [end for end in (one, other) if end[0] == to_class]
        if not candidates:
            raise ArchError(f"{number}: {to_class} does not participate")
        if len(candidates) == 2:
            if phrase is None:
                raise ArchError(f"{number} is reflexive; phrase required")
            candidates = [end for end in candidates if end[1] == phrase]
        elif phrase is not None:
            candidates = [end for end in candidates if end[1] == phrase]
            if not candidates:
                raise ArchError(f"{number}: no {to_class} end phrased {phrase!r}")
        to_end = candidates[0]
        table = self._links[number][to_end[1]]
        return tuple(sorted(table.get(handle, ())))

    # -- dispatch hooks -------------------------------------------------------------

    def _check_event(self, class_key: str, label: str, creation: bool) -> None:
        if creation and not self._klass(class_key).events[label].creation:
            raise ArchError(f"{class_key}.{label} is not a creation event")

    def _target(self, class_key: str, handle: int) -> int | None:
        return handle if handle in self._class_of else None

    def _state_of(self, handle: int) -> str:
        return self._state[handle]

    def _set_state(self, handle: int, state: str) -> None:
        self._state[handle] = state

    def _transition(self, signal: SignalInstance, state: str):
        klass = self._klass(signal.class_key)
        to_state = klass.transitions.get((state, signal.label))
        if to_state is None:
            return EventResponse(klass.response(state, signal.label))
        return to_state

    def _creation_state(self, signal: SignalInstance) -> str:
        return self._klass(signal.class_key).creations[signal.label]

    def _run_state_activity(self, handle: int, state: str,
                            signal: SignalInstance) -> None:
        self._run_to_completion(
            handle, signal.class_key, state, signal,
            self._klass(signal.class_key).activities[state], signal.params,
        )

    # bound in this class's own namespace so the mda.archrt_dispatch span
    # resolves on every architecture runtime
    dispatch = Dispatcher.dispatch

    # -- operations ------------------------------------------------------

    def call_operation(self, class_key: str, name: str, self_handle, kwargs):
        klass = self._klass(class_key)
        operation = klass.operations[name]
        return self.executor.run(operation.ir, self_handle, kwargs)

    def call_class_operation(self, class_key: str, name: str, kwargs: dict):
        return self.call_operation(class_key, name, None, kwargs)

    def call_instance_operation(self, handle: int, name: str, kwargs: dict):
        return self.call_operation(self.class_of(handle), name, handle, kwargs)
