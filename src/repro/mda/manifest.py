"""The build manifest — what the model compiler actually emitted.

The manifest is the machine-readable twin of the generated text: state
tables, event signatures, attribute layouts and lowered action IR, all in
plain dict/list/str form (JSON-able).  The C and VHDL emitters print
*from the manifest*, and the target-architecture simulators *execute* the
manifest — so the text and the simulated behaviour cannot drift apart.
The IR blocks are the lowering cache's own
(:func:`repro.exec.lower_component`), shared and never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec.cache import lower_component
from repro.xuml.component import Component
# tag_to_dtype is re-exported: the emitters read the manifest's tags
from repro.xuml.datatypes import dtype_tag, tag_to_dtype  # noqa: F401
from repro.xuml.model import Model
from repro.xuml.statemachine import EventResponse


@dataclass
class EventManifest:
    label: str
    params: list[tuple[str, str]]          # (name, dtype tag)
    creation: bool
    meaning: str = ""


@dataclass
class OperationManifest:
    name: str
    params: list[tuple[str, str]]
    returns: str | None
    instance_based: bool
    ir: list = field(default_factory=list)


@dataclass
class ClassManifest:
    """Everything the architecture needs to realize one class."""

    key: str
    name: str
    number: int
    attributes: list[tuple[str, str, object]]   # (name, dtype tag, default)
    states: list[tuple[str, int]]
    initial_state: str | None
    #: (state, event) -> to_state
    transitions: dict[tuple[str, str], str]
    #: (state, event) -> "ignore" | "cant_happen" (transition pairs omitted)
    non_transitions: dict[tuple[str, str], str]
    #: creation event -> destination state
    creations: dict[str, str]
    events: dict[str, EventManifest]
    #: state name -> lowered action IR
    activities: dict[str, list]
    #: state name -> (name, dtype tag) of the event parameters its
    #: activity may read: those every entering event carries, one type
    event_parameters: dict[str, tuple[tuple[str, str], ...]]
    operations: dict[str, OperationManifest]
    #: derived attribute -> lowered IR of "return <expr>;"
    derived: dict[str, list]

    @property
    def is_active(self) -> bool:
        return bool(self.states)

    def response(self, state: str, label: str) -> str:
        """"transition" | "ignore" | "cant_happen" for a (state, event)."""
        if (state, label) in self.transitions:
            return "transition"
        return self.non_transitions.get((state, label), "cant_happen")


@dataclass
class ComponentManifest:
    """The whole translated component."""

    name: str
    enums: dict[str, tuple[str, ...]]
    #: Rn -> ((class, phrase, mult), (class, phrase, mult), link or None)
    associations: dict[str, tuple]
    classes: dict[str, ClassManifest]

    def klass(self, key: str) -> ClassManifest:
        return self.classes[key]


def build_manifest(model: Model, component: Component) -> ComponentManifest:
    """The component's manifest, its action IR read from the lowering cache.

    Every activity, operation and derived-attribute block is the very
    object :func:`repro.exec.lower_component` holds, so the manifests and
    the abstract runtime execute one lowering; this function builds only
    the tables around it.
    """
    lowered = lower_component(model, component)
    classes: dict[str, ClassManifest] = {}
    for klass in component.classes:
        key = klass.key_letters
        machine = klass.statemachine
        activities = {
            state.name: lowered.activities[(key, state.name)]
            for state in machine.states
        }
        event_parameters = {
            state.name: lowered.event_parameters[(key, state.name)]
            for state in machine.states
        }
        operations = {
            operation.name: OperationManifest(
                operation.name,
                [(p.name, dtype_tag(p.dtype)) for p in operation.parameters],
                dtype_tag(operation.returns) if operation.returns is not None else None,
                operation.instance_based,
                lowered.operations[(key, operation.name)],
            )
            for operation in klass.operations
        }
        derived = {
            attribute.name: lowered.derived[(key, attribute.name)]
            for attribute in klass.attributes
            if attribute.derived is not None
        }

        transitions = {
            (t.from_state, t.event_label): t.to_state
            for t in machine.transitions
        }
        # the non-transition rows of the lowering's response table
        non_transitions = {
            (state, label): response.value
            for (owner, state, label), response in lowered.responses.items()
            if owner == key and isinstance(response, EventResponse)
        }

        classes[klass.key_letters] = ClassManifest(
            key=klass.key_letters,
            name=klass.name,
            number=klass.number,
            attributes=[
                (a.name, dtype_tag(a.dtype), a.initial_value)
                for a in klass.attributes
                if a.derived is None
            ],
            states=[(s.name, s.number) for s in machine.states],
            initial_state=machine.initial_state,
            transitions=transitions,
            non_transitions=non_transitions,
            creations={
                ct.event_label: ct.to_state
                for ct in machine.creation_transitions
            },
            events={
                e.label: EventManifest(
                    e.label,
                    [(p.name, dtype_tag(p.dtype)) for p in e.parameters],
                    e.creation,
                    e.meaning,
                )
                for e in klass.events
            },
            activities=activities,
            event_parameters=event_parameters,
            operations=operations,
            derived=derived,
        )

    associations = {
        a.number: (
            (a.one.class_key, a.one.phrase, a.one.mult.value),
            (a.other.class_key, a.other.phrase, a.other.mult.value),
            a.link_class_key,
        )
        for a in component.associations
    }
    return ComponentManifest(
        name=component.name,
        enums={e.name: e.enumerators for e in component.types.enums},
        associations=associations,
        classes=classes,
    )
