"""The build manifest — what the model compiler actually emitted.

The manifest is the machine-readable twin of the generated text: state
tables, event signatures, attribute layouts and lowered action IR, all in
plain dict/list/str form (JSON-able).  The C and VHDL emitters print
*from the manifest*, and the target-architecture simulators *execute* the
manifest — so the text and the simulated behaviour cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec.ir import lower_block
from repro.oal.analyzer import analyze_activity
from repro.oal.parser import parse_activity
from repro.xuml.component import Component
from repro.xuml.datatypes import (
    CoreType,
    DataType,
    EnumType,
    InstRefType,
    InstSetType,
)
from repro.xuml.model import Model
from repro.xuml.statemachine import EventResponse


def dtype_tag(dtype: DataType) -> str:
    """Serialize a data type to its manifest tag."""
    if isinstance(dtype, EnumType):
        return f"enum:{dtype.name}"
    if isinstance(dtype, InstRefType):
        return f"inst_ref:{dtype.class_key}"
    if isinstance(dtype, InstSetType):
        return f"inst_ref_set:{dtype.class_key}"
    return dtype.value


def tag_to_dtype(tag: str, enums: dict[str, tuple[str, ...]]) -> DataType:
    """Deserialize a manifest tag back to a data type."""
    if tag.startswith("enum:"):
        name = tag[len("enum:"):]
        return EnumType(name, tuple(enums[name]))
    if tag.startswith("inst_ref:"):
        return InstRefType(tag[len("inst_ref:"):])
    if tag.startswith("inst_ref_set:"):
        return InstSetType(tag[len("inst_ref_set:"):])
    return CoreType(tag)


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
    externals: dict[str, tuple[str, ...]]      # EE -> bridge names

    def klass(self, key: str) -> ClassManifest:
        return self.classes[key]


def build_manifest(model: Model, component: Component) -> ComponentManifest:
    """Lower one component to its manifest (parses + analyzes every action)."""
    from repro.xuml.klass import Operation

    classes: dict[str, ClassManifest] = {}
    for klass in component.classes:
        machine = klass.statemachine
        activities: dict[str, list] = {}
        for state in machine.states:
            block = parse_activity(state.activity)
            analysis = analyze_activity(block, model, component, klass, state)
            activities[state.name] = lower_block(block, analysis, component)

        operations: dict[str, OperationManifest] = {}
        for operation in klass.operations:
            block = parse_activity(operation.body)
            analysis = analyze_activity(
                block, model, component, klass, None, operation=operation
            )
            operations[operation.name] = OperationManifest(
                operation.name,
                [(p.name, dtype_tag(p.dtype)) for p in operation.parameters],
                dtype_tag(operation.returns) if operation.returns is not None else None,
                operation.instance_based,
                lower_block(block, analysis, component),
            )

        derived: dict[str, list] = {}
        for attribute in klass.attributes:
            if attribute.derived is None:
                continue
            pseudo = Operation(
                f"derived_{attribute.name}",
                f"return {attribute.derived};",
                instance_based=True,
                returns=attribute.dtype,
            )
            block = parse_activity(pseudo.body)
            analysis = analyze_activity(
                block, model, component, klass, None, operation=pseudo
            )
            derived[attribute.name] = lower_block(block, analysis, component)

        transitions = {
            (t.from_state, t.event_label): t.to_state
            for t in machine.transitions
        }
        non_transitions: dict[tuple[str, str], str] = {}
        for state in machine.states:
            for event in klass.events:
                if (state.name, event.label) in transitions:
                    continue
                response = machine.response_to(state.name, event.label)
                if response is EventResponse.IGNORE:
                    non_transitions[(state.name, event.label)] = "ignore"
                elif response is EventResponse.CANT_HAPPEN:
                    non_transitions[(state.name, event.label)] = "cant_happen"

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
        externals={
            ee.key_letters: tuple(b.name for b in ee.bridges)
            for ee in component.externals
        },
    )
