"""The build manifest — what the model compiler actually emitted.

The manifest is the machine-readable twin of the generated text.  It
carries the component's :class:`~repro.exec.cache.LoweredComponent`
(``lowered``), the lowering cache's own object: the state tables, the
associations and the lowered action IR, keyed as the executors look
them up.  Around it the manifest keeps only what the emitters print and
the lowering does not hold: names, numbers, attribute layouts, and
event and operation signatures, in plain dict/list/str form.  The C,
SystemC and VHDL emitters print *from the manifest*, and the
target-architecture simulators *execute* the lowering it carries — so
the text and the simulated behaviour cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.cache import LoweredComponent, lower_component
from repro.xuml.component import Component
# tag_to_dtype is re-exported: the emitters read the manifest's tags
from repro.xuml.datatypes import dtype_tag, tag_to_dtype  # noqa: F401
from repro.xuml.model import Model


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


@dataclass
class ClassManifest:
    """The names, numbers and signatures one class is printed with."""

    key: str
    name: str
    number: int
    attributes: list[tuple[str, str, object]]   # (name, dtype tag, default)
    states: list[tuple[str, int]]
    initial_state: str | None
    events: dict[str, EventManifest]
    operations: dict[str, OperationManifest]

    @property
    def is_active(self) -> bool:
        return bool(self.states)


@dataclass
class ComponentManifest:
    """The whole translated component."""

    name: str
    enums: dict[str, tuple[str, ...]]
    classes: dict[str, ClassManifest]
    #: the tables and IR every executor loads and every emitter prints
    lowered: LoweredComponent

    def klass(self, key: str) -> ClassManifest:
        return self.classes[key]


def build_manifest(model: Model, component: Component) -> ComponentManifest:
    """The component's manifest around its cached lowering.

    ``lowered`` is the very object :func:`repro.exec.lower_component`
    holds, so the manifests and the abstract runtime load one set of
    tables and execute one lowering; this function adds only the
    printed names and signatures.
    """
    classes: dict[str, ClassManifest] = {}
    for klass in component.classes:
        machine = klass.statemachine
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
            events={
                e.label: EventManifest(
                    e.label,
                    [(p.name, dtype_tag(p.dtype)) for p in e.parameters],
                    e.creation,
                    e.meaning,
                )
                for e in klass.events
            },
            operations={
                operation.name: OperationManifest(
                    operation.name,
                    [(p.name, dtype_tag(p.dtype))
                     for p in operation.parameters],
                    dtype_tag(operation.returns)
                    if operation.returns is not None else None,
                    operation.instance_based,
                )
                for operation in klass.operations
            },
        )
    return ComponentManifest(
        name=component.name,
        enums={e.name: e.enumerators for e in component.types.enums},
        classes=classes,
        lowered=lower_component(model, component),
    )
