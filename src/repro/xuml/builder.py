"""Fluent builder API for constructing models concisely.

The metamodel classes are deliberately explicit; building a realistic
model through them is verbose.  The builder gives example models, tests
and users a compact declarative surface::

    b = ModelBuilder("Microwave")
    c = b.component("control")
    c.enum("DoorState", ["CLOSED", "OPEN"])
    oven = c.klass("MicrowaveOven", "MO", number=1)
    oven.attr("oven_id", "unique_id")
    oven.attr("remaining", "integer")
    oven.identifier(1, "oven_id")
    oven.event("MO1", "cook button pressed", params=[("seconds", "integer")])
    oven.state("Idle", 1, activity="self.remaining = 0;")
    oven.trans("Idle", "MO1", "Cooking")
    model = b.build()          # well-formedness checked here

Type names are resolved lazily at ``build()`` time so enums may be
declared after the attributes that use them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .association import Association, AssociationEnd, Multiplicity
from .attribute import Attribute, Identifier
from .component import Component
from .datatypes import CoreType, DataType, InstRefType, InstSetType
from .event import EventParameter, EventSpec
from .external import BridgeSpec, ExternalEntity
from .klass import ModelClass, Operation
from .model import Model
from .statemachine import State
from .wellformed import check_model

_CORE_BY_NAME = {t.value: t for t in CoreType}

_MULT_BY_NAME = {m.value: m for m in Multiplicity}
_MULT_BY_NAME.update({"0..*": Multiplicity.ZERO_MANY, "1..1": Multiplicity.ONE})


def parse_multiplicity(text: str) -> Multiplicity:
    """Parse a multiplicity string (``"1"``, ``"0..1"``, ``"*"``, ``"1..*"``)."""
    try:
        return _MULT_BY_NAME[text]
    except KeyError:
        raise ValueError(f"unknown multiplicity {text!r}") from None


@dataclass
class _PendingType:
    """A type reference by name, resolved against the component at build()."""

    name: str

    def resolve(self, component: Component) -> DataType:
        name = self.name.strip()
        if name in _CORE_BY_NAME:
            return _CORE_BY_NAME[name]
        if name.startswith("inst_ref_set<") and name.endswith(">"):
            return InstSetType(name[len("inst_ref_set<"):-1])
        if name.startswith("inst_ref<") and name.endswith(">"):
            return InstRefType(name[len("inst_ref<"):-1])
        if name in component.types:
            return component.types.enum(name)
        raise ValueError(
            f"unknown type {name!r} in component {component.name!r}"
        )


def _as_type(spec: str | DataType) -> DataType | _PendingType:
    if isinstance(spec, str):
        return _PendingType(spec)
    return spec


class ClassBuilder:
    """Builder facade over one :class:`ModelClass`."""

    def __init__(self, component_builder: "ComponentBuilder", klass: ModelClass):
        self._cb = component_builder
        self._klass = klass
        self._pending_attr_types: list[tuple[Attribute, _PendingType]] = []
        self._pending_params: list[tuple[object, int, _PendingType]] = []

    @property
    def key_letters(self) -> str:
        return self._klass.key_letters

    def attr(
        self,
        name: str,
        dtype: str | DataType,
        default: object | None = None,
        referential: str | None = None,
        derived: str | None = None,
    ) -> "ClassBuilder":
        resolved = _as_type(dtype)
        placeholder = CoreType.INTEGER if isinstance(resolved, _PendingType) else resolved
        attribute = Attribute(
            name, placeholder, default=default, referential=referential, derived=derived
        )
        self._klass.add_attribute(attribute)
        if isinstance(resolved, _PendingType):
            self._pending_attr_types.append((attribute, resolved))
        return self

    def identifier(self, number: int, *attribute_names: str) -> "ClassBuilder":
        self._klass.add_identifier(Identifier(number, tuple(attribute_names)))
        return self

    def event(
        self,
        label: str,
        meaning: str = "",
        params: list[tuple[str, str | DataType]] | None = None,
        creation: bool = False,
    ) -> "ClassBuilder":
        parameters = []
        pendings = []
        for index, (pname, ptype) in enumerate(params or []):
            resolved = _as_type(ptype)
            placeholder = (
                CoreType.INTEGER if isinstance(resolved, _PendingType) else resolved
            )
            parameters.append(EventParameter(pname, placeholder))
            if isinstance(resolved, _PendingType):
                pendings.append((index, resolved))
        spec = EventSpec(label, meaning, tuple(parameters), creation=creation)
        self._klass.add_event(spec)
        for index, pending in pendings:
            self._pending_params.append((spec, index, pending))
        return self

    def state(
        self, name: str, number: int, activity: str = "", final: bool = False
    ) -> "ClassBuilder":
        self._klass.statemachine.add_state(State(name, number, activity, final=final))
        return self

    def initial(self, state_name: str) -> "ClassBuilder":
        self._klass.statemachine.initial_state = state_name
        return self

    def trans(self, from_state: str, event_label: str, to_state: str) -> "ClassBuilder":
        self._klass.statemachine.add_transition(from_state, event_label, to_state)
        return self

    def creation(self, event_label: str, to_state: str) -> "ClassBuilder":
        self._klass.statemachine.add_creation_transition(event_label, to_state)
        return self

    def ignore(self, state: str, event_label: str) -> "ClassBuilder":
        self._klass.statemachine.set_ignored(state, event_label)
        return self

    def cant_happen(self, state: str, event_label: str) -> "ClassBuilder":
        self._klass.statemachine.set_cant_happen(state, event_label)
        return self

    def operation(
        self,
        name: str,
        body: str = "",
        instance_based: bool = True,
        returns: str | DataType | None = None,
        params: list[tuple[str, str | DataType]] | None = None,
    ) -> "ClassBuilder":
        parameters = tuple(
            EventParameter(pname, _resolve_now(ptype, self._cb._component))
            for pname, ptype in (params or [])
        )
        rtype = (
            _resolve_now(returns, self._cb._component) if returns is not None else None
        )
        self._klass.add_operation(
            Operation(name, body, instance_based, rtype, parameters)
        )
        return self

    def _finalize(self, component: Component) -> None:
        for attribute, pending in self._pending_attr_types:
            attribute.dtype = pending.resolve(component)
        for spec, index, pending in self._pending_params:
            old = spec.parameters[index]
            resolved = pending.resolve(component)
            spec.parameters = spec.parameters[:index] + (
                EventParameter(old.name, resolved),
            ) + spec.parameters[index + 1:]


def _resolve_now(spec: str | DataType, component: Component) -> DataType:
    resolved = _as_type(spec)
    if isinstance(resolved, _PendingType):
        return resolved.resolve(component)
    return resolved


class ExternalBuilder:
    """Builder facade over one :class:`ExternalEntity`."""

    def __init__(self, component: Component, external: ExternalEntity):
        self._component = component
        self._external = external

    def bridge(
        self,
        name: str,
        params: list[tuple[str, str | DataType]] | None = None,
        returns: str | DataType | None = None,
    ) -> "ExternalBuilder":
        parameters = tuple(
            EventParameter(pname, _resolve_now(ptype, self._component))
            for pname, ptype in (params or [])
        )
        rtype = _resolve_now(returns, self._component) if returns is not None else None
        self._external.add_bridge(BridgeSpec(name, parameters, rtype))
        return self


class ComponentBuilder:
    """Builder facade over one :class:`Component`."""

    def __init__(self, component: Component):
        self._component = component
        self._class_builders: list[ClassBuilder] = []
        self._next_class_number = 1

    def enum(self, name: str, enumerators: list[str]) -> "ComponentBuilder":
        self._component.types.define_enum(name, tuple(enumerators))
        return self

    def klass(self, name: str, key_letters: str, number: int | None = None) -> ClassBuilder:
        if number is None:
            number = self._next_class_number
        self._next_class_number = max(self._next_class_number, number + 1)
        model_class = ModelClass(name, key_letters, number)
        self._component.add_class(model_class)
        builder = ClassBuilder(self, model_class)
        self._class_builders.append(builder)
        return builder

    def ext(self, key_letters: str, name: str = "") -> ExternalBuilder:
        external = ExternalEntity(key_letters, name)
        self._component.add_external(external)
        return ExternalBuilder(self._component, external)

    def assoc(
        self,
        number: str,
        one: tuple[str, str, str],
        other: tuple[str, str, str],
        link: str | None = None,
    ) -> "ComponentBuilder":
        """Add an association: ends are ``(class_key, phrase, multiplicity)``."""
        end_one = AssociationEnd(one[0], one[1], parse_multiplicity(one[2]))
        end_other = AssociationEnd(other[0], other[1], parse_multiplicity(other[2]))
        self._component.add_association(
            Association(number, end_one, end_other, link_class_key=link)
        )
        return self

    def _finalize(self) -> None:
        for builder in self._class_builders:
            builder._finalize(self._component)


class ModelBuilder:
    """Top-level builder producing a checked :class:`Model`."""

    def __init__(self, name: str, description: str = ""):
        self._model = Model(name, description)
        self._component_builders: list[ComponentBuilder] = []

    def component(self, name: str, description: str = "") -> ComponentBuilder:
        component = Component(name, description)
        self._model.add_component(component)
        builder = ComponentBuilder(component)
        self._component_builders.append(builder)
        return builder

    def build(self, check: bool = True) -> Model:
        """Finalize pending types and (optionally) verify well-formedness;
        an ERROR raises :class:`WellFormednessError`."""
        for builder in self._component_builders:
            builder._finalize()
        if check:
            check_model(self._model, strict=True)
        return self._model
