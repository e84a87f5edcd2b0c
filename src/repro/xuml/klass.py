"""Model classes.

A :class:`ModelClass` is the unit the paper's whole argument revolves
around: it owns attributes, identifiers, event declarations and a state
machine, and it is the granule at which marks assign elements to hardware
or software (section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attribute import Attribute, Identifier
from .errors import DuplicateElementError, UnknownElementError
from .event import EventSpec
from .statemachine import StateMachine
from .tracked import Tracked, bump


@dataclass
class Operation(Tracked):
    """A synchronous class-based or instance-based operation.

    xtUML allows synchronous services in addition to signals; the profile
    keeps them for computations (e.g. a CRC step) that have no lifecycle.
    ``body`` is OAL text; ``instance_based`` selects whether ``self`` is
    available inside the body.
    """

    name: str
    body: str = ""
    instance_based: bool = True
    returns: object | None = None  # DataType or None
    parameters: tuple = field(default_factory=tuple)  # of EventParameter


class _DerivedOperation(Operation):
    """An operation computed from a derived attribute, never an element
    of a model: building one is no edit, so it leaves the revision (and
    every memo keyed on it) where it was."""

    __setattr__ = object.__setattr__


def derived_operation(attribute: Attribute) -> Operation:
    """The instance operation that computes a derived attribute:
    ``return <derived expression>;``, returning the attribute's type.
    The well-formedness check and the lowering both read this one form."""
    return _DerivedOperation(
        f"derived_{attribute.name}",
        f"return {attribute.derived};",
        instance_based=True,
        returns=attribute.dtype,
    )


class ModelClass(Tracked):
    """One class of a component.

    Parameters
    ----------
    name:
        Full class name ("Microwave Oven" is spelled ``MicrowaveOven``).
    key_letters:
        Short unique abbreviation ("MO") used by the action language and
        as the basis of generated C/VHDL identifiers.
    number:
        Class number, unique in the component (used in generated headers).
    """

    def __init__(self, name: str, key_letters: str, number: int):
        if not name.isidentifier():
            raise ValueError(f"class name {name!r} is not an identifier")
        if not key_letters.isidentifier():
            raise ValueError(f"key letters {key_letters!r} are not an identifier")
        self.name = name
        self.key_letters = key_letters
        self.number = number
        self.statemachine = StateMachine()
        self._attributes: dict[str, Attribute] = {}
        self._identifiers: dict[int, Identifier] = {}
        self._events: dict[str, EventSpec] = {}
        self._operations: dict[str, Operation] = {}

    # -- attributes ----------------------------------------------------------

    def add_attribute(self, attribute: Attribute) -> Attribute:
        if attribute.name in self._attributes:
            raise DuplicateElementError(
                f"{self.key_letters}: attribute {attribute.name!r} already defined"
            )
        bump()
        self._attributes[attribute.name] = attribute
        return attribute

    def attribute(self, name: str) -> Attribute:
        try:
            return self._attributes[name]
        except KeyError:
            raise UnknownElementError(
                f"{self.key_letters} has no attribute {name!r}"
            ) from None

    def has_attribute(self, name: str) -> bool:
        return name in self._attributes

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return tuple(self._attributes.values())

    # -- identifiers -----------------------------------------------------------

    def add_identifier(self, identifier: Identifier) -> Identifier:
        if identifier.number in self._identifiers:
            raise DuplicateElementError(
                f"{self.key_letters}: identifier I{identifier.number} already defined"
            )
        bump()
        self._identifiers[identifier.number] = identifier
        return identifier

    @property
    def identifiers(self) -> tuple[Identifier, ...]:
        return tuple(self._identifiers.values())

    # -- events ----------------------------------------------------------------

    def add_event(self, event: EventSpec) -> EventSpec:
        if event.label in self._events:
            raise DuplicateElementError(
                f"{self.key_letters}: event {event.label!r} already defined"
            )
        bump()
        self._events[event.label] = event
        return event

    def event(self, label: str) -> EventSpec:
        try:
            return self._events[label]
        except KeyError:
            raise UnknownElementError(
                f"{self.key_letters} has no event {label!r}"
            ) from None

    def has_event(self, label: str) -> bool:
        return label in self._events

    @property
    def events(self) -> tuple[EventSpec, ...]:
        return tuple(self._events.values())

    # -- operations --------------------------------------------------------------

    def add_operation(self, operation: Operation) -> Operation:
        if operation.name in self._operations:
            raise DuplicateElementError(
                f"{self.key_letters}: operation {operation.name!r} already defined"
            )
        bump()
        self._operations[operation.name] = operation
        return operation

    def operation(self, name: str) -> Operation:
        try:
            return self._operations[name]
        except KeyError:
            raise UnknownElementError(
                f"{self.key_letters} has no operation {name!r}"
            ) from None

    @property
    def operations(self) -> tuple[Operation, ...]:
        return tuple(self._operations.values())

    # -- misc ----------------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        """True when the class has a lifecycle (a non-empty state machine)."""
        return not self.statemachine.is_empty()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ModelClass {self.key_letters} ({self.name})>"
