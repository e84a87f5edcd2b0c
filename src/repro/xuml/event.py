"""Event (signal) specifications.

Paper section 2: "State machines communicate only by sending signals."
An :class:`EventSpec` is the declaration of one such signal for a class:
its label (e.g. ``MO1``), meaning, and typed data items it carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .datatypes import DataType
from .tracked import Tracked


@dataclass(frozen=True)
class EventParameter:
    """One typed data item carried by an event."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"event parameter name {self.name!r} is not an identifier")


@dataclass
class EventSpec(Tracked):
    """Declaration of a signal a class's state machine can receive.

    Parameters
    ----------
    label:
        Short unique label within the class, conventionally the class key
        letters plus a number (``MO1``).  Used by OAL ``generate``.
    meaning:
        Human-readable phrase ("door opened").
    parameters:
        Ordered typed data items.
    creation:
        True if this event creates a new instance (creation transition)
        rather than being delivered to an existing one.
    """

    label: str
    meaning: str = ""
    parameters: tuple[EventParameter, ...] = field(default_factory=tuple)
    creation: bool = False

    def __post_init__(self) -> None:
        if not self.label.isidentifier():
            raise ValueError(f"event label {self.label!r} is not an identifier")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"event {self.label} has duplicate parameter names")

    def parameter(self, name: str) -> EventParameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(f"event {self.label} has no parameter {name!r}")

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)
