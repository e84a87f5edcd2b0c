"""External entities and bridges.

An external entity is xtUML's stand-in for everything outside the modelled
component: device drivers, the timer service, a logging console, the
architecture underneath.  The action language calls *bridges* on them
(``TIM::timer_start(...)``), and every executor dispatches those calls
to the Python callables in its ``bridges`` table — or, in generated code, to
whatever the model compiler's architecture supplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .datatypes import DataType
from .errors import DuplicateElementError, UnknownElementError
from .event import EventParameter
from .tracked import Tracked, bump


@dataclass
class BridgeSpec(Tracked):
    """Declaration of one bridge operation on an external entity."""

    name: str
    parameters: tuple[EventParameter, ...] = field(default_factory=tuple)
    returns: DataType | None = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"bridge name {self.name!r} is not an identifier")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"bridge {self.name} has duplicate parameter names")


class ExternalEntity(Tracked):
    """A named external entity owning a set of bridges."""

    def __init__(self, key_letters: str, name: str = ""):
        if not key_letters.isidentifier():
            raise ValueError(f"key letters {key_letters!r} are not an identifier")
        self.key_letters = key_letters
        self.name = name or key_letters
        self._bridges: dict[str, BridgeSpec] = {}

    def add_bridge(self, bridge: BridgeSpec) -> BridgeSpec:
        if bridge.name in self._bridges:
            raise DuplicateElementError(
                f"{self.key_letters}: bridge {bridge.name!r} already defined"
            )
        bump()
        self._bridges[bridge.name] = bridge
        return bridge

    def bridge(self, name: str) -> BridgeSpec:
        try:
            return self._bridges[name]
        except KeyError:
            raise UnknownElementError(
                f"external entity {self.key_letters} has no bridge {name!r}"
            ) from None

    def has_bridge(self, name: str) -> bool:
        return name in self._bridges

    @property
    def bridges(self) -> tuple[BridgeSpec, ...]:
        return tuple(self._bridges.values())
