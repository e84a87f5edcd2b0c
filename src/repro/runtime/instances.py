"""Instance records.

An :class:`Instance` is one live object: its handle, its class, its
attribute values and (for an active class) its current state.  The one
store that keeps them is :class:`~repro.runtime.dispatcher.Dispatcher`,
shared by every executor.  Handles are plain integers, unique across
the whole run, so traces from different executors correlate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SimulationError


@dataclass(slots=True)
class Instance:
    """One live object."""

    handle: int
    class_key: str
    attributes: dict[str, object] = field(default_factory=dict)
    current_state: str | None = None

    def get(self, name: str) -> object:
        try:
            return self.attributes[name]
        except KeyError:
            raise SimulationError(
                f"instance {self.class_key}#{self.handle} has no attribute {name!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f" in {self.current_state}" if self.current_state else ""
        return f"<{self.class_key}#{self.handle}{state}>"
