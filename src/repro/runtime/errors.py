"""Runtime error types."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for execution-time errors."""


class CantHappenError(SimulationError):
    """An event arrived in a state whose table says it can't happen."""


class MultiplicityError(SimulationError):
    """A relate/unrelate violated the association's declared multiplicity."""


class SelectionError(SimulationError):
    """A 'select one' navigation produced more than one instance."""


class BridgeError(SimulationError):
    """A bridge was called but no implementation is registered."""
