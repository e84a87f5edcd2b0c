"""Execution runtime for Executable UML models.

* :class:`Simulation` — the model executor (run-to-completion semantics)
* :class:`~repro.runtime.dispatcher.Dispatcher` — the signal life cycle
  and ``LOG``/``TIM`` bridges every executor shares (``bridges`` dict)
* schedulers — legal refinements of the profile's concurrency freedom
* :class:`Trace` — the observable record every other subsystem consumes
* :func:`check_trace` — machine-checkable causality (paper section 2)
"""

from .causality import (
    CausalityViolation,
    check_causality,
    check_receiver_fifo,
    check_trace,
)
from .errors import (
    BridgeError,
    CantHappenError,
    DeadInstanceError,
    MultiplicityError,
    SelectionError,
    SimulationError,
)
from repro.exec import c_div, c_mod

from .events import EventPool, InstanceQueue, SignalInstance
from .instances import Instance, Population
from .links import LinkStore
from .scheduler import (
    CREATION,
    InterleavedScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    Scheduler,
    SynchronousScheduler,
)
from .simulator import Simulation
from .tracing import Trace, TraceEvent, TraceKind

__all__ = [
    "BridgeError",
    "CREATION",
    "CantHappenError",
    "CausalityViolation",
    "DeadInstanceError",
    "EventPool",
    "Instance",
    "InstanceQueue",
    "InterleavedScheduler",
    "LinkStore",
    "MultiplicityError",
    "Population",
    "PriorityScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "SelectionError",
    "SignalInstance",
    "Simulation",
    "SimulationError",
    "SynchronousScheduler",
    "Trace",
    "TraceEvent",
    "TraceKind",
    "c_div",
    "c_mod",
    "check_causality",
    "check_receiver_fifo",
    "check_trace",
]
