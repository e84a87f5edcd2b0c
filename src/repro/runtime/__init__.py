"""Execution runtime for Executable UML models.

* :class:`Simulation` — the model executor (run-to-completion semantics)
* :class:`~repro.runtime.dispatcher.Dispatcher` — the signal life cycle
  and ``LOG``/``TIM`` bridges every executor shares (``bridges`` dict)
* schedulers — legal refinements of the profile's concurrency freedom
* :class:`Trace` — the observable record every other subsystem consumes
* :class:`CausalIndex` — a trace's cause-and-effect edges, read once;
  :func:`check_trace` checks them (paper section 2)
"""

from .causality import (
    CausalIndex,
    CausalityViolation,
    check_causality,
    check_receiver_fifo,
    check_trace,
)
from .errors import (
    BridgeError,
    CantHappenError,
    MultiplicityError,
    SelectionError,
    SimulationError,
)
from repro.exec import c_div, c_mod

from .events import EventPool, InstanceQueue, SignalInstance
from .instances import Instance
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
    "CausalIndex",
    "CausalityViolation",
    "EventPool",
    "Instance",
    "InstanceQueue",
    "InterleavedScheduler",
    "LinkStore",
    "MultiplicityError",
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
