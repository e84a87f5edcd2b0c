"""The model executor.

:class:`Simulation` runs one component of a model exactly by the paper's
rules: concurrently executing instance state machines, signal-only
communication, and run-to-completion action execution — "a model can be
executed independent of implementation" (section 2).

One :meth:`step` dispatches one signal: the scheduler picks a ready
source, the target's state table answers TRANSITION / IGNORE /
CANT_HAPPEN, and on a transition the destination state's activity runs to
completion (possibly generating further signals, creating and deleting
instances, starting timers) before any other signal is consumed.  That
life cycle is :class:`~repro.runtime.dispatcher.Dispatcher`, shared with
the architecture runtimes, with the standard bridges, the one
instance-and-link store and the one activity runner; this class loads
the model's lowering and adds the model's own check of a send its
tables lack, declared-bridge checks and the pluggable
:class:`Scheduler`.

For the E6 ablation the simulator also supports ``eager_dispatch=True``,
which *breaks* run-to-completion on purpose by delivering generated
signals immediately, mid-activity — the causality checker then shows
exactly the cause-and-effect violations the paper's rules exist to
prevent.
"""

from __future__ import annotations

from repro.exec import IRExecutor, lower_component
from repro.obs.metrics import active_registry
from repro.oal.errors import OALRuntimeError
from repro.xuml.component import Component
from repro.xuml.model import Model

from .dispatcher import Dispatcher
from .errors import SelectionError, SimulationError
from .events import SignalInstance
from .scheduler import Scheduler, SynchronousScheduler


class Simulation(Dispatcher):
    """Executable instance of one model component.

    Parameters
    ----------
    model:
        A well-formed model.
    component:
        Component name; defaults to the model's only component.
    scheduler:
        Dispatch policy (default: :class:`SynchronousScheduler`).
    cant_happen:
        ``"error"`` (raise, the default) or ``"record"`` (count and go on).
    eager_dispatch:
        Ablation switch: deliver generated signals immediately instead of
        queueing them (violates run-to-completion; see E6).
    self_priority:
        Ablation switch: ``False`` disables the self-directed-events-
        first queue rule (plain FIFO per instance; see E6).
    """

    #: the platform verification results are reported under
    name = "abstract-model"

    def __init__(
        self,
        model: Model,
        component: str | None = None,
        scheduler: Scheduler | None = None,
        cant_happen: str = "error",
        eager_dispatch: bool = False,
        self_priority: bool = True,
    ):
        self.model = model
        if component is None:
            components = model.components
            if len(components) != 1:
                raise SimulationError(
                    "model has several components; name one explicitly"
                )
            self.component: Component = components[0]
        else:
            self.component = model.component(component)
        super().__init__(self_priority)
        self.scheduler = scheduler or SynchronousScheduler()
        self.cant_happen_policy = cant_happen
        self.eager_dispatch = eager_dispatch
        # One lowering per model content (fingerprint-cached), one shared
        # evaluator: the abstract runtime executes literally the same IR
        # through literally the same code as csim and vsim.
        self._load_tables(lower_component(model, self.component))
        self.executor = IRExecutor(
            error=OALRuntimeError, selection_error=SelectionError)

        # observability: bind metrics once at construction; when no
        # registry is active every hook is one `is not None` test
        registry = active_registry()
        if registry is None:
            self._metric_dispatches = None
            self._metric_queue_depth = None
            self._metric_wait = None
        else:
            self._on_dispatch = Simulation._observe_dispatch
            self._metric_dispatches = registry.counter("runtime.dispatches")
            self._metric_queue_depth = registry.histogram(
                "runtime.queue_depth")
            self._metric_wait = registry.histogram("runtime.dispatch_wait_us")

    # bound in this class's own namespace so the runtime.instance_lookup
    # span resolves
    instance = Dispatcher.instance
    instances_of = Dispatcher.instances_of

    # -- signals ---------------------------------------------------------------------

    def _unlisted_send(self, class_key: str, label: str, creation: bool):
        """A send the accept map lacks: the model raises its own error."""
        event = self.component.klass(class_key).event(label)  # validates
        if creation and not event.creation:
            raise SimulationError(f"{class_key}.{label} is not a creation event")

    def _enqueue(self, signal: SignalInstance, delay: int) -> None:
        """``Dispatcher._enqueue`` written out (no extra call per send), plus
        the ``eager_dispatch`` ablation: break run-to-completion by
        delivering a send from inside an activity immediately.  A method,
        not a per-instance binding, which would make a reference cycle."""
        if delay > 0:
            self.pool.push_delayed(signal, self.now + delay)
        elif (self.eager_dispatch and self._activity_stack
              and not signal.is_creation):
            self.dispatch(signal)
        else:
            self.pool.push_ready(signal)

    # -- bridges -------------------------------------------------------------------------

    def call_bridge(self, self_handle, entity: str, operation: str, kwargs: dict):
        self.component.external(entity).bridge(operation)  # validates
        return super().call_bridge(self_handle, entity, operation, kwargs)

    # -- dispatch -----------------------------------------------------------------------

    # bound in this class's own namespace so the runtime.step span resolves
    step = Dispatcher.step

    def _observe_dispatch(self, source: int) -> None:
        self._metric_dispatches.inc()
        self._metric_queue_depth.observe(self.pool.ready_count)
        self._metric_wait.observe(self.now - self.pool.peek(source).sent_at)
