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
the architecture runtimes, with the standard bridges; this class adds
model-backed storage, links, declared-bridge checks and the pluggable
:class:`Scheduler`.

For the E6 ablation the simulator also supports ``eager_dispatch=True``,
which *breaks* run-to-completion on purpose by delivering generated
signals immediately, mid-activity — the causality checker then shows
exactly the cause-and-effect violations the paper's rules exist to
prevent.
"""

from __future__ import annotations

from repro.exec import IRExecutor, LoweredComponent, lower_component
from repro.obs.metrics import active_registry
from repro.oal.errors import OALRuntimeError
from repro.xuml.component import Component
from repro.xuml.model import Model
from repro.xuml.statemachine import EventResponse

from .dispatcher import Dispatcher
from .errors import SelectionError, SimulationError
from .events import SignalInstance
from .instances import Instance, Population
from .links import LinkStore
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
        self.links = LinkStore(self.component)
        self.cant_happen_policy = cant_happen
        self.eager_dispatch = eager_dispatch
        if eager_dispatch:
            self._enqueue = self._enqueue_eagerly
        self._populations: dict[str, Population] = {
            klass.key_letters: Population(klass) for klass in self.component.classes
        }
        # One lowering per model content (fingerprint-cached), one shared
        # evaluator: the abstract runtime executes literally the same IR
        # through literally the same code as csim and vsim.
        self._lowered: LoweredComponent = lower_component(model, self.component)
        self.executor = IRExecutor(
            self, error=OALRuntimeError, selection_error=SelectionError
        )

        # observability: bind metrics once at construction; when no
        # registry is active every hook is one `is not None` test
        registry = active_registry()
        if registry is None:
            self._metric_dispatches = None
            self._metric_queue_depth = None
            self._metric_wait = None
        else:
            self._on_dispatch = self._observe_dispatch
            self._metric_dispatches = registry.counter("runtime.dispatches")
            self._metric_queue_depth = registry.histogram(
                "runtime.queue_depth",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256))
            self._metric_wait = registry.histogram(
                "runtime.dispatch_wait_us",
                buckets=(0, 1, 10, 100, 1_000, 10_000, 100_000, 1_000_000))

    # -- population --------------------------------------------------------------

    def population(self, class_key: str) -> Population:
        try:
            return self._populations[class_key]
        except KeyError:
            raise SimulationError(f"no class {class_key!r} in component") from None

    def _store_instance(self, class_key: str, handle: int,
                        attribute_values: dict) -> str | None:
        instance = self.population(class_key).create(handle)
        for name, value in attribute_values.items():
            instance.set(name, value)
        return instance.current_state

    def _forget_instance(self, handle: int) -> str:
        class_key = self.instance(handle).class_key
        self.population(class_key).delete(handle)
        self.links.drop_instance(handle)
        return class_key

    def instance(self, handle: int) -> Instance:
        for population in self._populations.values():
            if population.has(handle):
                return population.get(handle)
        raise SimulationError(f"no live instance #{handle}")

    def class_of(self, handle: int) -> str:
        return self.instance(handle).class_key

    def instances_of(self, class_key: str) -> tuple[int, ...]:
        return tuple(sorted(i.handle for i in self.population(class_key)))

    def state_of(self, handle: int) -> str | None:
        return self.instance(handle).current_state

    # -- attributes ----------------------------------------------------------------

    def read_attribute(self, handle: int, name: str):
        instance = self.instance(handle)
        klass = self.component.klass(instance.class_key)
        attribute = klass.attribute(name)
        if attribute.derived is not None:
            ir = self._lowered.derived[(instance.class_key, name)]
            return self.executor.run(ir, handle, {})
        return instance.get(name)

    def write_attribute(self, handle: int, name: str, value) -> None:
        self.instance(handle).set(name, value)

    # -- links ------------------------------------------------------------------------

    def relate(self, left: int, right: int, association_number: str, phrase=None):
        association = self.component.association(association_number)
        self.links.relate(
            association,
            left, self.class_of(left),
            right, self.class_of(right),
            phrase,
        )

    def unrelate(self, left: int, right: int, association_number: str, phrase=None):
        association = self.component.association(association_number)
        self.links.unrelate(
            association,
            left, self.class_of(left),
            right, self.class_of(right),
            phrase,
        )

    def navigate(
        self, handle: int, association_number: str, to_class: str, phrase=None
    ) -> tuple[int, ...]:
        association = self.component.association(association_number)
        return self.links.navigate(
            association, handle, self.class_of(handle), to_class, phrase
        )

    def referential_violations(self) -> list[str]:
        populations = {
            key: [i.handle for i in population]
            for key, population in self._populations.items()
        }
        return self.links.integrity_violations(populations)

    # -- signals ---------------------------------------------------------------------

    def _check_event(self, class_key: str, label: str, creation: bool) -> None:
        event = self.component.klass(class_key).event(label)  # validates
        if creation and not event.creation:
            raise SimulationError(f"{class_key}.{label} is not a creation event")

    def _enqueue_eagerly(self, signal: SignalInstance, delay: int) -> None:
        """The ``eager_dispatch`` ablation: break run-to-completion by
        delivering a send from inside an activity immediately."""
        if self._activity_stack and delay <= 0 and not signal.is_creation:
            self.dispatch(signal)
        else:
            Dispatcher._enqueue(self, signal, delay)

    # -- bridges and operations ----------------------------------------------------------

    def call_bridge(self, self_handle, entity: str, operation: str, kwargs: dict):
        self.component.external(entity).bridge(operation)  # validates
        return super().call_bridge(self_handle, entity, operation, kwargs)

    def call_instance_operation(self, handle: int, name: str, kwargs: dict):
        class_key = self.class_of(handle)
        ir = self._lowered.operations[(class_key, name)]
        return self.executor.run(ir, handle, kwargs)

    def call_class_operation(self, class_key: str, name: str, kwargs: dict):
        ir = self._lowered.operations[(class_key, name)]
        return self.executor.run(ir, None, kwargs)

    # -- dispatch -----------------------------------------------------------------------

    # bound in this class's own namespace so the runtime.step span resolves
    step = Dispatcher.step

    def _observe_dispatch(self, source: int) -> None:
        self._metric_dispatches.inc()
        self._metric_queue_depth.observe(self.pool.ready_count)
        self._metric_wait.observe(self.now - self.pool.peek(source).sent_at)

    def _target(self, class_key: str, handle: int) -> Instance | None:
        population = self._populations.get(class_key)
        if population is None or not population.has(handle):
            return None
        return population.get(handle)

    @staticmethod
    def _state_of(instance: Instance) -> str | None:
        return instance.current_state

    @staticmethod
    def _set_state(instance: Instance, state: str) -> None:
        instance.current_state = state

    def _transition(self, signal: SignalInstance, state: str):
        machine = self.component.klass(signal.class_key).statemachine
        response = machine.response_to(state, signal.label)
        if response is EventResponse.TRANSITION:
            return machine.transition_for(state, signal.label).to_state
        return response

    def _creation_state(self, signal: SignalInstance) -> str:
        klass = self.component.klass(signal.class_key)
        creation = klass.statemachine.creation_transition_for(signal.label)
        if creation is None:
            raise SimulationError(
                f"no creation transition for {signal.class_key}.{signal.label}"
            )
        return creation.to_state

    def _run_state_activity(
        self, instance: Instance, state_name: str, signal: SignalInstance
    ) -> None:
        key = (instance.class_key, state_name)
        params = {
            name: signal.params.get(name)
            for name in self._lowered.event_parameters[key]
        }
        self._run_to_completion(
            instance.handle, instance.class_key, state_name, signal,
            self._lowered.activities[key], params,
        )
