"""The one dispatch core every executor shares.

The abstract runtime (:class:`repro.runtime.Simulation`) and the
architecture runtimes (:class:`repro.mda.archrt.TargetMachine`: csim,
vsim and the co-simulation) execute the same signal life cycle: a send
is stamped, traced and queued; a dispatch looks the target up, consults
its state table and either drops the signal or consumes it, takes the
transition and runs the destination state's activity to completion.
:class:`Dispatcher` is that life cycle, written once, so every executor
emits the same trace records in the same order by construction.

It is also the one instance-and-link store: a handle -> :class:`Instance`
map, per-class extents and one :class:`LinkStore`.  Each executor hands
it one :class:`~repro.exec.cache.LoweredComponent` from its constructor
(:meth:`Dispatcher._load_tables`): per class its attribute defaults and
initial state, the associations, the state tables and the lowered
activity, operation and derived-attribute IR, so a send checks its label
and a dispatch finds its transition and runs its activity with one dict
lookup each.  The abstract runtime loads the lowering of its model, the
architecture runtimes (csim, vsim and the co-simulation) the one their
build manifest carries: the same object, unless the manifest was
unpickled from the build store.  Executors differ only in

* **source policy** -- which ready source dispatches next: a
  :class:`~repro.runtime.scheduler.Scheduler` for the step-driven
  executors, the per-edge snapshot for vsim, the timed resources for the
  co-simulation;
* **time** -- what one instant dispatches and when the next one is.
  The loop between instants, :meth:`Dispatcher.advance`, is written once,
  so every executor shares one boundary rule.

The standard bridge services (:data:`STANDARD_BRIDGES`) are written here
once too, so ``LOG`` and ``TIM`` mean the same on every executor: a
``TIM::timer_start`` is an ordinary delayed self-send, traced as
``SIGNAL_SENT`` like any other.
"""

from __future__ import annotations

import math

from repro.xuml.statemachine import EventResponse

from .errors import (
    BridgeError,
    CantHappenError,
    MultiplicityError,
    SimulationError,
)
from .events import CREATION, EventPool, SignalInstance
from .instances import Instance
from .links import LinkStore
from .tracing import Trace, TraceKind

# Enum members bound once: an ``Enum`` attribute read costs ~10x a module
# global's, and a consumed signal needs seven of them.
_IGNORE = EventResponse.IGNORE
_CANT_HAPPEN = EventResponse.CANT_HAPPEN
_INSTANCE_CREATED = TraceKind.INSTANCE_CREATED
_SIGNAL_SENT = TraceKind.SIGNAL_SENT
_SIGNAL_CONSUMED = TraceKind.SIGNAL_CONSUMED
_SIGNAL_IGNORED = TraceKind.SIGNAL_IGNORED
_TRANSITION = TraceKind.TRANSITION
_ACTIVITY_START = TraceKind.ACTIVITY_START
_ACTIVITY_END = TraceKind.ACTIVITY_END
_BRIDGE_CALL = TraceKind.BRIDGE_CALL


# -- standard bridge services ------------------------------------------------
# Each is ``impl(executor, self_handle, **params)``; the declared bridge
# parameters arrive by keyword.

def _log_info(executor, self_handle, message: str = "") -> None:
    executor.trace.record(executor.now, TraceKind.LOG,
                          {"message": str(message)})


def _log_metric(executor, self_handle, name: str = "",
                value: float = 0.0) -> None:
    executor.metrics.setdefault(str(name), []).append(
        (executor.now, float(value)))


def _tim_current_time(executor, self_handle) -> int:
    return executor.now


def _tim_timer_start(executor, self_handle, duration: int = 0,
                     event: str = "") -> int:
    """Schedule *event* back to the caller; returns the signal's stamp."""
    return executor.send_signal(
        self_handle, executor.class_of(self_handle), str(event),
        sender=self_handle, delay=int(duration),
    ).sequence


def _tim_timer_cancel(executor, self_handle, event: str = "") -> int:
    return executor.cancel_timer(self_handle, str(event))


#: (entity, operation) -> implementation; every executor starts from a
#: copy in its ``bridges`` table, where callers add custom bridges
STANDARD_BRIDGES = {
    ("LOG", "info"): _log_info,
    ("LOG", "metric"): _log_metric,
    ("TIM", "current_time"): _tim_current_time,
    ("TIM", "timer_start"): _tim_timer_start,
    ("TIM", "timer_cancel"): _tim_timer_cancel,
}


class Dispatcher:
    """Stamping, tracing, queueing, run-to-completion dispatch and the
    instance-and-link store.

    A subclass calls :meth:`_load_tables` once from its constructor and
    provides ``_unlisted_send``, its own check of a send the accept
    table lacks (it raises the executor's error for an unknown class or
    label, or lets the send through).  A step-driven subclass also sets
    ``scheduler``, the :class:`~repro.runtime.scheduler.Scheduler` that
    picks each step's source; an executor whose instant is not one
    ``step`` sets ``whole_instants`` and provides ``_dispatch_now``
    instead, and a clock other than the model's microsecond sets
    ``ticks_per_us``.  Each concrete executor sets ``name``; that, the
    population and stimulus calls, the run loops and the state,
    attribute and trace reads are the surface
    :func:`repro.verify.run_case` drives.

    Every dispatch passes through here, so the hot path is kept flat:
    the hot trace kinds append their record through ``_append`` (the
    trace list's own ``append``), and an empty activity skips the
    evaluator (see :meth:`_run_state_activity`).
    """

    #: raised by the run loops, on storage misuse (and, by default, on a
    #: can't-happen event)
    error: type[Exception] = SimulationError
    #: raised when a relate overflows an association end
    multiplicity_error: type[Exception] = MultiplicityError
    cant_happen_error: type[Exception] = CantHappenError
    #: raised by :meth:`call_bridge` when no implementation is registered
    bridge_error: type[Exception] = BridgeError
    cant_happen_policy = "error"
    #: model microseconds -> ticks of this executor's clock
    ticks_per_us = 1
    #: metrics hook, ``hook(executor, source)`` before each pop: a plain
    #: function (a bound method would make the executor a cycle); with
    #: metrics off a step pays one ``is None`` test
    _on_dispatch = None
    #: True when the executor's instant is its ``_dispatch_now()`` pass,
    #: which starts everything it can at ``now`` and returns how many
    #: services it started and the next instant (None: nothing is left
    #: to happen).  The loop calls it instead of ``step`` and
    #: ``_next_time``; a next instant of ``now`` itself means the instant
    #: is still open
    whole_instants = False

    def __init__(self, self_priority: bool = True):
        self.trace = Trace()
        #: the trace's list append, bound once: the hot kinds append
        #: their ``(time, kind, values)`` record with it, one call each
        self._append = self.trace.records().append
        self.pool = EventPool(self_priority)
        self.now = 0
        self.loop_bound = 100_000
        self.cant_happen_count = 0
        self._next_handle = 1
        self._next_sequence = 1
        self._next_activity = 1
        self._activity_stack: list[int] = []
        self.bridges = dict(STANDARD_BRIDGES)
        #: ``LOG::metric`` samples: name -> [(time, value), ...]
        self.metrics: dict[str, list[tuple[int, float]]] = {}

    # -- execution core ------------------------------------------------------

    @property
    def execution_core(self) -> str:
        """Which execution core serves this executor's actions."""
        from repro.exec import CORE_NAME

        return f"{CORE_NAME} (lowered action IR)"

    @property
    def ops_executed(self) -> int:
        """Dynamically executed IR statements (shared-core counter)."""
        return self.executor.ops_executed

    # -- the store ---------------------------------------------------------------

    def _load_tables(self, lowered) -> None:
        """Adopt *lowered*'s tables and start an empty store.

        *lowered* is a :class:`~repro.exec.cache.LoweredComponent`: its
        class table gives each class's attribute defaults and initial
        state, its associations the link store's shape, its IR maps the
        activities, operations and derived attributes, and its state
        tables what a send and a dispatch look up (an unlisted (class,
        state, label) can't happen).  Executors share it, so nothing here
        mutates it.
        """
        self._classes = lowered.classes
        self._activities = lowered.activities
        self._derived = lowered.derived
        self._operations = lowered.operations
        self._responses = lowered.responses
        self._creations = lowered.creations
        self._accepts = lowered.accepts
        self._instances: dict[int, Instance] = {}
        #: class key -> handle -> instance, in creation (= handle) order
        self._extents: dict[str, dict[int, Instance]] = {
            key: {} for key in lowered.classes}
        self.links = LinkStore(lowered.associations, self.error,
                               self.multiplicity_error)

    def create_instance(self, class_key: str, **attribute_values) -> int:
        try:
            defaults, state = self._classes[class_key]
        except KeyError:
            raise self.error(f"no class {class_key!r}") from None
        attributes = dict(defaults)
        for name in attribute_values:
            if name not in attributes:
                raise self.error(f"{class_key} has no attribute {name!r}")
        attributes.update(attribute_values)
        handle = self._next_handle
        self._next_handle += 1
        instance = Instance(handle, class_key, attributes, state)
        self._instances[handle] = instance
        self._extents[class_key][handle] = instance
        self._append((self.now, _INSTANCE_CREATED, (handle, class_key, state)))
        return handle

    def delete_instance(self, handle: int) -> None:
        class_key = self.instance(handle).class_key
        del self._instances[handle]
        del self._extents[class_key][handle]
        self.links.drop_instance(handle)
        dropped = self.pool.drop_instance(handle)
        self.trace.record(self.now, TraceKind.INSTANCE_DELETED,
                          handle, class_key, dropped)

    def instance(self, handle: int) -> Instance:
        try:
            return self._instances[handle]
        except KeyError:
            raise self.error(f"no live instance #{handle}") from None

    def class_of(self, handle: int) -> str:
        # the hottest store call (the co-sim routes every signal by it),
        # so it reads the map itself rather than through instance()
        try:
            return self._instances[handle].class_key
        except KeyError:
            raise self.error(f"no live instance #{handle}") from None

    def instances_of(self, class_key: str) -> tuple[int, ...]:
        """Live handles of *class_key*, sorted: handles are issued in
        increasing order, so an extent's creation order is sorted."""
        try:
            return tuple(self._extents[class_key])
        except KeyError:
            raise self.error(f"no class {class_key!r}") from None

    def state_of(self, handle: int) -> str | None:
        return self.instance(handle).current_state

    def read_attribute(self, handle: int, name: str):
        try:
            return self._instances[handle].attributes[name]
        except KeyError:
            pass
        instance = self.instance(handle)
        ir = self._derived.get((instance.class_key, name))
        if ir is None:
            raise self.error(
                f"{instance.class_key}#{handle} has no attribute {name!r}")
        return self.executor.run(self, ir, handle, {})

    def write_attribute(self, handle: int, name: str, value) -> None:
        try:
            instance = self._instances[handle]
        except KeyError:
            raise self.error(f"no live instance #{handle}") from None
        attributes = instance.attributes
        if name not in attributes:
            raise self.error(
                f"{instance.class_key}#{handle} has no attribute {name!r}")
        attributes[name] = value

    def relate(self, left: int, right: int, number: str,
               phrase: str | None = None) -> None:
        self.links.relate(number, left, self.class_of(left),
                          right, self.class_of(right), phrase)

    def unrelate(self, left: int, right: int, number: str,
                 phrase: str | None = None) -> None:
        self.links.unrelate(number, left, self.class_of(left),
                            right, self.class_of(right), phrase)

    def navigate(self, handle: int, number: str, to_class: str,
                 phrase: str | None = None) -> tuple[int, ...]:
        """Handles of *to_class* linked to *handle*: sorted, each once."""
        try:
            class_key = self._instances[handle].class_key   # class_of, inline
        except KeyError:
            raise self.error(f"no live instance #{handle}") from None
        return self.links.navigate(number, handle, class_key, to_class,
                                   phrase)

    def referential_violations(self) -> list[str]:
        """Live instances missing a partner at an unconditional end."""
        return self.links.integrity_violations(self._extents)

    # -- signals ---------------------------------------------------------------

    def send_signal(self, target: int, class_key: str, label: str,
                    params: dict | None = None, sender: int | None = None,
                    delay: int = 0) -> SignalInstance:
        """Queue (or, with delay, schedule) a signal to a live instance.
        The signal keeps *params* itself (:meth:`inject` copies them)."""
        if (class_key, label) not in self._accepts:
            self._unlisted_send(class_key, label, False)
        return self._send(target, class_key, label, params, sender, delay,
                          False)

    def send_creation(self, class_key: str, label: str,
                      params: dict | None = None, sender: int | None = None,
                      delay: int = 0) -> SignalInstance:
        """Queue a creation event: the instance is born when it dispatches.
        The signal keeps *params* itself, as :meth:`send_signal`'s does."""
        if not self._accepts.get((class_key, label)):
            self._unlisted_send(class_key, label, True)
        return self._send(None, class_key, label, params, sender, delay,
                          True)

    def _send(self, target, class_key, label, params, sender, delay,
              is_creation):
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        stack = self._activity_stack
        activity_id = stack[-1] if stack else 0
        now = self.now
        signal = SignalInstance(
            sequence, label, class_key, params or {}, target, sender,
            activity_id, now, is_creation)
        self._append((now, _SIGNAL_SENT,
                      (sequence, label, target, sender, activity_id, delay)))
        self._enqueue(signal, delay)
        return signal

    def inject(self, target: int, label: str, params: dict | None = None,
               delay: int = 0) -> SignalInstance:
        """Send a signal from the environment (test benches, stimuli),
        with a copy of *params*: the caller keeps its dict."""
        return self.send_signal(
            target, self.class_of(target), label, dict(params or {}),
            sender=None, delay=delay,
        )

    def _enqueue(self, signal: SignalInstance, delay: int) -> None:
        if delay > 0:
            self.pool.push_delayed(signal, self.now + delay)
        else:
            self.pool.push_ready(signal)

    def cancel_timer(self, handle: int, label: str) -> int:
        """Drop *handle*'s pending delayed *label* signals; returns how many."""
        return self.pool.cancel_delayed(
            lambda s: s.target_handle == handle and s.label == label
        )

    # -- operations and bridges ---------------------------------------------------

    def call_class_operation(self, class_key: str, name: str, kwargs: dict):
        return self.executor.run(self, self._operations[class_key, name],
                                 None, kwargs)

    def call_instance_operation(self, handle: int, name: str, kwargs: dict):
        return self.executor.run(
            self, self._operations[self.class_of(handle), name], handle,
            kwargs)

    def call_bridge(self, self_handle, entity, operation, kwargs: dict):
        """Trace a bridge call and run its implementation from ``bridges``."""
        self._append((self.now, _BRIDGE_CALL, (entity, operation, self_handle)))
        impl = self.bridges.get((entity, operation))
        if impl is None:
            raise self.bridge_error(
                f"no implementation registered for {entity}::{operation}")
        return impl(self, self_handle, **kwargs)

    # -- dispatch ----------------------------------------------------------------

    def dispatch(self, signal: SignalInstance) -> None:
        """Consume *signal* by the profile's rules, tracing every outcome."""
        class_key, label = signal.class_key, signal.label
        if signal.is_creation:
            to_state = self._creations.get((class_key, label))
            if to_state is None:
                raise self.error(
                    f"no creation transition for {class_key}.{label}")
            handle = self.create_instance(class_key)
            target = self._instances[handle]
            from_state = None
        else:
            handle = signal.target_handle
            try:
                target = self._instances[handle]
            except KeyError:
                # the receiver died while the signal was in flight
                self._drop(signal, "target deleted")
                return
            if target.class_key != class_key:
                raise self.error(f"signal {class_key}.{label} addressed "
                                 f"to #{handle}, a live {target.class_key}")
            from_state = target.current_state
            try:
                to_state = self._responses[class_key, from_state, label]
            except KeyError:
                to_state = _CANT_HAPPEN
            if to_state is _IGNORE:
                self._drop(signal, "ignored")
                return
            if to_state is _CANT_HAPPEN:
                self.cant_happen_count += 1
                if self.cant_happen_policy == "error":
                    raise self.cant_happen_error(
                        f"event {label} can't happen in state "
                        f"{from_state} of {class_key}#{handle}")
                self._drop(signal, "cant_happen")
                return
        append = self._append
        now = self.now
        append((now, _SIGNAL_CONSUMED,
                (signal.sequence, label, handle, signal.sender_handle,
                 signal.activity_id)))
        target.current_state = to_state
        append((now, _TRANSITION,
                (handle, class_key, from_state, to_state, label)))
        self._run_state_activity(target, to_state, signal)

    def _drop(self, signal: SignalInstance, reason: str) -> None:
        self._append((self.now, _SIGNAL_IGNORED,
                      (signal.sequence, signal.label, signal.target_handle,
                       reason)))

    def _run_state_activity(self, instance: Instance, state: str,
                            signal: SignalInstance) -> None:
        """Run *state*'s lowered activity to completion; its sends are
        stamped with its id.  The one activity runner: ``dispatch`` calls
        it, and only an executor of another action form overrides it.

        An empty activity is still traced and still takes an id, but it
        runs nothing and sends nothing, so it skips the evaluator and the
        activity stack."""
        activity_id = self._next_activity
        self._next_activity = activity_id + 1
        handle, class_key = instance.handle, instance.class_key
        block = self._activities[class_key, state]
        append = self._append
        append((self.now, _ACTIVITY_START,
                (activity_id, handle, class_key, state, signal.sequence)))
        if not block:
            append((self.now, _ACTIVITY_END,
                    (activity_id, handle, class_key, state)))
            return
        stack = self._activity_stack
        stack.append(activity_id)
        try:
            self.executor.run(self, block, handle, signal.params)
        finally:
            stack.pop()
            append((self.now, _ACTIVITY_END,
                    (activity_id, handle, class_key, state)))

    # -- step-driven execution ------------------------------------------------------

    def step(self) -> bool:
        """Dispatch one ready signal.  Returns False when nothing is ready."""
        pool = self.pool
        if pool.due_at <= self.now:
            pool.release_due(self.now)
        # the pool keeps only non-empty queues (read in place): when it
        # holds none and no creation waits, every scheduler chooses None
        if not (pool._queues or pool._creations):
            return False
        source = self.scheduler.choose(pool)
        if source is None:
            return False
        if self._on_dispatch is not None:
            self._on_dispatch(self, source)
        self.dispatch(pool.pop_creation() if source == CREATION
                      else pool.pop_for(source))
        return True

    # -- the one time-advance loop ----------------------------------------------

    def _next_time(self) -> int | None:
        """The earliest later instant at which anything can happen."""
        return self.pool.next_due_time()

    def advance(self, horizon=math.inf, max_steps: int = 1_000_000) -> int:
        """Dispatch until quiescence, until the next instant is past the
        inclusive *horizon* (``now`` then becomes the horizon), or for
        *max_steps* dispatches.  Returns the dispatch count.  Raises
        ``error`` if an instant that dispatched nothing names no later
        instant: the clock could never move again.
        """
        steps = 0
        whole_instants = self.whole_instants
        step = self.step
        next_time = self._next_time
        while steps < max_steps and self.now <= horizon:
            if whole_instants:
                dispatched, due = self._dispatch_now()
                steps += dispatched
                if steps >= max_steps:
                    break
            elif step():
                steps += 1
                continue
            else:
                dispatched, due = 0, next_time()
            if due is None:
                break
            if due <= self.now:
                if dispatched:
                    continue   # the pass left the instant open
                raise self.error(
                    f"stalled at {self.now}: nothing dispatched, "
                    f"next instant {due}")
            if due > horizon:
                self.now = horizon
                break
            self.now = due
        return steps

    def _run_to(self, horizon, max_steps: int) -> int:
        steps = self.advance(horizon, max_steps)
        if steps >= max_steps:
            raise self.error(f"no quiescence within {max_steps} steps")
        return steps

    def run_to_quiescence(self, max_steps: int = 1_000_000) -> int:
        """Dispatch until no event is ready or scheduled.  Returns steps."""
        return self._run_to(math.inf, max_steps)

    def run_until(self, time: int, max_steps: int = 1_000_000) -> int:
        """Dispatch everything due by model time *time* (microseconds,
        inclusive) and leave the clock there.  Returns steps."""
        horizon = time * self.ticks_per_us
        if horizon < self.now:
            raise self.error(
                f"cannot run backwards from {self.now} to {horizon}")
        steps = self._run_to(horizon, max_steps)
        self.now = max(self.now, horizon)
        return steps
