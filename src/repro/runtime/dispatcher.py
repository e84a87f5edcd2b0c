"""The one dispatch core every executor shares.

The abstract runtime (:class:`repro.runtime.Simulation`) and the
architecture runtimes (:class:`repro.mda.archrt.TargetMachine`: csim,
vsim and the co-simulation) execute the same signal life cycle: a send
is stamped, traced and queued; a dispatch looks the target up, consults
its state table and either drops the signal or consumes it, takes the
transition and runs the destination state's activity to completion.
:class:`Dispatcher` is that life cycle, written once, so every executor
emits the same trace records in the same order by construction.

Executors differ only in

* **storage** -- model-backed populations or manifest-backed dicts,
  reached through the hooks :class:`Dispatcher` lists;
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

from .errors import BridgeError, CantHappenError, SimulationError
from .events import EventPool, SignalInstance
from .tracing import Trace, TraceKind


# -- standard bridge services ------------------------------------------------
# Each is ``impl(executor, self_handle, **params)``; the declared bridge
# parameters arrive by keyword.

def _log_info(executor, self_handle, message: str = "") -> None:
    executor.trace.record(executor.now, TraceKind.LOG, message=str(message))


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
    """Stamping, tracing, queueing and run-to-completion dispatch.

    Subclasses provide storage: ``create_instance``/``delete_instance``
    call ``_store_instance``/``_forget_instance``; dispatch calls
    ``_target`` (the live receiver or None), ``_state_of``/``_set_state``,
    ``_transition`` (the destination state, or the
    :class:`EventResponse` that drops the signal), ``_creation_state``
    and ``_run_state_activity``, which runs the activity through
    :meth:`_run_to_completion`.  A step-driven subclass also sets
    ``scheduler``, the :class:`~repro.runtime.scheduler.Scheduler` that
    picks each step's source; an executor whose instant is not one
    ``step`` overrides ``_dispatch_now`` and ``_next_time`` instead, and a
    clock other than the model's microsecond sets ``ticks_per_us``.  Each
    concrete executor sets ``name``; that,
    the population and stimulus calls, the run loops and the state,
    attribute and trace reads are the surface :func:`repro.verify.run_case`
    drives.
    """

    #: raised by the run loops (and, by default, on a can't-happen event)
    error: type[Exception] = SimulationError
    cant_happen_error: type[Exception] = CantHappenError
    #: raised by :meth:`call_bridge` when no implementation is registered
    bridge_error: type[Exception] = BridgeError
    cant_happen_policy = "error"
    #: model microseconds -> ticks of this executor's clock
    ticks_per_us = 1
    #: metrics hook, called with each chosen source before it is popped;
    #: bound once, so with metrics off a step pays one ``is None`` test
    _on_dispatch = None

    def __init__(self, self_priority: bool = True):
        self.trace = Trace()
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

    # -- population ------------------------------------------------------------

    def create_instance(self, class_key: str, **attribute_values) -> int:
        handle = self._next_handle
        state = self._store_instance(class_key, handle, attribute_values)
        self._next_handle += 1
        self.trace.record(
            self.now, TraceKind.INSTANCE_CREATED,
            handle=handle, class_key=class_key, state=state,
        )
        return handle

    def delete_instance(self, handle: int) -> None:
        class_key = self._forget_instance(handle)
        dropped = self.pool.drop_instance(handle)
        self.trace.record(
            self.now, TraceKind.INSTANCE_DELETED,
            handle=handle, class_key=class_key, pending_dropped=dropped,
        )

    # -- signals ---------------------------------------------------------------

    def _stamp(self) -> int:
        sequence = self._next_sequence
        self._next_sequence += 1
        return sequence

    @property
    def _current_activity(self) -> int:
        return self._activity_stack[-1] if self._activity_stack else 0

    def send_signal(self, target: int, class_key: str, label: str,
                    params: dict | None = None, sender: int | None = None,
                    delay: int = 0) -> SignalInstance:
        """Queue (or, with delay, schedule) a signal to a live instance."""
        self._check_event(class_key, label, creation=False)
        return self._send(target, class_key, label, params, sender, delay,
                          False)

    def send_creation(self, class_key: str, label: str,
                      params: dict | None = None, sender: int | None = None,
                      delay: int = 0) -> SignalInstance:
        """Queue a creation event: the instance is born when it dispatches."""
        self._check_event(class_key, label, creation=True)
        return self._send(None, class_key, label, params, sender, delay,
                          True)

    def _send(self, target, class_key, label, params, sender, delay,
              is_creation):
        signal = SignalInstance(
            sequence=self._stamp(), label=label, class_key=class_key,
            params=dict(params or {}), target_handle=target,
            sender_handle=sender, activity_id=self._current_activity,
            sent_at=self.now, is_creation=is_creation,
        )
        self.trace.record(
            self.now, TraceKind.SIGNAL_SENT,
            sequence=signal.sequence, label=label, target=target,
            sender=sender, activity=signal.activity_id, delay=delay,
        )
        self._enqueue(signal, delay)
        return signal

    def inject(self, target: int, label: str, params: dict | None = None,
               delay: int = 0) -> SignalInstance:
        """Send a signal from the environment (test benches, stimuli)."""
        return self.send_signal(
            target, self.class_of(target), label, params, sender=None,
            delay=delay,
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

    # -- bridges ------------------------------------------------------------------

    def call_bridge(self, self_handle, entity, operation, kwargs: dict):
        """Trace a bridge call and run its implementation from ``bridges``."""
        self.trace.record(
            self.now, TraceKind.BRIDGE_CALL,
            entity=entity, operation=operation, handle=self_handle,
        )
        impl = self.bridges.get((entity, operation))
        if impl is None:
            raise self.bridge_error(
                f"no implementation registered for {entity}::{operation}")
        return impl(self, self_handle, **kwargs)

    # -- dispatch ----------------------------------------------------------------

    def dispatch(self, signal: SignalInstance) -> None:
        """Consume *signal* by the profile's rules, tracing every outcome."""
        if signal.is_creation:
            to_state = self._creation_state(signal)
            handle = self.create_instance(signal.class_key)
            target = self._target(signal.class_key, handle)
            from_state = None
        else:
            handle = signal.target_handle
            target = self._target(signal.class_key, handle)
            if target is None:
                # the receiver died while the signal was in flight
                self._drop(signal, "target deleted")
                return
            from_state = self._state_of(target)
            to_state = self._transition(signal, from_state)
            if to_state is EventResponse.IGNORE:
                self._drop(signal, "ignored")
                return
            if to_state is EventResponse.CANT_HAPPEN:
                self.cant_happen_count += 1
                if self.cant_happen_policy == "error":
                    raise self.cant_happen_error(
                        f"event {signal.label} can't happen in state "
                        f"{from_state} of {signal.class_key}#{handle}"
                    )
                self._drop(signal, "cant_happen")
                return
        self.trace.record(
            self.now, TraceKind.SIGNAL_CONSUMED,
            sequence=signal.sequence, label=signal.label, target=handle,
            sender=signal.sender_handle, sent_activity=signal.activity_id,
        )
        self._set_state(target, to_state)
        self.trace.record(
            self.now, TraceKind.TRANSITION,
            handle=handle, class_key=signal.class_key,
            from_state=from_state, to_state=to_state, label=signal.label,
        )
        self._run_state_activity(target, to_state, signal)

    def _drop(self, signal: SignalInstance, reason: str) -> None:
        self.trace.record(
            self.now, TraceKind.SIGNAL_IGNORED,
            sequence=signal.sequence, label=signal.label,
            target=signal.target_handle, reason=reason,
        )

    def _run_to_completion(self, handle: int, class_key: str, state: str,
                           signal: SignalInstance, ir, params: dict) -> None:
        """Run one state activity; its sends are stamped with its id."""
        activity_id = self._next_activity
        self._next_activity += 1
        self.trace.record(
            self.now, TraceKind.ACTIVITY_START,
            activity=activity_id, handle=handle, class_key=class_key,
            state=state, consumed_sequence=signal.sequence,
        )
        self._activity_stack.append(activity_id)
        try:
            self.executor.run(ir, handle, params)
        finally:
            self._activity_stack.pop()
            self.trace.record(
                self.now, TraceKind.ACTIVITY_END,
                activity=activity_id, handle=handle, class_key=class_key,
                state=state,
            )

    # -- step-driven execution ------------------------------------------------------

    def step(self) -> bool:
        """Dispatch one ready signal.  Returns False when nothing is ready."""
        self.pool.release_due(self.now)
        source = self.scheduler.choose(self.pool)
        if source is None:
            return False
        if self._on_dispatch is not None:
            self._on_dispatch(source)
        self.dispatch(self.pool.pop(source))
        return True

    # -- the one time-advance loop ----------------------------------------------

    def _dispatch_now(self) -> int:
        """Dispatch what is ready at ``now``; returns how many dispatches."""
        return self.step()

    def _next_time(self) -> int | None:
        """The earliest later instant at which anything can happen."""
        return self.pool.next_due_time()

    def advance(self, horizon=math.inf, max_steps: int = 1_000_000) -> int:
        """Dispatch until quiescence, until the next instant is past the
        inclusive *horizon* (``now`` then becomes the horizon), or for
        *max_steps* dispatches.  Returns the dispatch count; never raises.
        """
        steps = 0
        while steps < max_steps and self.now <= horizon:
            dispatched = self._dispatch_now()
            if dispatched:
                steps += dispatched
                continue
            due = self._next_time()
            if due is None:
                break
            if due > horizon:
                self.now = horizon
                break
            self.now = max(self.now, due)
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
