"""Execution tracing.

Every observable step of a simulation is appended to a :class:`Trace`:
signal sends/consumes, transitions, activity start/end, instance
lifecycle, bridge calls.  The trace is the common currency of the whole
toolchain — the causality checker (paper: "this captures desired cause
and effect"), the verification harness, and the model-vs-generated-code
conformance comparison all consume it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class TraceKind(enum.Enum):
    INSTANCE_CREATED = "instance_created"
    INSTANCE_DELETED = "instance_deleted"
    SIGNAL_SENT = "signal_sent"
    SIGNAL_CONSUMED = "signal_consumed"
    SIGNAL_IGNORED = "signal_ignored"
    TRANSITION = "transition"
    ACTIVITY_START = "activity_start"
    ACTIVITY_END = "activity_end"
    BRIDGE_CALL = "bridge_call"
    LOG = "log"


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.  ``data`` is kind-specific."""

    index: int
    time: int
    kind: TraceKind
    data: dict = field(hash=False, compare=False, default_factory=dict)

    def __str__(self) -> str:
        payload = ", ".join(f"{k}={v}" for k, v in self.data.items())
        return f"[{self.index:5d} t={self.time:8d}] {self.kind.value}: {payload}"


class Trace:
    """An append-only record of one execution."""

    def __init__(self):
        self._events: list[TraceEvent] = []

    def record(self, time: int, kind: TraceKind, **data) -> TraceEvent:
        event = TraceEvent(len(self._events), time, kind, data)
        self._events.append(event)
        return event

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def of_kind(self, kind: TraceKind) -> tuple[TraceEvent, ...]:
        return tuple(e for e in self._events if e.kind is kind)

    def transitions_of(self, handle: int) -> tuple[TraceEvent, ...]:
        return tuple(
            e
            for e in self._events
            if e.kind is TraceKind.TRANSITION and e.data.get("handle") == handle
        )

    def state_history(self, handle: int) -> tuple[str, ...]:
        """The sequence of states *handle* entered, in order."""
        return tuple(e.data["to_state"] for e in self.transitions_of(handle))

    def signal_labels(self) -> tuple[str, ...]:
        """Labels of all consumed signals, in consumption order."""
        return tuple(
            e.data["label"]
            for e in self._events
            if e.kind is TraceKind.SIGNAL_CONSUMED
        )

    def behavioural_summary(self) -> tuple[tuple, ...]:
        """A scheduler-independent digest used for conformance comparison.

        Per instance, the ordered list of (consumed label, entered state).
        Two executions that agree on every instance's own history are
        behaviourally equivalent under the profile's rules, even if the
        global interleaving differs — exactly the freedom paper section 4
        grants the model compiler.
        """
        per_instance: dict[int, list[tuple[str, str]]] = {}
        pending_label: dict[int, str] = {}
        for event in self._events:
            if event.kind is TraceKind.SIGNAL_CONSUMED:
                pending_label[event.data["target"]] = event.data["label"]
            elif event.kind is TraceKind.TRANSITION:
                handle = event.data["handle"]
                label = pending_label.pop(handle, "")
                per_instance.setdefault(handle, []).append(
                    (label, event.data["to_state"])
                )
        return tuple(
            (handle, tuple(history))
            for handle, history in sorted(per_instance.items())
        )
