"""Execution tracing.

Every observable step of a simulation is appended to a :class:`Trace`:
signal sends/consumes, transitions, activity start/end, instance
lifecycle, bridge calls.  The trace is the common currency of the whole
toolchain — the causality checker (paper: "this captures desired cause
and effect"), the verification harness, and the model-vs-generated-code
conformance comparison all consume it.

A trace record is the plain tuple ``(time, kind, values)``; its index is
its position in the trace.  ``values`` holds the kind's fields in the
order :data:`FIELDS` lists them, so recording costs one tuple and no
dict.  ``LOG`` is the one free-form kind: its ``values`` is a single
dict.  :class:`TraceEvent`, with its ``data`` dict, is built only when a
reader asks for events (:attr:`Trace.events`, iteration,
:meth:`Trace.of_kind`); hot readers walk :meth:`Trace.records` instead.
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


#: The trace schema: each kind's field names, in the order its records
#: carry their values.  None marks ``LOG``, whose one value is a dict.
FIELDS: dict[TraceKind, tuple[str, ...] | None] = {
    TraceKind.INSTANCE_CREATED: ("handle", "class_key", "state"),
    TraceKind.INSTANCE_DELETED: ("handle", "class_key", "pending_dropped"),
    TraceKind.SIGNAL_SENT: (
        "sequence", "label", "target", "sender", "activity", "delay"),
    TraceKind.SIGNAL_CONSUMED: (
        "sequence", "label", "target", "sender", "sent_activity"),
    TraceKind.SIGNAL_IGNORED: ("sequence", "label", "target", "reason"),
    TraceKind.TRANSITION: (
        "handle", "class_key", "from_state", "to_state", "label"),
    TraceKind.ACTIVITY_START: (
        "activity", "handle", "class_key", "state", "consumed_sequence"),
    TraceKind.ACTIVITY_END: ("activity", "handle", "class_key", "state"),
    TraceKind.BRIDGE_CALL: ("entity", "operation", "handle"),
    TraceKind.LOG: None,
}


def record_data(kind: TraceKind, values: tuple) -> dict:
    """The ``data`` dict of one record: its values keyed by field name."""
    fields = FIELDS[kind]
    if fields is None:
        return dict(values[0])
    return dict(zip(fields, values))


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


def _event(index: int, record: tuple) -> TraceEvent:
    time, kind, values = record
    return TraceEvent(index, time, kind, record_data(kind, values))


class Trace:
    """An append-only record of one execution."""

    def __init__(self):
        self._records: list[tuple[int, TraceKind, tuple]] = []

    def record(self, time: int, kind: TraceKind, *values) -> None:
        self._records.append((time, kind, values))

    def records(self) -> list[tuple[int, TraceKind, tuple]]:
        """The raw ``(time, kind, values)`` records; read, never mutate."""
        return self._records

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return (_event(index, record)
                for index, record in enumerate(self._records))

    def of_kind(self, kind: TraceKind) -> tuple[TraceEvent, ...]:
        return tuple(_event(index, record)
                     for index, record in enumerate(self._records)
                     if record[1] is kind)

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
        consumed, transition = TraceKind.SIGNAL_CONSUMED, TraceKind.TRANSITION
        for _, kind, values in self._records:
            if kind is consumed:
                pending_label[values[2]] = values[1]
            elif kind is transition:
                handle = values[0]
                label = pending_label.pop(handle, "")
                per_instance.setdefault(handle, []).append((label, values[3]))
        return tuple(
            (handle, tuple(history))
            for handle, history in sorted(per_instance.items())
        )
