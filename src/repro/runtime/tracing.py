"""Execution tracing.

Every observable step of a simulation is appended to a :class:`Trace`:
signal sends/consumes, transitions, activity start/end, instance
lifecycle, bridge calls.  The trace is the common currency of the whole
toolchain — the causality checker (paper: "this captures desired cause
and effect"), the verification harness, and the model-vs-generated-code
conformance comparison all consume it.

A trace record is one flat tuple ``(time, kind, *values)``; its index
is its position in the trace.  ``kind`` is the :class:`TraceKind`
member's value string, and the values follow in the order
:data:`FIELDS` lists the kind's fields, so recording costs one tuple
and no dict.  ``LOG`` is the one free-form kind: its one value is a
dict.  :class:`TraceEvent`, with its member ``kind`` and ``data`` dict,
is built only when a reader asks for events (:attr:`Trace.events`,
iteration, :meth:`Trace.of_kind`); hot readers walk
:meth:`Trace.records` and read fields by index.

A record holds atoms only (ints, strs, None; ``LOG`` adds its dict), not
the member, which the collector tracks: the collector untracks an atom
tuple the first time it sees it, so a kept trace adds no later work.

Writers are hot too.  The dispatcher
(:class:`repro.runtime.dispatcher.Dispatcher`) appends the records of
the hot kinds itself, ``SIGNAL_SENT``, ``SIGNAL_CONSUMED``,
``SIGNAL_IGNORED``, ``TRANSITION``, ``ACTIVITY_START``/``ACTIVITY_END``,
``BRIDGE_CALL`` and ``INSTANCE_CREATED``, through the record list's
bound ``append``: one call per record.  :meth:`Trace.record` serves
``LOG``, ``INSTANCE_DELETED`` and every other writer.  A CI step keeps
in-place appends to this module and the dispatcher.
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


#: Each kind's value string -> its member, for readers of records.
KIND_OF: dict[str, TraceKind] = {kind.value: kind for kind in TraceKind}

# FIELDS keyed by value string: an enum member hashes in Python code
_FIELDS_OF = {kind.value: fields for kind, fields in FIELDS.items()}


def record_data(record: tuple) -> dict:
    """The ``data`` dict of one record: its values keyed by field name."""
    fields = _FIELDS_OF[record[1]]
    if fields is None:
        return dict(record[2])
    return dict(zip(fields, record[2:]))


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
    return TraceEvent(index, record[0], KIND_OF[record[1]],
                      record_data(record))


class Trace:
    """An append-only record of one execution."""

    def __init__(self):
        self._records: list[tuple] = []

    def record(self, time: int, kind: TraceKind, *values) -> None:
        self._records.append((time, kind.value) + values)

    def records(self) -> list[tuple]:
        """The raw flat records; read, never mutate."""
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
        value = kind.value
        return tuple(_event(index, record)
                     for index, record in enumerate(self._records)
                     if record[1] == value)

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
        consumed = TraceKind.SIGNAL_CONSUMED.value
        transition = TraceKind.TRANSITION.value
        for record in self._records:
            kind = record[1]
            if kind == consumed:
                pending_label[record[4]] = record[3]
            elif kind == transition:
                handle = record[2]
                label = pending_label.pop(handle, "")
                per_instance.setdefault(handle, []).append((label, record[5]))
        return tuple(
            (handle, tuple(history))
            for handle, history in sorted(per_instance.items())
        )
