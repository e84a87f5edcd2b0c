"""Cause and effect in a recorded trace.

Paper section 2: "The actions in the destination state of the receiver
execute after the action that sent the signal.  This captures desired
cause and effect."

:class:`CausalIndex` is the one place that reads those edges from a
trace: which activity sent each signal, which consumption started each
activity, and when each activity ended.  Every reader of cause and
effect works from it -- the checks below, the critical path
(:mod:`repro.obs.critical`), the E4 partition measurement and the
co-simulation's fault containment.

:func:`check_causality` verifies the paper's property: for every
consumed signal, the *sending* activity must have ended before the
*receiving* activity starts.  Under a conforming scheduler this always
holds (run-to-completion enqueues the signal and returns to the sender's
remaining actions); the ``eager_dispatch`` ablation breaks it and this
checker finds every break.

It also verifies the two queueing invariants the generated architectures
must preserve: per-receiver FIFO among non-self events and self-event
priority.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tracing import Trace, TraceKind


class CausalIndex:
    """The send → consume → activity edges of one trace, in one pass.

    * ``sent``: sequence -> ``(index, time, label, activity, delay)`` of
      its send; activity 0 is the environment.
    * ``started_by``: activity -> the sequence whose consumption started it.
    * ``ended``: activity -> ``(index, time)`` of its end.
    * ``consumptions``: ``(index, time, sequence, label, target, sender)``
      per consumed signal, in trace order.  An unprotected bus can
      deliver one sequence twice; both consumptions are listed.
    * ``starts``: ``(index, activity, handle, consumed sequence)`` per
      activity start, in trace order.

    Where the trace repeats a key, the later record wins.
    """

    def __init__(self, trace: Trace):
        self.sent: dict[int, tuple] = {}
        self.started_by: dict[int, int] = {}
        self.ended: dict[int, tuple[int, int]] = {}
        self.consumptions: list[tuple] = []
        self.starts: list[tuple] = []
        # kind values bound to locals once, not read per record
        sent_kind = TraceKind.SIGNAL_SENT.value
        consumed_kind = TraceKind.SIGNAL_CONSUMED.value
        start_kind = TraceKind.ACTIVITY_START.value
        end_kind = TraceKind.ACTIVITY_END.value
        for index, record in enumerate(trace.records()):
            kind = record[1]
            if kind == sent_kind:
                self.sent[record[2]] = (
                    index, record[0], record[3], record[6], record[7])
            elif kind == consumed_kind:
                self.consumptions.append((index, record[0]) + record[2:6])
            elif kind == start_kind:
                activity, consumed = record[2], record[6]
                self.starts.append((index, activity, record[3], consumed))
                if consumed is not None:
                    self.started_by[activity] = consumed
            elif kind == end_kind:
                self.ended[record[2]] = (index, record[0])

    def root_of(self, sequence: int) -> int | None:
        """The environment-sent signal *sequence* descends from: follow
        signal → sending activity → the signal that started it, back to
        activity 0.  None if the chain leaves the trace."""
        while True:
            sent = self.sent.get(sequence)
            if sent is None:
                return None
            activity = sent[3]
            if activity == 0:
                return sequence
            sequence = self.started_by.get(activity)
            if sequence is None:
                return None

    def ancestors(self, sequence: int, handle: int | None) -> set[int]:
        """Every signal that can have shaped dispatching *sequence* to
        *handle*: the signal itself and, back from each activity that led
        to it, the signal that started the activity.  Ancestry runs
        through sending activities and through every earlier activity on
        the same instance, which left the state and attributes a later
        one ran on.  An ancestor starts before its descendants, so one
        backward sweep over the activity starts finds them all."""
        found = {sequence}
        senders = {self.sent[sequence][3]} if sequence in self.sent else set()
        instances = {handle}
        for _, activity, owner, consumed in reversed(self.starts):
            if activity not in senders and owner not in instances:
                continue
            instances.add(owner)
            if consumed is not None and consumed not in found:
                found.add(consumed)
                if consumed in self.sent:
                    senders.add(self.sent[consumed][3])
        return found


@dataclass(frozen=True)
class CausalityViolation:
    """One broken happens-before edge."""

    sequence: int
    label: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"signal #{self.sequence} ({self.label}): {self.kind} — {self.detail}"


def check_causality(trace: Trace) -> list[CausalityViolation]:
    """All violations of sender-completes-before-receiver-starts."""
    index = CausalIndex(trace)
    violations: list[CausalityViolation] = []
    for start, _, _, sequence in index.starts:
        if sequence is None:
            continue
        sent = index.sent.get(sequence)
        if sent is None:
            violations.append(CausalityViolation(
                sequence, "?", "unsent",
                "consumed a signal that was never sent",
            ))
            continue
        sent_at, _, label, sender, _ = sent
        if sent_at > start:
            violations.append(CausalityViolation(
                sequence, label, "time-travel",
                "consumed before it was sent",
            ))
        if sender == 0:
            continue  # environment injection: no sending activity
        sender_end = index.ended.get(sender)
        if sender_end is None or sender_end[0] > start:
            violations.append(CausalityViolation(
                sequence, label, "run-to-completion",
                f"receiver activity started before sending activity "
                f"{sender} completed",
            ))
    return violations


def check_receiver_fifo(trace: Trace) -> list[CausalityViolation]:
    """Non-self signals to one receiver must be consumed in send order."""
    index = CausalIndex(trace)
    violations: list[CausalityViolation] = []
    last_consumed: dict[int, int] = {}
    for _, _, sequence, label, target, sender in index.consumptions:
        sent = index.sent.get(sequence)
        if sent is None or sent[4] > 0:
            continue  # delayed events re-enter the order at their due time
        if sender is not None and sender == target:
            continue  # self-directed events legitimately jump the queue
        previous = last_consumed.get(target)
        if previous is not None and sequence < previous:
            violations.append(CausalityViolation(
                sequence, label, "fifo",
                f"consumed after younger signal #{previous} to the same "
                f"receiver {target}",
            ))
        last_consumed[target] = max(previous or 0, sequence)
    return violations


def check_trace(trace: Trace) -> list[CausalityViolation]:
    """Run every trace-level semantic check."""
    return check_causality(trace) + check_receiver_fifo(trace)
