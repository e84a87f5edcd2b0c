"""Causality checking over traces.

Paper section 2: "The actions in the destination state of the receiver
execute after the action that sent the signal.  This captures desired
cause and effect."

This module verifies exactly that property on a recorded trace: for every
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
    violations: list[CausalityViolation] = []
    activity_end_index: dict[int, int] = {}
    sent_index: dict[int, int] = {}
    sent_activity: dict[int, int] = {}
    label_of: dict[int, str] = {}
    starts: list[tuple[int, int]] = []     # (index, consumed sequence)

    for index, (_, kind, values) in enumerate(trace.records()):
        if kind is TraceKind.ACTIVITY_START:
            if values[4] is not None:
                starts.append((index, values[4]))
        elif kind is TraceKind.ACTIVITY_END:
            activity_end_index[values[0]] = index
        elif kind is TraceKind.SIGNAL_SENT:
            sequence = values[0]
            sent_index[sequence] = index
            sent_activity[sequence] = values[4]
            label_of[sequence] = values[1]

    for index, sequence in starts:
        if sequence not in sent_index:
            violations.append(CausalityViolation(
                sequence, "?", "unsent",
                "consumed a signal that was never sent",
            ))
            continue
        if sent_index[sequence] > index:
            violations.append(CausalityViolation(
                sequence, label_of[sequence], "time-travel",
                "consumed before it was sent",
            ))
        sender = sent_activity[sequence]
        if sender == 0:
            continue  # environment injection: no sending activity
        sender_end = activity_end_index.get(sender)
        if sender_end is None or sender_end > index:
            violations.append(CausalityViolation(
                sequence, label_of[sequence], "run-to-completion",
                f"receiver activity started before sending activity "
                f"{sender} completed",
            ))
    return violations


def check_receiver_fifo(trace: Trace) -> list[CausalityViolation]:
    """Non-self signals to one receiver must be consumed in send order."""
    violations: list[CausalityViolation] = []
    records = trace.records()
    delay_of: dict[int, int] = {
        values[0]: values[5]
        for _, kind, values in records if kind is TraceKind.SIGNAL_SENT
    }

    last_consumed: dict[int, int] = {}
    for _, kind, values in records:
        if kind is not TraceKind.SIGNAL_CONSUMED:
            continue
        sequence, label, target, sender, _ = values
        delay = delay_of.get(sequence)
        if delay is None or delay > 0:
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
