"""Critical-path analysis over a recorded trace.

The causality rules (paper section 2) make a trace a DAG: a consumed
signal starts exactly one activity, and that activity's sends are
caused by it.  The *critical path* is the longest
send → consume → transition chain through that DAG — the sequence of
dependent dispatches that bounds how fast the run could possibly have
finished, no matter how much hardware parallelism a partition buys.
``repro trace --critical`` prints it; E10 uses it to explain *why* the
E4 partitions rank the way they do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.causality import CausalIndex
from repro.runtime.tracing import Trace


@dataclass(frozen=True)
class CriticalStep:
    """One link of the chain: a signal that was sent and consumed."""

    sequence: int
    label: str
    target: int | None
    sent_time: int
    consumed_time: int

    def __str__(self) -> str:
        return (f"#{self.sequence} {self.label} -> instance "
                f"{self.target} (sent t={self.sent_time}, "
                f"consumed t={self.consumed_time})")


@dataclass(frozen=True)
class CriticalPath:
    """The longest causality chain of one run."""

    steps: tuple[CriticalStep, ...]
    end_time: int = 0

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def start_time(self) -> int:
        return self.steps[0].sent_time if self.steps else 0

    @property
    def span(self) -> int:
        return self.end_time - self.start_time if self.steps else 0

    def labels(self) -> tuple[str, ...]:
        return tuple(step.label for step in self.steps)

    def render(self) -> str:
        if not self.steps:
            return "critical path: empty trace (no consumed signals)"
        lines = [
            f"critical path: {self.length} dependent signal(s), "
            f"t={self.start_time}..{self.end_time} (span {self.span})"
        ]
        lines.extend(f"  {step}" for step in self.steps)
        return "\n".join(lines)


def critical_path(trace: Trace) -> CriticalPath:
    """The longest send→consume→transition chain recorded in *trace*.

    Chains follow the causality edges of the trace's
    :class:`~repro.runtime.causality.CausalIndex`: signal *s* links to every
    signal sent by the activity that *s*'s consumption started.  Ties
    break toward lower sequence numbers, so the result is deterministic.
    Traces without activity events (e.g. bus-level co-sim recordings)
    yield single-link chains.
    """
    index = CausalIndex(trace)
    consumed: dict[int, tuple] = {}         # sequence -> (label, target, time)
    for _, time, sequence, label, target, _ in index.consumptions:
        consumed[sequence] = (label, target, time)
    if not consumed:
        return CriticalPath(steps=())
    activity_of = {sequence: activity                # consumed -> activity
                   for activity, sequence in index.started_by.items()}
    sends_of_activity: dict[int, list[int]] = {}
    for sequence, (_, _, _, activity, _) in index.sent.items():
        sends_of_activity.setdefault(activity, []).append(sequence)

    # Causality edges only point at strictly later sequence stamps (a
    # signal is sent after the signal that caused it was consumed), so a
    # single pass in decreasing sequence order is a topological DP.
    best_length: dict[int, int] = {}
    best_child: dict[int, int | None] = {}
    for sequence in sorted(consumed, reverse=True):
        activity = activity_of.get(sequence)
        length, child = 0, None
        for candidate in sends_of_activity.get(activity, ()):  # type: ignore[arg-type]
            candidate_length = best_length.get(candidate, 0)
            if candidate_length > length or (
                    candidate_length == length and child is not None
                    and candidate < child):
                length, child = candidate_length, candidate
        best_length[sequence] = length + 1
        best_child[sequence] = child

    root = max(best_length, key=lambda seq: (best_length[seq], -seq))
    chain: list[int] = []
    cursor: int | None = root
    while cursor is not None:
        chain.append(cursor)
        cursor = best_child[cursor]

    steps = tuple(
        CriticalStep(
            sequence=sequence,
            label=consumed[sequence][0],
            target=consumed[sequence][1],
            sent_time=index.sent[sequence][1] if sequence in index.sent
            else consumed[sequence][2],
            consumed_time=consumed[sequence][2],
        )
        for sequence in chain
    )
    last = steps[-1]
    ended = index.ended.get(activity_of.get(last.sequence, -1))
    end_time = ended[1] if ended is not None else last.consumed_time
    return CriticalPath(steps=steps, end_time=end_time)
