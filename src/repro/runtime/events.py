"""Signal instances and per-instance event queues.

The queueing rules implement the paper's execution semantics plus the two
standard xtUML refinements that make it deterministic enough to translate:

* events between one sender/receiver pair are delivered in the order sent
  (per-pair FIFO, which our stronger per-receiver FIFO subsumes);
* an event an instance sends **to itself** is consumed before any other
  event pending for that instance (the "self-directed events first" rule).

Delayed events (``generate ... delay n`` and timers) enter the queue only
when simulated time reaches their due time.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

#: Dispatch source meaning "the oldest pending creation event".
CREATION = -1


@dataclass(slots=True, unsafe_hash=True)
class SignalInstance:
    """One in-flight signal.

    ``sequence`` is a global monotonic stamp assigned at send time —
    the FIFO tiebreak and the correlation key used by traces.
    ``target_handle`` is ``None`` for creation events (the receiver does
    not exist yet).  ``activity_id`` identifies the activity execution
    that sent the signal (0 for environment injections), which is what
    the causality checker uses.
    Slotted, not frozen (a frozen ``__init__`` pays per field), and never
    changed once sent; equality and hash ignore ``params``.
    """

    sequence: int
    label: str
    class_key: str
    params: dict = field(hash=False, compare=False, default_factory=dict)
    target_handle: int | None = None
    sender_handle: int | None = None
    activity_id: int = 0
    sent_at: int = 0
    is_creation: bool = False

    @property
    def is_self_directed(self) -> bool:
        return (
            self.sender_handle is not None
            and self.sender_handle == self.target_handle
        )


class InstanceQueue:
    """Pending events of one instance: self-directed first, then FIFO.

    ``self_priority=False`` disables the self-first rule (plain FIFO);
    it exists only for the E6 ablation, which demonstrates that models
    written to the profile's rules break without it.  On the dispatch
    path :class:`EventPool` files and pops in the two deques in place,
    by the same rule (``push_ready``, ``pop_for``).
    """

    def __init__(self, self_priority: bool = True):
        self._self_priority = self_priority
        self._self_events: deque[SignalInstance] = deque()
        self._other_events: deque[SignalInstance] = deque()

    def push(self, signal: SignalInstance) -> None:
        if self._self_priority and signal.is_self_directed:
            self._self_events.append(signal)
        else:
            self._other_events.append(signal)

    def pop(self) -> SignalInstance:
        if self._self_events:
            return self._self_events.popleft()
        return self._other_events.popleft()

    def peek(self) -> SignalInstance:
        if self._self_events:
            return self._self_events[0]
        return self._other_events[0]

    def __len__(self) -> int:
        return len(self._self_events) + len(self._other_events)

    def __bool__(self) -> bool:
        return bool(self._self_events or self._other_events)


class EventPool:
    """All pending work: ready queues per instance + time-ordered delays.

    Creation events have no instance yet; they wait in a dedicated FIFO
    that schedulers treat as one more dispatch source.

    ``_queues`` holds exactly the non-empty queues: one is taken on the
    first push to a handle and removed when its last event is popped or
    its instance is dropped.  Choosing a source therefore costs O(ready
    instances), not O(every instance that ever received an event).  A
    queue emptied by a pop goes to ``_spare`` and serves the next handle
    that needs one, so a push allocates only when every queue is in use.
    """

    def __init__(self, self_priority: bool = True):
        self._self_priority = self_priority
        self._queues: dict[int, InstanceQueue] = {}
        self._spare: list[InstanceQueue] = []
        self._creations: deque[SignalInstance] = deque()
        self._delayed: list[tuple[int, int, SignalInstance]] = []  # (due, seq, sig)
        #: earliest due time of a delayed event (inf: none), read per step
        self.due_at = math.inf

    # -- feeding ------------------------------------------------------------

    def push_ready(self, signal: SignalInstance) -> None:
        if signal.is_creation:
            self._creations.append(signal)
            return
        handle = signal.target_handle
        queue = self._queues.get(handle)
        if queue is None:
            queue = (self._spare.pop() if self._spare
                     else InstanceQueue(self._self_priority))
            self._queues[handle] = queue
        # InstanceQueue.push, filed in place: every send passes here
        sender = signal.sender_handle
        if self._self_priority and sender is not None and sender == handle:
            queue._self_events.append(signal)
        else:
            queue._other_events.append(signal)

    def push_delayed(self, signal: SignalInstance, due_time: int) -> None:
        heapq.heappush(self._delayed, (due_time, signal.sequence, signal))
        self.due_at = self._delayed[0][0]

    def release_due(self, now: int) -> int:
        """Move delayed events whose time has come into the ready queues."""
        released = 0
        while self._delayed and self._delayed[0][0] <= now:
            _, _, signal = heapq.heappop(self._delayed)
            self.push_ready(signal)
            released += 1
        self.due_at = self._delayed[0][0] if self._delayed else math.inf
        return released

    def cancel_delayed(self, predicate) -> int:
        """Drop delayed events matching *predicate* (timer cancellation)."""
        kept = [entry for entry in self._delayed if not predicate(entry[2])]
        removed = len(self._delayed) - len(kept)
        if removed:
            self._delayed = kept
            heapq.heapify(self._delayed)
            self.due_at = self._delayed[0][0] if self._delayed else math.inf
        return removed

    def drop_instance(self, handle: int) -> int:
        """Discard all events pending for a deleted instance."""
        removed = 0
        queue = self._queues.pop(handle, None)
        if queue is not None:
            removed += len(queue)
        removed += self.cancel_delayed(
            lambda signal: signal.target_handle == handle
        )
        return removed

    # -- dispatch support ------------------------------------------------------

    def ready_handles(self) -> tuple[int, ...]:
        """Handles with at least one ready event, in handle order."""
        return tuple(sorted(self._queues))

    def live_sources(self) -> tuple[dict[int, InstanceQueue],
                                    deque[SignalInstance]]:
        """The live ready map (handle -> non-empty queue, in first-push
        order, not handle order) and the creation FIFO, for an executor
        that splits the ready sources among its own resources and binds
        them once.  Callers read them; only the pool changes them."""
        return self._queues, self._creations

    def has_ready_creation(self) -> bool:
        return bool(self._creations)

    def pop_for(self, handle: int) -> SignalInstance:
        # InstanceQueue.pop, read in place: every dispatch passes here
        queue = self._queues[handle]
        self_events, other_events = queue._self_events, queue._other_events
        signal = (self_events or other_events).popleft()
        if not (self_events or other_events):
            del self._queues[handle]
            self._spare.append(queue)
        return signal

    def oldest_source(self) -> int | None:
        """The ready source whose head was sent first, or None: one pass,
        skipping empty queues; ties go to the lower handle, then CREATION."""
        best, oldest = None, math.inf
        for handle, queue in self._queues.items():
            events = queue._self_events or queue._other_events
            if events:
                sequence = events[0].sequence
                if sequence < oldest or (sequence == oldest and handle < best):
                    best, oldest = handle, sequence
        if self._creations and self._creations[0].sequence < oldest:
            return CREATION
        return best

    def pop_creation(self) -> SignalInstance:
        return self._creations.popleft()

    def peek(self, source: int) -> SignalInstance:
        """Head event of *source*: an instance handle or CREATION."""
        if source == CREATION:
            return self._creations[0]
        # InstanceQueue.peek, read in place: schedulers peek per candidate
        queue = self._queues[source]
        return (queue._self_events or queue._other_events)[0]

    def next_due_time(self) -> int | None:
        """Earliest due time among delayed events, or None."""
        return None if self.due_at == math.inf else self.due_at

    @property
    def ready_count(self) -> int:
        return sum(len(q) for q in self._queues.values()) + len(self._creations)
