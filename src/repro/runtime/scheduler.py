"""Dispatch schedulers.

The profile deliberately leaves the *global* dispatch order open: any
order is legal as long as per-instance rules hold (run-to-completion,
self-events first, per-receiver FIFO).  That freedom is what lets one
specification map onto "concurrent, distributed platforms ... as well as
fully synchronous, single tasking environments" (paper section 2).

Each scheduler here is one legal refinement of that freedom:

* :class:`SynchronousScheduler` — global FIFO by send order; the single-
  tasking software architecture.
* :class:`RoundRobinScheduler` — fair rotation over busy instances; a
  cooperative multitasking architecture.
* :class:`InterleavedScheduler` — seeded random choice; an adversarial
  stand-in for true concurrency, used by the property tests to show
  behaviour is interleaving-independent.
* :class:`PriorityScheduler` — higher-priority classes first; a
  preemptive-kernel architecture.
* :class:`KernelScheduler` — the generated C kernel's order: the global
  self-directed queue first, then global send order.  csim dispatches by
  it, and the co-simulation's CPU by it over software instances only.

A scheduler only picks *which* ready source dispatches next; it can never
reorder one instance's own queue.  A caller that has already built the
ready sources passes them as ``choose(pool, sources)``, so a wrapper such
as the lint explorer's recorder builds them once per dispatch.
"""

from __future__ import annotations

import random

from .events import CREATION, EventPool


class Scheduler:
    """Base: choose the next dispatch source from a pool."""

    name = "base"

    def choose(self, pool: EventPool, sources=None) -> int | None:
        """Return an instance handle, CREATION, or None when idle.

        *sources*, when given, is what :meth:`_sources` returns for
        *pool* now."""
        raise NotImplementedError

    def _sources(self, pool: EventPool) -> tuple[int, ...]:
        """The ready sources, sorted: CREATION (-1) sorts before every
        handle, and ``ready_handles`` is already in handle order."""
        handles = pool.ready_handles()
        if pool.has_ready_creation():
            return (CREATION, *handles)
        return handles


class SynchronousScheduler(Scheduler):
    """Strict global send order — one task, one queue."""

    name = "synchronous"

    def choose(self, pool: EventPool, sources=None) -> int | None:
        return pool.oldest_source()


class RoundRobinScheduler(Scheduler):
    """Rotate over sources with pending work."""

    name = "round_robin"

    def __init__(self):
        self._last: int | None = None

    def choose(self, pool: EventPool, sources=None) -> int | None:
        if sources is None:
            sources = self._sources(pool)
        if not sources:
            return None
        if self._last is None:
            choice = sources[0]
        else:
            later = [s for s in sources if s > self._last]
            choice = later[0] if later else sources[0]
        self._last = choice
        return choice


class InterleavedScheduler(Scheduler):
    """Seeded-random choice over ready sources — adversarial concurrency."""

    name = "interleaved"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose(self, pool: EventPool, sources=None) -> int | None:
        if sources is None:
            sources = self._sources(pool)
        if not sources:
            return None
        return self.pick(sources)

    def pick(self, options):
        """Draw one of the sorted *options*: this scheduler's one random rule.

        A forced draw (one option) consumes random bits like any other,
        so drawing over a run's recorded options replays its choices.
        """
        return self._rng.choice(options)


class PriorityScheduler(Scheduler):
    """Dispatch sources of higher-priority classes first.

    ``priorities`` maps class key letters to an integer priority (higher
    runs first); unlisted classes default to 0.  Ties break on global
    send order so the schedule is total and deterministic.
    """

    name = "priority"

    def __init__(self, priorities: dict[str, int], class_of_handle):
        self._priorities = dict(priorities)
        self._class_of_handle = class_of_handle

    def _priority_of(self, pool: EventPool, source: int) -> int:
        if source == CREATION:
            class_key = pool.peek(CREATION).class_key
        else:
            class_key = self._class_of_handle(source)
        return self._priorities.get(class_key, 0)

    def choose(self, pool: EventPool, sources=None) -> int | None:
        if sources is None:
            sources = self._sources(pool)
        if not sources:
            return None
        return min(
            sources,
            key=lambda s: (-self._priority_of(pool, s), pool.peek(s).sequence),
        )


class KernelScheduler(Scheduler):
    """``kernel_next()`` of the generated C: every self-directed head in
    send order, then every other head (creations included) in send order.

    *sources* may also be a subset of the ready sources: the
    co-simulation's CPU passes its software sources only.  Heads are
    read in place, as :meth:`EventPool.peek` reads them, with no call per
    candidate.
    """

    name = "kernel"

    def choose(self, pool: EventPool, sources=None) -> int | None:
        best = best_key = None
        queues = pool._queues
        for source in self._sources(pool) if sources is None else sources:
            if source == CREATION:
                head = pool._creations[0]
            else:
                queue = queues[source]
                head = (queue._self_events or queue._other_events)[0]
            # not head.is_self_directed, spelled out: this runs per source
            sender = head.sender_handle
            key = (sender is None or sender != head.target_handle,
                   head.sequence)
            if best_key is None or key < best_key:
                best, best_key = source, key
        return best
