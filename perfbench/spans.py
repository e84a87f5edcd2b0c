"""Wall-clock spans around calls into the program's layers.

The traced run wraps public functions of ``repro`` from the outside: each
call becomes one span ``(name, start, end, parent)``, where ``parent`` is
the index of the span that was open when the call started (-1 at the top
level).  Spans are kept in flat arrays in memory for the whole traced
region and summarised (and written out) when it ends; nothing is printed
or written while the program runs.

A layer's *self time* is the duration of its spans minus the part of that
interval covered by their child spans.  The program is single-threaded,
so child spans never overlap and the covered part is the sum of their
durations.  Counts are taken at the same call boundaries by optional
``before``/``after`` hooks.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: where it lives and what its span is called.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  A
    module-level function is also replaced wherever another ``repro``
    module imported it by name, so every caller goes through the span.
    ``before(args)`` runs just before the call and its result is passed
    to ``after(recorder, args, result, token)`` once the call returns.
    """

    target: str
    span: str
    before: Callable | None = None
    after: Callable | None = None


class SpanRecorder:
    """Records one span per call of every installed boundary."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and count (the name table is kept)."""
        del self.name_of[:]
        del self.start[:]
        del self.end[:]
        del self.parent[:]
        self.counts.clear()
        self._stack.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, span: str) -> bool:
        """Is a span named *span* open right now?"""
        name_id = self._name_ids.get(span)
        return name_id is not None and any(
            self.name_of[index] == name_id for index in self._stack)

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def wrap(self, fn: Callable, span: str, before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """*fn* with a span recorded around every call."""
        name_id = self._name_id(span)
        name_of, start, end, parent = (
            self.name_of, self.start, self.end, self.parent)
        stack = self._stack
        clock = self.clock

        def spanned(*args, **kwargs):
            token = before(args) if before is not None else None
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            start.append(0.0)
            stack.append(index)
            start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, token)
            return result

        spanned.__wrapped__ = fn
        spanned.__name__ = getattr(fn, "__name__", span)
        spanned.__doc__ = getattr(fn, "__doc__", None)
        return spanned

    # -- installing boundaries ------------------------------------------------

    @contextlib.contextmanager
    def installed(self, boundaries):
        """Wrap every boundary for the duration of the ``with`` block."""
        try:
            for boundary in boundaries:
                self._install(boundary)
            yield self
        finally:
            self.restore()

    def _install(self, boundary: Boundary) -> None:
        module_name, _, path = boundary.target.partition(":")
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        if classes:
            original = owner.__dict__[attr]  # defined here, not inherited
        else:
            original = getattr(owner, attr)
        wrapped = self.wrap(original, boundary.span, boundary.before,
                            boundary.after)
        self._patch(owner, attr, original, wrapped)
        if not classes:
            for name, module in list(sys.modules.items()):
                if module is owner or not name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summarising ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds."""
        return summarise(self.names, self.name_of, self.start, self.end,
                         self.parent)

    def write_tsv(self, path, limit: int | None = None) -> int:
        """Write the recorded spans, one per line; returns lines written."""
        total = len(self.start)
        kept = total if limit is None else min(total, limit)
        origin = self.start[0] if total else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# {kept} of {total} spans; times in ns from "
                         "the first span's start\n")
            handle.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for index in range(kept):
                handle.write(
                    f"{index}\t{self.names[self.name_of[index]]}\t"
                    f"{round((self.start[index] - origin) * 1e9)}\t"
                    f"{round((self.end[index] - origin) * 1e9)}\t"
                    f"{self.parent[index]}\n")
        return kept


def summarise(names, name_of, start, end, parent) -> dict[str, dict[str, float]]:
    """Self and inclusive time per span name from flat span arrays.

    Self time of a span is its duration minus the durations of its
    direct children.  Inclusive time of a name counts each outermost span
    of that name once, so a recursive call is not counted twice.  Spans
    are in start order (a parent always precedes its children).
    """
    count = len(start)
    covered = [0.0] * count
    for index in range(count):
        up = parent[index]
        if up >= 0:
            covered[up] += end[index] - start[index]
    out: dict[str, dict[str, float]] = {}
    open_until: dict[int, float] = {}
    for index in range(count):
        name_id = name_of[index]
        entry = out.get(names[name_id])
        if entry is None:
            entry = out[names[name_id]] = {
                "calls": 0, "self_s": 0.0, "inclusive_s": 0.0}
        duration = end[index] - start[index]
        entry["calls"] += 1
        entry["self_s"] += duration - covered[index]
        if start[index] >= open_until.get(name_id, float("-inf")):
            entry["inclusive_s"] += duration
            open_until[name_id] = end[index]
    return out
