"""The C-architecture simulator — the generated software, executed.

Mirrors the dispatch discipline of the emitted ``kernel.c``: a single
task draining two global FIFOs (self-directed events first, then send
order), each dispatched event running to completion.  Time is the model's
microsecond clock; delayed events re-enter the queues at their due time.
The emitted ``kernel.c`` does not do that yet: it appends a delayed
event to its FIFO's tail at once and jumps ``now_us`` to the due time
when it dispatches it, so with two delays pending it would dispatch
them in send order, not due order (ROADMAP item 1, Stage 3).

The machine is the shared dispatcher's step loop driven by
:class:`~repro.runtime.scheduler.KernelScheduler`; nothing here is
specific to C beyond that choice.
"""

from __future__ import annotations

from repro.runtime.scheduler import KernelScheduler

from .archrt import TargetMachine
from .manifest import ComponentManifest


class CSoftwareMachine(TargetMachine):
    """Executes the software half the way the generated kernel does."""

    name = "generated-c"

    def __init__(self, manifest: ComponentManifest):
        super().__init__(manifest)
        self.scheduler = KernelScheduler()

    # bound in this class's own namespace so the mda.csim span resolves
    run_to_quiescence = TargetMachine.run_to_quiescence
    run_until = TargetMachine.run_until
