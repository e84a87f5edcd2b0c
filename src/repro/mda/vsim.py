"""The VHDL-architecture simulator — the generated hardware, executed.

Mirrors the clocked FSM discipline of the emitted entities: on every
rising edge each instance bank consumes **at most one** pending event
(self-directed first, per-instance FIFO otherwise) and runs its entry
action; everything an action emits becomes visible at the *next* edge,
the registered-output behaviour of the generated processes.  Model-time
delays (microseconds) are converted to cycles with the marked clock.

Within one cycle all instances fire "simultaneously": the dispatch set is
snapshotted before any action runs, so an instance cannot react within
the same cycle to a signal raised in it — exactly what the registered
FSM does in hardware.

Stamping, tracing, dispatch and the time-advance loop are the shared
:class:`~repro.runtime.dispatcher.Dispatcher`'s; this module adds only the
per-edge snapshot policy, the registered-output queueing and the clock.
"""

from __future__ import annotations

from repro.runtime.events import SignalInstance

from .archrt import ArchError, TargetMachine
from .manifest import ComponentManifest


class VHardwareMachine(TargetMachine):
    """Executes the hardware half the way the generated entities do."""

    name = "generated-vhdl"

    def __init__(self, manifest: ComponentManifest, clock_mhz: int = 100):
        super().__init__(manifest)
        if clock_mhz < 1:
            raise ArchError("clock must be at least 1 MHz")
        self.clock_mhz = clock_mhz

    @property
    def ticks_per_us(self) -> int:
        return self.clock_mhz

    @property
    def cycle(self) -> int:
        """Rising edges since reset: the clock is the machine's time."""
        return self.now

    def scale_delay(self, delay: int) -> int:
        """Model microseconds -> clock cycles (ceil: never early)."""
        return -(-delay * self.clock_mhz // 1)

    def _enqueue(self, signal: SignalInstance, delay: int) -> None:
        if delay > 0:
            due = self.now + self.scale_delay(delay)
        elif self._activity_stack:
            due = self.now + 1     # registered output: visible next edge
        else:
            due = self.now         # environment stimulus: sampled this edge
        if due > self.now:
            self.pool.push_delayed(signal, due)
        else:
            self.pool.push_ready(signal)

    def tick(self) -> int:
        """One rising edge.  Returns how many events were consumed."""
        self.pool.release_due(self.now)
        # snapshot: one event per instance bank, plus one creation slot
        sources = list(self.pool.ready_handles())
        signals: list[SignalInstance] = [
            self.pool.pop_for(handle) for handle in sources
        ]
        if self.pool.has_ready_creation():
            signals.append(self.pool.pop_creation())
        for signal in signals:
            self.dispatch(signal)
        self.now += 1
        return len(signals)

    def step(self) -> bool:
        """One active edge; False (no edge) when nothing is ready now.

        The shared run loop fast-forwards the clock over idle edges, so
        its step count is the number of active edges.
        """
        self.pool.release_due(self.now)
        if self.pool.ready_count == 0:
            return False
        self.tick()
        return True

    def run_cycles(self, cycles: int) -> int:
        consumed = 0
        for _ in range(cycles):
            consumed += self.tick()
        return consumed

    # bound in this class's own namespace so the mda.vsim span resolves
    run_to_quiescence = TargetMachine.run_to_quiescence
    run_until = TargetMachine.run_until
