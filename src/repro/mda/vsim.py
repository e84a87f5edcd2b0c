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

Stamping, tracing and dispatch are the shared
:class:`~repro.runtime.dispatcher.Dispatcher`'s; this module adds only the
per-edge snapshot policy, the registered-output queueing and the clock.
"""

from __future__ import annotations

from repro.runtime.events import SignalInstance

from .archrt import ArchError, TargetMachine
from .manifest import ComponentManifest


class VHardwareMachine(TargetMachine):
    """Executes the hardware half the way the generated entities do."""

    architecture = "vhdl-clocked"

    def __init__(self, manifest: ComponentManifest, clock_mhz: int = 100):
        super().__init__(manifest)
        if clock_mhz < 1:
            raise ArchError("clock must be at least 1 MHz")
        self.clock_mhz = clock_mhz
        self.cycle = 0

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
        self.cycle += 1
        self.now += 1
        return len(signals)

    def run_cycles(self, cycles: int) -> int:
        consumed = 0
        for _ in range(cycles):
            consumed += self.tick()
        return consumed

    def run_to_quiescence(self, max_cycles: int = 10_000_000) -> int:
        """Clock until no event is pending or scheduled.  Returns cycles."""
        cycles = 0
        while cycles < max_cycles:
            if self.pool.is_idle():
                break
            if self.pool.ready_count == 0:
                due = self.pool.next_due_time()
                if due is None:
                    break
                # fast-forward the clock to the next scheduled edge
                # (idle edges are free; only active ticks count below)
                self.cycle += due - self.now
                self.now = due
            self.tick()
            cycles += 1
        else:
            raise ArchError(f"no quiescence within {max_cycles} cycles")
        return cycles

    def run_until(self, time_us: int, max_cycles: int = 10_000_000) -> int:
        """Clock until model time *time_us* (µs × clock = target cycle)."""
        target_cycle = time_us * self.clock_mhz
        cycles = 0
        while self.now < target_cycle:
            if self.pool.is_idle():
                self.cycle = target_cycle
                self.now = target_cycle
                break
            if self.pool.ready_count == 0:
                due = self.pool.next_due_time()
                if due is None or due > target_cycle:
                    self.cycle = target_cycle
                    self.now = target_cycle
                    break
                self.cycle += due - self.now
                self.now = due
            self.tick()
            cycles += 1
            if cycles > max_cycles:
                raise ArchError(f"exceeded {max_cycles} cycles")
        return cycles
