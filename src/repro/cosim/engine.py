"""The co-simulation engine.

"Once the prototype runs, it is possible to measure the performance,
which may require changing the partition" (paper section 1).  This
engine is that prototype: it executes a compiled :class:`Build` as a
timed discrete-event simulation of the SoC platform —

* one shared CPU serializes every software-class dispatch;
* each hardware-class instance is its own concurrent resource;
* boundary signals travel over the shared :class:`~repro.cosim.bus.Bus`,
  paying arbitration and per-byte transfer, packed through the generated
  interface codec (so cross-partition traffic exercises the generated
  message layouts on every hop);
* action cost is the *dynamically executed* IR operation count times the
  platform's per-op cost, so a loop over a long packet really costs more
  than a short one.

Changing the partition means flipping marks and recompiling — nothing in
the stimulus or the measurement code changes, which is precisely the
workflow the paper advertises.

Signals wait where every other executor keeps them: local signals sit in
the shared :class:`~repro.runtime.events.EventPool` until their ready
time, and the CPU picks its next dispatch with the generated kernel's
:class:`~repro.runtime.scheduler.KernelScheduler`.  Timer cancellation
and instance deletion therefore act on the queues this engine drains.
The engine's own heap holds only bus and retransmission events.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

from repro.mda.archrt import ArchError, TargetMachine
from repro.mda.compiler import Build
from repro.mda.interfacegen import InterfaceCodec, InterfaceError
from repro.obs.metrics import active_registry
from repro.runtime.causality import CausalIndex
from repro.runtime.events import CREATION, SignalInstance
from repro.runtime.scheduler import KernelScheduler

from .bus import Bus, BusRequest
from .config import CoSimConfig
from .faults import NO_FAULT, FaultPlan, FaultStats

#: model time (microseconds) to platform time (nanoseconds)
US_TO_NS = 1_000

#: sim-time budget of one ``run_to_quiescence`` (microseconds), a horizon
#: that only cuts: a run that quiesces first leaves ``now`` at its last
#: event.  A corrupted parameter can legally ask for an absurdly long
#: behaviour (a four-billion second cook) and chaos runs must terminate
#: anyway; one hour is generous enough that every fault-free suite
#: finishes unchanged.
QUIESCENCE_BUDGET_US = 3_600 * 1_000_000


@dataclass
class ResourceStats:
    """Busy accounting for one execution resource."""

    name: str
    busy_ns: int = 0
    dispatches: int = 0

    def utilization(self, horizon_ns: int) -> float:
        if horizon_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / horizon_ns)


@dataclass
class _Transfer:
    """Sender-side state of one cross-partition signal on the wire.

    A transfer outlives individual bus requests: every (re)transmission
    of the signal is one attempt of the same transfer, and the receiver
    acks by setting ``done`` (the ack travels on an instantaneous
    sideband — it occupies no bus time and is never faulted, which keeps
    the protocol tractable while still exercising loss, corruption,
    duplication and delay on the data path).
    """

    frame_id: int
    signal: SignalInstance
    message_name: str
    message_id: int
    sender_side: str
    payload: bytes              # packed, unframed
    protected: bool = False
    max_retries: int = 0
    backoff_ns: int = 2_000
    critical: bool = False
    attempts: int = 0
    done: bool = False          # receiver accepted a copy (the "ack")
    lost_counted: bool = False


class CoSimMachine(TargetMachine):
    """Timed execution of one build on the modelled SoC platform."""

    name = "cosim"
    ticks_per_us = US_TO_NS

    def __init__(self, build: Build, config: CoSimConfig | None = None,
                 fault_plan: FaultPlan | None = None):
        super().__init__(build.manifest)
        if fault_plan is not None:
            self.name = "cosim/faulted"
        self.build = build
        self.config = (config or CoSimConfig()).validated()
        self.partition = build.partition
        self.fault_plan = fault_plan
        self.fault_stats = FaultStats()
        self.bus = Bus(self.config, fault_plan, self.fault_stats)
        self._codec = InterfaceCodec.from_artifact(
            build.interface.emit_c_header())
        # resilience protocol state
        self._frame_counter = 0
        self._delivered_frames: set[int] = set()
        self._lost_frames: set[int] = set()
        self._corrupted_sequences: set[int] = set()
        # bus and retry events; signals wait in self.pool
        self._heap: list[tuple[int, int, int, object]] = []
        self._heap_seq = 0
        # each class's side ("sw" or "hw"), resolved once
        self._side = {
            key: self.partition.side_of(key)
            for key in (*self.partition.hardware_classes,
                        *self.partition.software_classes)
        }
        self._cpu_scheduler = KernelScheduler()
        self._cpu_free_at = 0
        self._hw_free_at: dict[int, int] = {}
        # an instant whose every started service left its resource busy
        # past it: nothing more can start there (see _start_services)
        self._settled_at: int | None = None
        self._emit_buffer: list[tuple[SignalInstance, int]] | None = None
        self.cpu_stats = ResourceStats("cpu")
        self.hw_stats: dict[str, ResourceStats] = {
            key: ResourceStats(f"hw:{key}")
            for key in self.partition.hardware_classes
        }
        self.signals_routed = 0
        registry = active_registry()
        if registry is None:
            self._m_latency = None
            self._m_service = None
            self._m_sent_ns: dict[int, int] | None = None
        else:
            self._m_latency = {
                side: registry.histogram(f"cosim.signal_latency_ns.{side}")
                for side in ("sw", "hw")
            }
            self._m_service = {
                side: registry.histogram(f"cosim.service_ns.{side}")
                for side in ("sw", "hw")
            }
            self._m_sent_ns = {}

    # -- signal plumbing: timed routing into the pool -------------------------------

    def _enqueue(self, signal: SignalInstance, delay: int) -> None:
        if self._emit_buffer is not None:
            self._emit_buffer.append((signal, delay))
            return
        self._route(signal, self.now + delay * US_TO_NS)

    def cancel_timer(self, handle: int, label: str) -> int:
        """Also drop timers the running activity started but not yet routed."""
        cancelled = super().cancel_timer(handle, label)
        buffer = self._emit_buffer
        if buffer:
            kept = [(signal, delay) for signal, delay in buffer
                    if not (delay > 0 and signal.target_handle == handle
                            and signal.label == label)]
            cancelled += len(buffer) - len(kept)
            buffer[:] = kept
        return cancelled

    def _route(self, signal: SignalInstance, ready_ns: int) -> None:
        """Send *signal* towards its receiver, via the bus if it crosses."""
        self.signals_routed += 1
        if self._m_sent_ns is not None:
            self._m_sent_ns[signal.sequence] = ready_ns
        sender_side = None
        if signal.sender_handle is not None:
            sender_side = self._side[self.class_of(signal.sender_handle)]
        receiver_side = self._side[signal.class_key]
        crosses = sender_side is not None and sender_side != receiver_side
        if not crosses:
            if self._receivable(signal):
                self.pool.push_delayed(signal, ready_ns)
            return
        message = self.build.interface.message_for(
            signal.class_key, signal.label)
        # pack through the generated layout: the payload a real bus carries
        values = {"target_instance": signal.target_handle or 0}
        values.update({
            name: self._bus_encode(signal.params.get(name), tag)
            for name, tag, _o, _w in self._codec.layouts[message.name][2]
            if name != "target_instance"
        })
        payload = self._codec.pack(message.name, values)
        self._frame_counter += 1
        frame_spec = self._codec.frames.get(message.name)
        transfer = _Transfer(
            frame_id=self._frame_counter,
            signal=signal,
            message_name=message.name,
            message_id=message.message_id,
            sender_side=sender_side,
            payload=payload,
        )
        if frame_spec is not None:
            transfer.protected = True
            transfer.max_retries = frame_spec.max_retries
            transfer.backoff_ns = frame_spec.retry_backoff_ns
            transfer.critical = frame_spec.critical
        self._send_attempt(transfer, ready_ns)

    def _send_attempt(self, transfer: _Transfer, ready_ns: int) -> None:
        """Put one (re)transmission of *transfer* on the bus."""
        transfer.attempts += 1
        attempt = transfer.attempts
        if transfer.protected:
            wire = self._codec.frame(
                transfer.message_name, transfer.payload, transfer.frame_id)
        else:
            wire = transfer.payload
        request = BusRequest(
            ready_at=ready_ns,
            sequence=transfer.signal.sequence,
            message_id=transfer.message_id,
            payload_bytes=len(wire),
            sender_side=transfer.sender_side,
            deliver=None,
            payload=wire,
            message_name=transfer.message_name,
            attempt=attempt,
        )
        request.deliver = \
            lambda t=transfer, r=request: self._frame_arrived(t, r)
        self.bus.request(request)
        self._push_heap(ready_ns, "bus_poll", None)
        if transfer.protected and transfer.max_retries > 0:
            # ack timeout doubles per attempt (exponential backoff)
            timeout = transfer.backoff_ns << (attempt - 1)
            self._push_heap(ready_ns + timeout, "retry", transfer)

    def _bus_encode(self, value, tag: str):
        if value is None:
            return 0
        if tag.startswith("enum:"):
            enum_name = tag.split(":", 1)[1]
            return self.manifest.enums[enum_name].index(value) \
                if isinstance(value, str) else int(value)
        if tag.startswith("inst_ref"):
            return int(value) if value else 0
        return value

    # -- receiver side of the resilience protocol ---------------------------------

    def _frame_arrived(self, transfer: _Transfer, request: BusRequest) -> None:
        """One bus delivery concluded — apply its fault, if any."""
        fault = request.fault or NO_FAULT
        if fault.drop:
            # the wire ate this copy; protected transfers retry on the
            # ack timeout, unprotected ones are silently lost
            if not transfer.protected:
                self._count_lost(transfer)
            elif transfer.attempts > transfer.max_retries:
                self._count_lost(transfer)   # that was the last attempt
            return
        wire = request.payload
        if fault.corrupt and self.fault_plan is not None:
            wire = self.fault_plan.corrupt_payload(
                wire, request.message_name, request.sequence, request.attempt)
        deliveries = 2 if fault.duplicate else 1
        for _ in range(deliveries):
            if transfer.protected:
                self._accept_frame(transfer, wire)
            else:
                self._deliver_unprotected(transfer, wire, fault.corrupt)

    def _accept_frame(self, transfer: _Transfer, wire: bytes) -> None:
        """CRC check, dedup, ack, and delivery of a protected frame."""
        stats = self.fault_stats
        try:
            payload, _seq = self._codec.deframe(transfer.message_name, wire)
        except InterfaceError:
            stats.detected += 1
            if transfer.attempts > transfer.max_retries:
                self._count_lost(transfer)   # no attempts left to fix it
            return
        if transfer.frame_id in self._delivered_frames:
            stats.duplicates_discarded += 1
            transfer.done = True
            return
        self._delivered_frames.add(transfer.frame_id)
        transfer.done = True
        if transfer.frame_id in self._lost_frames:
            # a copy given up for lost limped in after all: un-count it
            self._lost_frames.discard(transfer.frame_id)
            stats.lost -= 1
            if transfer.critical:
                stats.critical_lost -= 1
            stats.recovered += 1
        elif transfer.attempts > 1:
            stats.recovered += 1
        if payload == transfer.payload:
            self._deliver(transfer.signal)
            return
        # CRC passed on altered bytes (or an undetected flip): decode it
        decoded = self._decode_signal(transfer, payload)
        if decoded is None:
            stats.detected += 1
            self._count_lost(transfer)
        else:
            stats.delivered_corrupted += 1
            self._corrupted_sequences.add(decoded.sequence)
            self._deliver(decoded)

    def _deliver_unprotected(self, transfer: _Transfer, wire: bytes,
                             corrupted: bool) -> None:
        """Best-effort delivery: garbage degrades gracefully, never raises."""
        if not corrupted:
            self._deliver(transfer.signal)
            return
        decoded = self._decode_signal(transfer, wire)
        if decoded is None:
            # malformed beyond decoding: dropped and counted, no exception
            self.fault_stats.detected += 1
            self._count_lost(transfer)
            return
        self.fault_stats.delivered_corrupted += 1
        self._corrupted_sequences.add(decoded.sequence)
        self._deliver(decoded)

    def _decode_signal(self, transfer: _Transfer,
                       payload: bytes) -> SignalInstance | None:
        """Rebuild the signal from wire bytes; None if it cannot be trusted."""
        try:
            values = self._codec.unpack(transfer.message_name, payload)
        except InterfaceError:
            return None
        target = values.pop("target_instance", 0)
        if target != (transfer.signal.target_handle or 0):
            return None   # misrouted: addresses some other (or no) instance
        params: dict = {}
        for name, tag, _o, _w in self._codec.layouts[transfer.message_name][2]:
            if name == "target_instance":
                continue
            try:
                params[name] = self._bus_decode(values[name], tag)
            except (InterfaceError, KeyError, ValueError):
                return None
        return replace(transfer.signal, params=params)

    def _bus_decode(self, value, tag: str):
        if tag.startswith("enum:"):
            enum_name = tag.split(":", 1)[1]
            literals = self.manifest.enums[enum_name]
            index = int(value)
            if not 0 <= index < len(literals):
                raise InterfaceError(
                    f"enum {enum_name} index {index} out of range")
            return literals[index]
        return value

    def _count_lost(self, transfer: _Transfer) -> None:
        if transfer.done or transfer.lost_counted:
            return
        transfer.lost_counted = True
        self._lost_frames.add(transfer.frame_id)
        self.fault_stats.lost += 1
        if transfer.critical:
            self.fault_stats.critical_lost += 1

    def _push_heap(self, time_ns: int, kind: str, payload) -> None:
        self._heap_seq += 1
        heapq.heappush(self._heap, (time_ns, self._heap_seq, kind, payload))

    def _push_heap_now(self, kind: str, payload) -> None:
        self._push_heap(self.now, kind, payload)

    # -- the shared loop's hooks: one instant, and the next one -----------------

    def run(self, horizon_us: int | None = None,
            max_steps: int = 2_000_000) -> int:
        """Run through model time *horizon_us* or, without one, to
        quiescence within :data:`QUIESCENCE_BUDGET_US`.  Returns the
        dispatch count."""
        self._settled_at = None   # the caller may have added work since
        if horizon_us is not None:
            return super().run_until(horizon_us, max_steps)
        budget_us = self.now // US_TO_NS + QUIESCENCE_BUDGET_US
        return self._run_to(budget_us * US_TO_NS, max_steps)

    def run_to_quiescence(self, max_steps: int = 1_000_000) -> int:
        return self.run(max_steps=max_steps)

    def run_until(self, time_us: int) -> int:
        return self.run(horizon_us=time_us)

    def step(self) -> bool:
        """One instant: False when nothing was dispatched at ``now``."""
        self._settled_at = None
        return self._dispatch_now() > 0

    def _dispatch_now(self) -> int:
        if self._settled_at == self.now:
            return 0
        self._drain_heap()
        return self._start_services()

    def _next_time(self) -> int | None:
        """The earliest of the heap, the bus, the next delayed signal and
        the free time of every resource with a signal waiting."""
        best = self._heap[0][0] if self._heap else math.inf
        bus_next = self.bus.next_ready_time()
        if bus_next is not None and bus_next < best:
            best = bus_next
        pool = self.pool
        if pool.due_at < best:
            best = pool.due_at
        side = self._side
        instances = self._instances
        hw_free_at = self._hw_free_at
        cpu_waits = pool.has_ready_creation()
        for handle in pool.ready_handles():
            if side[instances[handle].class_key] == "sw":
                cpu_waits = True
            else:
                free_at = hw_free_at.get(handle, 0)
                if free_at < best:
                    best = free_at
        if cpu_waits and self._cpu_free_at < best:
            best = self._cpu_free_at
        return None if best == math.inf else best

    def _drain_heap(self) -> None:
        # local signals due by now reach their queues before anything the
        # bus delivers at this instant, as they were routed earlier
        self.pool.release_due(self.now)
        while self._heap and self._heap[0][0] <= self.now:
            _t, _s, kind, payload = heapq.heappop(self._heap)
            if kind == "bus_poll":
                granted = self.bus.grant(self.now)
                while granted is not None:
                    delivery, request = granted
                    self._push_heap(delivery, "bus_deliver", request)
                    if delivery > self.bus.free_at:
                        # a delayed frame frees the bus before it lands
                        self._push_heap(self.bus.free_at, "bus_poll", None)
                    granted = self.bus.grant(self.now)
            elif kind == "bus_deliver":
                payload.deliver()
                # the bus may have more queued work now that it is free
                self._push_heap_now("bus_poll", None)
            elif kind == "retry":
                transfer = payload
                if not transfer.done:
                    if transfer.attempts <= transfer.max_retries:
                        self.fault_stats.retransmissions += 1
                        self._send_attempt(transfer, self.now)
                    else:
                        self._count_lost(transfer)

    def _receivable(self, signal: SignalInstance) -> bool:
        """False once the receiver died: the signal is then dropped."""
        return signal.is_creation or signal.target_handle in self._instances

    def _deliver(self, signal: SignalInstance) -> None:
        """A bus transfer arrived: queue the signal for its receiver."""
        if self._receivable(signal):
            self.pool.push_ready(signal)

    def _start_services(self) -> int:
        """One pass over the ready instances: start every free hardware
        bank, then give a free CPU its kernel-order software source.

        The instant is settled when every service it started left its
        resource busy past ``now``.  The routed signals of such services
        arrive later too, so the loop's next call at this ``now`` has
        nothing to start and returns at once.  A zero-cost service, or a
        hardware creation (which occupies neither the CPU nor a bank),
        leaves the instant open.
        """
        now = self.now
        pool = self.pool
        instances = self._instances
        side = self._side
        hw_free_at = self._hw_free_at
        cpu_free = self._cpu_free_at <= now
        software: list[int] = []
        started = 0
        settled = True
        for handle in pool.ready_handles():
            instance = instances.get(handle)   # None: deleted just now
            if instance is None:
                continue
            class_key = instance.class_key
            if side[class_key] == "sw":
                if cpu_free:
                    software.append(handle)
            elif hw_free_at.get(handle, 0) <= now:
                # hardware instances are independent resources
                self._service(handle, class_key, pool.pop_for(handle))
                started += 1
                settled = settled and hw_free_at[handle] > now
        # the single CPU: at most one software dispatch per pass
        if started and software:   # a hardware action may have deleted some
            software = [h for h in software if h in instances]
        if cpu_free and (software or pool.has_ready_creation()):
            source = self._choose_software(software)
            signal = pool.pop(source)
            self._service(None if source == CREATION else source,
                          signal.class_key, signal)
            started += 1
            settled = settled and self._cpu_free_at > now
        if started and settled:
            self._settled_at = now
        return started

    def _choose_software(self, software: list[int]) -> int:
        """The CPU's next source: kernel order over the ready *software*
        instances and a software creation.

        Hardware creation events are dispatched by the CPU-side
        configuration master too (instance banks are provisioned by
        software), but only when no software signal is pending.
        """
        pool = self.pool
        if pool.has_ready_creation() and \
                self._side[pool.peek(CREATION).class_key] == "sw":
            software.append(CREATION)
        source = self._cpu_scheduler.choose(pool, software)
        return CREATION if source is None else source

    def _service(self, handle, class_key: str, signal: SignalInstance) -> None:
        side = self._side[class_key]
        ops_before = self.ops_executed
        self._emit_buffer = []
        start = self.now
        if self._m_latency is not None:
            sent_at = self._m_sent_ns.pop(signal.sequence, None)
            if sent_at is not None:
                self._m_latency[side].observe(start - sent_at)
        try:
            self.dispatch(signal)
        except ArchError:
            # a corrupted command can trip the runtime's safety bounds
            # directly (loop limit) or poison the receiver's state so a
            # *later*, clean signal hits cant-happen.  Contain the blast
            # radius -- write the dispatch off as lost -- only when a
            # corrupted signal is among its causal ancestors; any other
            # error is a genuine model bug and propagates.
            if self._corrupted_sequences.isdisjoint(
                    CausalIndex(self.trace).ancestors(
                        signal.sequence, signal.target_handle)):
                raise
            self.fault_stats.lost += 1
        finally:
            emitted = self._emit_buffer
            self._emit_buffer = None
        ops = self.ops_executed - ops_before
        if side == "sw":
            duration = self.config.sw_dispatch_ns + ops * self.config.sw_ns_per_op
            self._cpu_free_at = start + duration
            self.cpu_stats.busy_ns += duration
            self.cpu_stats.dispatches += 1
        else:
            duration = self.config.hw_dispatch_ns + ops * self.config.hw_ns_per_op
            # creation events target a fresh handle; charge its bank
            owner = signal.target_handle if signal.target_handle is not None \
                else handle
            if owner is not None:
                self._hw_free_at[owner] = start + duration
            stats = self.hw_stats.get(class_key)
            if stats is not None:
                stats.busy_ns += duration
                stats.dispatches += 1
        if self._m_service is not None:
            self._m_service[side].observe(duration)
        end = start + duration
        for emitted_signal, delay in emitted:
            self._route(emitted_signal, end + delay * US_TO_NS)

    # -- measurement helpers ------------------------------------------------------

    def utilization_report(self) -> dict[str, float]:
        horizon = max(self.now, 1)
        report = {"cpu": self.cpu_stats.utilization(horizon),
                  "bus": self.bus.stats.utilization(horizon)}
        for key, stats in self.hw_stats.items():
            report[f"hw:{key}"] = stats.utilization(horizon)
        return report
