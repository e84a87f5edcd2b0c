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

One instant is one pass (:meth:`CoSimMachine._dispatch_now`), and each
resource's readiness lives in one place:

* the CPU is ready when ``_cpu_free_at`` is past and a software handle
  holds a queue in the pool's live ready map, or a creation waits in
  its FIFO;
* a hardware bank is ready when its handle holds a queue and its
  ``_hw_free_at`` entry is past;
* the bus is ready at the poll events on the heap, which sit at each
  request's ready time and at each moment the bus frees with work
  pending.

The pass releases due signals and drains the heap only when something
is due, starts every ready bank in handle order, gives a ready CPU its
kernel-order source and routes what each service emitted at the
service's end.  :meth:`CoSimMachine._next_time` takes the minimum over
the same three places, as a DEVS coordinator takes the minimum of its
models' time advances; :meth:`Dispatcher.advance` moves the clock.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import partial

from repro.mda.archrt import ArchError, TargetMachine
from repro.mda.compiler import Build
from repro.mda.interfacegen import (
    FrameSpec, InterfaceCodec, InterfaceError, Message)
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

# heap event kinds
_POLL, _DELIVER, _RETRY = "bus_poll", "bus_deliver", "retry"


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
    duplication and delay on the data path).  Every fact the protocol
    keeps about the signal lives here, and nowhere else.
    """

    frame_id: int
    signal: SignalInstance
    message: Message
    encoding: tuple             # the flow's wire encoding (see _cross)
    frame: FrameSpec | None     # None: unprotected
    sender_side: str
    payload: bytes              # packed, unframed
    attempts: int = 0
    done: bool = False          # receiver accepted a copy (the "ack")
    lost_counted: bool = False  # counted in FaultStats.lost

    def retries_left(self) -> bool:
        """May the ack timeout still retransmit this transfer?"""
        frame = self.frame
        return frame is not None and self.attempts <= frame.max_retries


def _field_encoding(tag: str, enums: dict):
    """How a parameter travels on the wire, both ways: an enum's
    literals (a literal travels as its index), ``"ref"`` for an instance
    reference (None travels as 0) or None (the value as is)."""
    if tag.startswith("enum:"):
        return enums[tag.split(":", 1)[1]]
    if tag.startswith("inst_ref"):
        return "ref"
    return None


class CoSimMachine(TargetMachine):
    """Timed execution of one build on the modelled SoC platform."""

    name = "cosim"
    ticks_per_us = US_TO_NS
    whole_instants = True

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
        # (receiver class, label) -> (message, its wire encoding, its
        # FrameSpec or None), filled by the first crossing of each flow
        self._messages: dict[tuple[str, str], tuple] = {}
        # not per transfer: the last frame id and the signals the wire altered
        self._frame_counter = 0
        self._corrupted_sequences: set[int] = set()
        # bus and retry events; signals wait in self.pool
        self._heap: list[tuple[int, int, str, object]] = []
        self._heap_seq = 0
        # each class's side ("sw" or "hw"), resolved once, and each
        # handle's, recorded at its creation and kept after its deletion
        self._side = {
            key: self.partition.side_of(key)
            for key in (*self.partition.hardware_classes,
                        *self.partition.software_classes)
        }
        self._handle_side: dict[int, str] = {}
        self._ready, self._waiting_creations = self.pool.live_sources()
        self._cpu_scheduler = KernelScheduler()
        self._cpu_free_at = 0
        self._hw_free_at: dict[int, int] = {}
        config = self.config
        self._sw_cost = (config.sw_dispatch_ns, config.sw_ns_per_op)
        self._hw_cost = (config.hw_dispatch_ns, config.hw_ns_per_op)
        self._emit_buffer: list[tuple[SignalInstance, int, str | None]] | None = None
        self._operation_side: str | None = None   # of the running class op
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

    def create_instance(self, class_key: str, **attribute_values) -> int:
        handle = super().create_instance(class_key, **attribute_values)
        side = self._handle_side[handle] = self._side[class_key]
        if side == "hw":
            self._hw_free_at[handle] = 0
        return handle

    # -- signal plumbing: timed routing into the pool -------------------------------

    def _enqueue(self, signal: SignalInstance, delay: int) -> None:
        # the sender's side is read now: its activity may delete it
        sender = signal.sender_handle
        sender_side = self._operation_side if sender is None \
            else self._handle_side[sender]
        if self._emit_buffer is not None:
            self._emit_buffer.append((signal, delay, sender_side))
            return
        self._route(((signal, delay, sender_side),), self.now)

    def call_class_operation(self, class_key: str, name: str, kwargs: dict):
        """Sends from a class operation leave from its class's side, the
        sender :func:`repro.marks.partition.signal_flows` gives them."""
        outer = self._operation_side
        self._operation_side = self._side[class_key]
        try:
            return super().call_class_operation(class_key, name, kwargs)
        finally:
            self._operation_side = outer

    def cancel_timer(self, handle: int, label: str) -> int:
        """Also drop timers the running activity started but not yet routed."""
        cancelled = super().cancel_timer(handle, label)
        buffer = self._emit_buffer
        if buffer:
            kept = [(signal, delay, side) for signal, delay, side in buffer
                    if not (delay > 0 and signal.target_handle == handle
                            and signal.label == label)]
            cancelled += len(buffer) - len(kept)
            buffer[:] = kept
        return cancelled

    def _route(self, sends, base_ns: int) -> None:
        """Send each ``(signal, delay, sender_side)`` of *sends* towards
        its receiver, ready *delay* microseconds after *base_ns*: into the
        pool, or over the bus if it crosses from *sender_side* (None:
        from the environment)."""
        sent_ns = self._m_sent_ns
        side = self._side
        instances = self._instances
        push = self.pool.push_delayed
        for signal, delay, sender_side in sends:
            self.signals_routed += 1
            ready_ns = base_ns + delay * US_TO_NS
            if sent_ns is not None:
                sent_ns[signal.sequence] = ready_ns
            if sender_side is not None \
                    and sender_side != side[signal.class_key]:
                self._cross(signal, ready_ns, sender_side)
            elif signal.is_creation or signal.target_handle in instances:
                push(signal, ready_ns)
            # else the receiver died: the signal is dropped

    def _cross(self, signal: SignalInstance, ready_ns: int,
               sender_side: str) -> None:
        """Pack *signal* through the generated layout, the payload a real
        bus carries, and put its first attempt on the bus."""
        key = (signal.class_key, signal.label)
        try:
            message, fields, frame = self._messages[key]
        except KeyError:
            message = self.build.interface.message_for(*key)
            enums = self.manifest.enums
            fields = tuple(
                (name, _field_encoding(tag, enums))
                for name, tag, _o, _w in self._codec.layouts[message.name][2]
                if name != "target_instance")
            frame = self._codec.frames.get(message.name)
            self._messages[key] = (message, fields, frame)
        params = signal.params
        values = {"target_instance": signal.target_handle or 0}
        for name, encoding in fields:
            value = params[name] if name in params else None
            if value is None:
                value = 0
            elif encoding == "ref":
                value = int(value) if value else 0
            elif encoding is not None:
                value = encoding.index(value) if isinstance(value, str) \
                    else int(value)
            values[name] = value
        self._frame_counter += 1
        transfer = _Transfer(
            frame_id=self._frame_counter,
            signal=signal,
            message=message,
            encoding=fields,
            frame=frame,
            sender_side=sender_side,
            payload=self._codec.pack(message.name, values),
        )
        self._send_attempt(transfer, ready_ns)

    def _send_attempt(self, transfer: _Transfer, ready_ns: int) -> None:
        """Put one (re)transmission of *transfer* on the bus."""
        transfer.attempts += 1
        attempt = transfer.attempts
        message = transfer.message
        frame = transfer.frame
        wire = transfer.payload
        if frame is not None:
            wire = self._codec.frame(message.name, wire, transfer.frame_id)
        request = BusRequest(
            ready_at=ready_ns,
            sequence=transfer.signal.sequence,
            message_id=message.message_id,
            payload_bytes=len(wire),
            sender_side=transfer.sender_side,
            # holds the transfer, not the request: no cycle keeps a
            # delivered request alive until a garbage collection
            deliver=partial(self._frame_arrived, transfer),
            payload=wire,
            message_name=message.name,
            attempt=attempt,
        )
        self.bus.request(request)
        if ready_ns >= self.bus.free_at:
            # else a poll at ready_ns could grant nothing: the poll made
            # when the bus frees serves this request
            self._push_heap(ready_ns, _POLL, None)
        if frame is not None and frame.max_retries > 0:
            # ack timeout doubles per attempt (exponential backoff)
            timeout = frame.retry_backoff_ns << (attempt - 1)
            self._push_heap(ready_ns + timeout, _RETRY, transfer)

    # -- receiver side of the resilience protocol ---------------------------------

    def _frame_arrived(self, transfer: _Transfer, request: BusRequest) -> None:
        """One bus delivery concluded — apply its fault, if any."""
        fault = request.fault or NO_FAULT
        if fault.drop:
            # the wire ate this copy: lost, unless the ack timeout can
            # still retry it (a protected transfer with attempts left)
            if not transfer.retries_left():
                self._count_lost(transfer)
            return
        wire = request.payload
        if fault.corrupt and self.fault_plan is not None:
            wire = self.fault_plan.corrupt_payload(
                wire, request.message_name, request.sequence, request.attempt)
        deliveries = 2 if fault.duplicate else 1
        for _ in range(deliveries):
            if transfer.frame is not None:
                self._accept_frame(transfer, wire)
            elif fault.corrupt:
                self._deliver_corrupted(transfer, wire)
            else:
                self._deliver(transfer.signal)

    def _accept_frame(self, transfer: _Transfer, wire: bytes) -> None:
        """CRC check, dedup, ack, and delivery of a protected frame."""
        stats = self.fault_stats
        try:
            payload, _seq = self._codec.deframe(transfer.message.name, wire)
        except InterfaceError:
            stats.detected += 1
            if not transfer.retries_left():
                self._count_lost(transfer)   # no attempts left to fix it
            return
        if transfer.done:
            stats.duplicates_discarded += 1
            return
        transfer.done = True
        if transfer.lost_counted:
            # a copy given up for lost limped in after all: un-count it
            transfer.lost_counted = False
            stats.lost -= 1
            if transfer.frame.critical:
                stats.critical_lost -= 1
            stats.recovered += 1
        elif transfer.attempts > 1:
            stats.recovered += 1
        if payload == transfer.payload:
            self._deliver(transfer.signal)
        else:
            # CRC passed on altered bytes (or an undetected flip)
            self._deliver_corrupted(transfer, payload)

    def _deliver_corrupted(self, transfer: _Transfer, payload: bytes) -> None:
        """Best-effort delivery of a payload the wire altered: garbage
        degrades gracefully, never raises."""
        decoded = self._decode_signal(transfer, payload)
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
        """Rebuild the signal from wire bytes through the flow's wire
        encoding; None if it cannot be trusted."""
        try:
            values = self._codec.unpack(transfer.message.name, payload)
        except InterfaceError:
            return None
        if values["target_instance"] != (transfer.signal.target_handle or 0):
            return None   # misrouted: addresses some other (or no) instance
        params: dict = {}
        for name, encoding in transfer.encoding:
            value = values[name]
            if encoding is not None and encoding != "ref":
                if not 0 <= value < len(encoding):
                    return None   # no such literal
                value = encoding[value]
            params[name] = value
        return replace(transfer.signal, params=params)

    def _count_lost(self, transfer: _Transfer) -> None:
        if transfer.done or transfer.lost_counted:
            return
        transfer.lost_counted = True
        self.fault_stats.lost += 1
        if transfer.frame is not None and transfer.frame.critical:
            self.fault_stats.critical_lost += 1

    def _push_heap(self, time_ns: int, kind: str, payload) -> None:
        self._heap_seq += 1
        heapq.heappush(self._heap, (time_ns, self._heap_seq, kind, payload))

    # -- the shared loop's hooks: one instant, and the next one -----------------

    def run(self, horizon_us: int | None = None,
            max_steps: int = 2_000_000) -> int:
        """Run through model time *horizon_us* or, without one, to
        quiescence within :data:`QUIESCENCE_BUDGET_US`.  Returns the
        dispatch count."""
        if horizon_us is not None:
            return super().run_until(horizon_us, max_steps)
        budget_us = self.now // US_TO_NS + QUIESCENCE_BUDGET_US
        return self._run_to(budget_us * US_TO_NS, max_steps)

    def run_to_quiescence(self, max_steps: int = 1_000_000) -> int:
        return self.run(max_steps=max_steps)

    def run_until(self, time_us: int) -> int:
        return self.run(horizon_us=time_us)

    def step(self) -> bool:
        """One pass: False when nothing was dispatched at ``now``."""
        return self._dispatch_now()[0] > 0

    def _dispatch_now(self) -> tuple[int, int | None]:
        """One pass over the instant ``now``: take in what is due, start
        every free hardware bank whose instance has a signal waiting, in
        handle order, then give a free CPU its kernel-order software
        source.  Returns how many services started and the next instant
        (None: nothing is left to happen).

        The next instant is the earliest of the heap (bus polls and
        deliveries, retries), the next delayed signal and the free time
        of every resource with a signal waiting, as a DEVS coordinator
        takes the minimum of its models' time advances.  Every service
        the pass starts leaves its resource busy past ``now`` and routes
        its signals to arrive at its end, unless it costs nothing or is a
        hardware creation (which occupies neither the CPU nor a bank).
        Only then can more start at ``now``: the next instant is ``now``
        itself, and the loop makes another pass (:attr:`whole_instants`).
        """
        now = self.now
        pool = self.pool
        if pool.due_at <= now:
            # local signals due by now reach their queues before anything
            # the bus delivers at this instant, as they were routed earlier
            pool.release_due(now)
        heap = self._heap
        if heap and heap[0][0] <= now:
            self._drain_heap(now)
        ready = self._ready
        handle_side = self._handle_side
        hw_free_at = self._hw_free_at
        bank = None                      # the first free bank
        banks: list[int] | None = None   # made for the second one
        software = None                  # the first waiting software handle
        more_software = False
        for handle in ready:
            if handle_side[handle] == "sw":
                if software is None:
                    software = handle
                else:
                    more_software = True
            elif hw_free_at[handle] <= now:
                if bank is None:
                    bank = handle
                elif banks is None:
                    banks = [bank, handle]
                else:
                    banks.append(handle)
        started = 0
        if banks is not None:
            banks.sort()   # the bank that starts first traces first
            for handle in banks:
                if handle in ready:   # else an earlier bank deleted it
                    self._service(handle, pool.pop_for(handle))
                    started += 1
        elif bank is not None:
            self._service(bank, pool.pop_for(bank))
            started = 1
        # the single CPU: at most one software dispatch per pass, chosen
        # after the banks, whose actions may delete software instances.
        # Hardware creation events are dispatched by the CPU-side
        # configuration master too (instance banks are provisioned by
        # software), but only when no software signal is pending.
        creations = self._waiting_creations
        if (software is not None or creations) and self._cpu_free_at <= now:
            source = None
            software_creation = (creations and
                                 self._side[creations[0].class_key] == "sw")
            if more_software or software_creation:
                sources = [h for h in ready if handle_side[h] == "sw"]
                if software_creation:
                    sources.append(CREATION)
                if sources:
                    source = self._cpu_scheduler.choose(pool, sources)
            elif software in ready:
                source = software   # the one candidate: nothing to choose
            if source is None and creations:
                source = CREATION
            if source == CREATION:
                self._service(None, creations.popleft())
                started += 1
            elif source is not None:
                self._service(source, pool.pop_for(source))
                started += 1
        # the next instant, read after the services this pass started
        best = heap[0][0] if heap else math.inf
        if pool.due_at < best:
            best = pool.due_at
        cpu_waits = bool(creations)
        for handle in ready:
            if handle_side[handle] == "hw":
                free_at = hw_free_at[handle]
                if free_at < best:
                    best = free_at
            else:
                cpu_waits = True
        if cpu_waits and self._cpu_free_at < best:
            best = self._cpu_free_at
        return started, None if best == math.inf else best

    def _drain_heap(self, now: int) -> None:
        """Run the bus and retry events due by *now*, in push order."""
        heap = self._heap
        bus = self.bus
        while heap and heap[0][0] <= now:
            _t, _s, kind, payload = heapq.heappop(heap)
            if kind == _POLL:
                granted = bus.grant(now)
                while granted is not None:
                    delivery, request = granted
                    self._push_heap(delivery, _DELIVER, request)
                    if delivery > bus.free_at:
                        # a delayed frame frees the bus before it lands
                        self._push_heap(bus.free_at, _POLL, None)
                    # a busy bus grants nothing more now
                    granted = bus.grant(now) if bus.free_at <= now else None
            elif kind == _DELIVER:
                payload.deliver(payload)
                # the bus may have more queued work now that it is free;
                # with none queued and nothing else due, a poll is idle
                if bus.has_pending() or (heap and heap[0][0] <= now):
                    self._push_heap(now, _POLL, None)
            else:
                transfer = payload
                if not transfer.done:
                    if transfer.retries_left():
                        self.fault_stats.retransmissions += 1
                        self._send_attempt(transfer, now)
                    else:
                        self._count_lost(transfer)

    def _deliver(self, signal: SignalInstance) -> None:
        """A bus transfer arrived: queue the signal for its receiver,
        unless the receiver died."""
        if signal.is_creation or signal.target_handle in self._instances:
            self.pool.push_ready(signal)

    def _service(self, handle: int | None, signal: SignalInstance) -> None:
        """Dispatch *signal* on its class's resource, charge the resource
        for it and route what the dispatch emitted at the service's end."""
        class_key = signal.class_key
        side = self._side[class_key]
        executor = self.executor
        ops_before = executor.ops_executed
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
        ops = executor.ops_executed - ops_before
        if side == "sw":
            per_dispatch, per_op = self._sw_cost
            duration = per_dispatch + ops * per_op
            self._cpu_free_at = start + duration
            self.cpu_stats.busy_ns += duration
            self.cpu_stats.dispatches += 1
        else:
            per_dispatch, per_op = self._hw_cost
            duration = per_dispatch + ops * per_op
            # creation events target a fresh handle; charge its bank
            owner = signal.target_handle if signal.target_handle is not None \
                else handle
            if owner is not None:
                self._hw_free_at[owner] = start + duration
            stats = self.hw_stats[class_key]
            stats.busy_ns += duration
            stats.dispatches += 1
        if self._m_service is not None:
            self._m_service[side].observe(duration)
        if emitted:
            self._route(emitted, start + duration)

    # -- measurement helpers ------------------------------------------------------

    def utilization_report(self) -> dict[str, float]:
        horizon = max(self.now, 1)
        report = {"cpu": self.cpu_stats.utilization(horizon),
                  "bus": self.bus.stats.utilization(horizon)}
        for key, stats in self.hw_stats.items():
            report[f"hw:{key}"] = stats.utilization(horizon)
        return report
