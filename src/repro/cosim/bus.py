"""The shared on-chip bus.

Cross-partition messages are serialized through one bus.  The bus grants
pending requests one at a time; the grant order is the arbitration
policy (E4 ablates fixed-priority against round-robin against FIFO).
Occupancy per message comes from :meth:`CoSimConfig.bus_transfer_ns`.

When a :class:`~repro.cosim.faults.FaultPlan` is installed, the grant
path is where faults strike: the bus draws the transfer's (seeded,
reproducible) :class:`~repro.cosim.faults.FaultDecision`, counts it in
the shared :class:`~repro.cosim.faults.FaultStats`, attaches it to the
request for the receiver to act on, and stretches the delivery time of
delayed frames.  The bus itself stays oblivious to frame contents —
detection and recovery are the engine's business.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import active_registry

from .config import CoSimConfig
from .faults import FaultDecision, FaultPlan, FaultStats


@dataclass
class BusRequest:
    """One pending cross-partition message."""

    ready_at: int
    sequence: int
    message_id: int
    payload_bytes: int
    sender_side: str            # "hw" or "sw"
    deliver: object             # called with the request at delivery time
    payload: bytes = b""        # the (possibly framed) wire bytes
    message_name: str = ""      # interface message this frame carries
    attempt: int = 1            # 1 = first send, >1 = retransmission
    #: FaultDecision drawn at grant time (None until granted / no plan)
    fault: FaultDecision | None = None


@dataclass
class BusStats:
    """Aggregate bus accounting."""

    messages: int = 0
    bytes_moved: int = 0
    busy_ns: int = 0
    wait_ns: int = 0

    def utilization(self, horizon_ns: int) -> float:
        if horizon_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / horizon_ns)


class Bus:
    """Single-master-at-a-time shared bus with pluggable arbitration."""

    def __init__(self, config: CoSimConfig,
                 fault_plan: FaultPlan | None = None,
                 fault_stats: FaultStats | None = None):
        self._config = config.validated()
        self._pending: list[BusRequest] = []
        #: when the current transfer leaves the bus; never decreases
        self.free_at = 0
        self._rr_last_side = "hw"    # round-robin alternates sides
        #: payload bytes -> bus occupancy, computed once per size
        self._transfer_ns: dict[int, int] = {}
        self.stats = BusStats()
        self._fault_plan = fault_plan
        self.fault_stats = fault_stats if fault_stats is not None \
            else FaultStats()
        registry = active_registry()
        self._m_wait = (None if registry is None
                        else registry.histogram("cosim.bus.wait_ns"))

    def request(self, request: BusRequest) -> None:
        self._pending.append(request)

    def has_pending(self) -> bool:
        return bool(self._pending)

    def grant(self, now: int) -> tuple[int, BusRequest] | None:
        """Grant one request if the bus is idle at *now*.

        Returns ``(delivery_time, request)`` after accounting, or None.
        The caller invokes ``request.deliver(request)`` at the delivery
        time.
        """
        pending = self._pending
        if now < self.free_at or not pending:
            return None
        # find the first ready request; arbitrate only if a second is ready
        first, more = None, False
        for index, request in enumerate(pending):
            if request.ready_at <= now:
                if first is not None:
                    more = True
                    break
                first = index
        if first is None:
            return None
        if more:
            chosen = self._arbitrate(
                [r for r in pending if r.ready_at <= now])
            pending.remove(chosen)
        else:
            chosen = pending[first]
            del pending[first]
        size = chosen.payload_bytes
        try:
            transfer = self._transfer_ns[size]
        except KeyError:
            transfer = self._transfer_ns[size] = \
                self._config.bus_transfer_ns(size)
        start = now   # the bus is free and the request ready
        delivery = start + transfer
        self.free_at = delivery
        self.stats.messages += 1
        self.stats.bytes_moved += size
        self.stats.busy_ns += transfer
        self.stats.wait_ns += start - chosen.ready_at
        if self._m_wait is not None:
            self._m_wait.observe(start - chosen.ready_at)
        if self._config.bus_policy == "round_robin":
            self._rr_last_side = chosen.sender_side
        if self._fault_plan is not None:
            decision = self._fault_plan.decide(
                chosen.message_name, chosen.sequence, chosen.attempt)
            self.fault_stats.count_injected(decision)
            chosen.fault = decision
            # a delayed frame leaves the bus on time but lands late
            delivery += decision.delay_ns
        return delivery, chosen

    def _arbitrate(self, ready: list[BusRequest]) -> BusRequest:
        policy = self._config.bus_policy
        if policy == "priority":
            # lower message id = higher priority; FIFO within a priority
            return min(ready, key=lambda r: (r.message_id, r.sequence))
        if policy == "round_robin":
            other = "sw" if self._rr_last_side == "hw" else "hw"
            preferred = [r for r in ready if r.sender_side == other]
            pool = preferred or ready
            return min(pool, key=lambda r: r.sequence)
        return min(ready, key=lambda r: r.sequence)   # fifo
