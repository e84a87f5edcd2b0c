"""Deterministic fault injection for the co-simulated bus.

The platform model of :mod:`repro.cosim` is deliberately perfect: the
bus never loses a beat.  Real on-chip interconnects drop, corrupt,
duplicate and delay traffic, and the paper's "measure, then move the
marks" workflow is only credible if the prototype can be stressed the
same way silicon will be.  A :class:`FaultPlan` perturbs bus transfers
at one set of rates; every decision is derived from a single
seed plus the transfer's identity ``(message, sequence, attempt)``, so a
chaos run is reproducible bit-for-bit — rerunning the same seed replays
exactly the same faults, which is what makes a failing sweep debuggable.

Acknowledgements of protected frames travel on a dedicated sideband
(they are not themselves subject to injection); the data path is where
the faults live.  :class:`FaultStats` aggregates what happened:
``injected`` counts per fault kind on the wire, ``detected`` counts
frames rejected by CRC/decode checks, ``recovered`` counts frames that
arrived via retransmission, and ``lost`` counts messages that never
reached the model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class FaultError(Exception):
    """Invalid fault-injection configuration."""


@dataclass(frozen=True)
class FaultRates:
    """Per-transfer fault probabilities."""

    #: probability the frame is lost on the wire
    drop: float = 0.0
    #: probability payload bytes are flipped in flight
    corrupt: float = 0.0
    #: probability the frame is delivered twice
    duplicate: float = 0.0
    #: probability delivery is late by ``delay_ns``
    delay: float = 0.0
    #: extra in-flight latency of a delayed frame
    delay_ns: int = 2_000
    #: how many byte positions a corruption flips
    corrupt_bytes: int = 1

    def validated(self) -> "FaultRates":
        for name in ("drop", "corrupt", "duplicate", "delay"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultError(f"{name} rate {rate} is outside [0, 1]")
        if self.delay_ns < 0:
            raise FaultError("delay_ns must be non-negative")
        if self.corrupt_bytes < 1:
            raise FaultError("corrupt_bytes must be at least 1")
        return self

    @property
    def any_nonzero(self) -> bool:
        return (self.drop or self.corrupt or self.duplicate
                or self.delay) > 0.0


@dataclass(frozen=True)
class FaultDecision:
    """What the plan decided for one transfer (all kinds may combine)."""

    drop: bool = False
    corrupt: bool = False
    duplicate: bool = False
    delay_ns: int = 0

    @property
    def faulted(self) -> bool:
        return self.drop or self.corrupt or self.duplicate \
            or self.delay_ns > 0


#: the decision a fault-free transfer gets
NO_FAULT = FaultDecision()


@dataclass
class FaultStats:
    """Aggregate accounting of one chaos run."""

    injected_drops: int = 0
    injected_corruptions: int = 0
    injected_duplicates: int = 0
    injected_delays: int = 0
    #: frames rejected at the receiver (CRC mismatch or undecodable)
    detected: int = 0
    #: messages that arrived via a retransmission
    recovered: int = 0
    #: messages that never reached the model
    lost: int = 0
    #: lost messages whose class was marked ``isCritical``
    critical_lost: int = 0
    #: protected frames discarded by receiver-side dedup
    duplicates_discarded: int = 0
    #: corrupted frames that slipped through and were delivered
    delivered_corrupted: int = 0
    #: extra send attempts beyond the first
    retransmissions: int = 0

    @property
    def injected(self) -> int:
        return (self.injected_drops + self.injected_corruptions
                + self.injected_duplicates + self.injected_delays)

    def count_injected(self, decision: FaultDecision) -> None:
        if decision.drop:
            self.injected_drops += 1
        if decision.corrupt:
            self.injected_corruptions += 1
        if decision.duplicate:
            self.injected_duplicates += 1
        if decision.delay_ns > 0:
            self.injected_delays += 1

    def add(self, other: "FaultStats") -> None:
        """Accumulate *other* into this instance (for sweep aggregation)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}


@dataclass
class FaultPlan:
    """Seeded fault schedule over bus transfers.

    Decisions are pure functions of ``(seed, message, sequence,
    attempt)`` — no hidden RNG state — so retransmissions of the same
    frame draw *fresh* faults (attempt differs) while a rerun of the
    whole simulation replays identically.
    """

    seed: int = 0
    default: FaultRates = field(default_factory=FaultRates)

    def __post_init__(self) -> None:
        self.default = self.default.validated()

    @classmethod
    def uniform(cls, seed: int, rate: float) -> "FaultPlan":
        """Drop/corrupt at *rate*, duplicate/delay at half of it."""
        return cls(seed, FaultRates(
            drop=rate, corrupt=rate, duplicate=rate / 2, delay=rate / 2))

    def _rng(self, message_name: str, sequence: int, attempt: int,
             salt: str = "") -> random.Random:
        # seeding from a string is deterministic across processes,
        # unlike hash() of a string
        return random.Random(
            f"{self.seed}:{salt}:{message_name}:{sequence}:{attempt}")

    def decide(self, message_name: str, sequence: int,
               attempt: int = 1) -> FaultDecision:
        """The (reproducible) fate of one transfer."""
        rates = self.default
        if not rates.any_nonzero:
            return NO_FAULT
        rng = self._rng(message_name, sequence, attempt)
        return FaultDecision(
            drop=rng.random() < rates.drop,
            corrupt=rng.random() < rates.corrupt,
            duplicate=rng.random() < rates.duplicate,
            delay_ns=rates.delay_ns if rng.random() < rates.delay else 0,
        )

    def corrupt_payload(self, payload: bytes, message_name: str,
                        sequence: int, attempt: int = 1) -> bytes:
        """Flip byte(s) of *payload*, reproducibly, never a no-op."""
        if not payload:
            return payload
        rng = self._rng(message_name, sequence, attempt, salt="bytes")
        corrupted = bytearray(payload)
        for _ in range(min(self.default.corrupt_bytes, len(corrupted))):
            position = rng.randrange(len(corrupted))
            corrupted[position] ^= rng.randint(1, 255)
        return bytes(corrupted)
