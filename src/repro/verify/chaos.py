"""Chaos testing — the golden suites under injected bus faults (E8).

The paper's pitch is that the generated system is *correct by
construction*; experiment E8 asks how far that correctness survives a
hostile platform.  A :func:`chaos_sweep` compiles one catalog model
twice — once with reliability marks (CRC framing + bounded retransmit),
once without — and replays the model's own formal conformance suite on
the co-simulated SoC while the bus drops, corrupts, duplicates and
delays frames at a swept rate.

The claim under test: with protection marked, every case still passes
and the trace stays causally clean at fault rates that visibly maul the
unprotected build; without protection the platform degrades *gracefully*
(losses are counted, nothing ever raises).  Every fault in a sweep is a
pure function of one seed, so a failing point reproduces exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.cosim.engine import CoSimMachine
from repro.cosim.faults import FaultPlan, FaultStats
from repro.marks.model import MarkSet
from repro.marks.partition import marks_for_partition, signal_flows
from repro.mda.compiler import Build, ModelCompiler
from repro.models import build_model
from repro.runtime.causality import check_causality, check_receiver_fifo
from repro.xuml.component import Component
from repro.xuml.model import Model

from .runner import run_case
from .suites import suite_for

#: the default fault-rate sweep of experiment E8
DEFAULT_RATES: tuple[float, ...] = (0.0, 0.01, 0.02, 0.05)


def default_hardware_for(model: Model) -> tuple[str, ...]:
    """The receiver of the model's first cross-class signal flow.

    That puts at least one marked boundary under the sweep — chaos on a
    bus no message crosses would test nothing.
    """
    component = model.components[0]
    for flow in signal_flows(model, component):
        if flow.sender_class != flow.receiver_class:
            return (flow.receiver_class,)
    return (component.class_keys[0],)


def reliability_marks(component: Component,
                      hardware: tuple[str, ...]) -> MarkSet:
    """Partition marks plus full protection on every receiver class:
    CRC-16 framing, three retries from a 2 µs backoff, and critical."""
    marks = marks_for_partition(component, tuple(hardware))
    for key in component.class_keys:
        path = f"{component.name}.{key}"
        marks.set(path, "crc", "crc16")
        marks.set(path, "maxRetries", 3)
        marks.set(path, "retryBackoffNs", 2_000)
        marks.set(path, "isCritical", True)
    return marks


@dataclass
class ChaosCaseResult:
    """One formal test case replayed under one fault rate."""

    case: str
    passed: bool
    error: str | None
    causality_violations: int
    fifo_reorderings: int
    fault_stats: FaultStats
    makespan_ns: int
    bus_bytes: int

    @property
    def clean(self) -> bool:
        """Conformant: assertions held, nothing raised, causality green."""
        return self.passed and self.error is None \
            and self.causality_violations == 0


@dataclass
class ChaosPoint:
    """All suite cases at one fault rate."""

    rate: float
    cases: list[ChaosCaseResult] = field(default_factory=list)

    @property
    def conformant(self) -> bool:
        return all(case.clean for case in self.cases)

    @property
    def crashed(self) -> bool:
        return any(case.error is not None for case in self.cases)

    @property
    def fault_stats(self) -> FaultStats:
        total = FaultStats()
        for case in self.cases:
            total.add(case.fault_stats)
        return total

    @property
    def causality_violations(self) -> int:
        return sum(case.causality_violations for case in self.cases)

    @property
    def fifo_reorderings(self) -> int:
        return sum(case.fifo_reorderings for case in self.cases)

    @property
    def bus_bytes(self) -> int:
        return sum(case.bus_bytes for case in self.cases)

    @property
    def mean_makespan_ns(self) -> float:
        if not self.cases:
            return 0.0
        return sum(case.makespan_ns for case in self.cases) / len(self.cases)


@dataclass
class ChaosReport:
    """One full sweep of one build (protected or not) over fault rates."""

    model: str
    protected: bool
    seed: int
    hardware: tuple[str, ...]
    points: list[ChaosPoint] = field(default_factory=list)

    @property
    def conformant(self) -> bool:
        return all(point.conformant for point in self.points)

    @property
    def crashed(self) -> bool:
        return any(point.crashed for point in self.points)

    def render(self) -> str:
        flavor = "protected" if self.protected else "unprotected"
        lines = [
            f"chaos sweep: {self.model} ({flavor}, "
            f"hw={'/'.join(self.hardware)}, seed={self.seed})",
            f"{'rate':>6s} {'cases':>7s} {'caus':>5s} {'inj':>5s} "
            f"{'det':>5s} {'rexm':>5s} {'recov':>5s} {'lost':>5s} "
            f"{'corr':>5s} {'bus B':>8s} {'mean mk':>10s}",
        ]
        for point in self.points:
            stats = point.fault_stats
            ok = sum(1 for c in point.cases if c.clean)
            lines.append(
                f"{point.rate:6.3f} {ok:3d}/{len(point.cases):<3d} "
                f"{point.causality_violations:5d} {stats.injected:5d} "
                f"{stats.detected:5d} {stats.retransmissions:5d} "
                f"{stats.recovered:5d} {stats.lost:5d} "
                f"{stats.delivered_corrupted:5d} {point.bus_bytes:8d} "
                f"{point.mean_makespan_ns / 1e6:8.2f}ms"
            )
        verdict = "CONFORMANT" if self.conformant else "DEGRADED"
        if self.crashed:
            verdict += " (CRASHED)"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def case_seed(seed: int, rate: float, case_name: str) -> int:
    """The per-case fault seed — a pure function of the sweep seed."""
    return zlib.crc32(f"{seed}:{rate}:{case_name}".encode())


def chaos_build(model_name: str, hardware: tuple[str, ...] | None = None,
                protected: bool = True) -> Build:
    """Compile one catalog model with or without reliability marks."""
    model = build_model(model_name)
    component = model.components[0]
    hardware = tuple(hardware) if hardware else default_hardware_for(model)
    if protected:
        marks = reliability_marks(component, hardware)
    else:
        marks = marks_for_partition(component, hardware)
    return ModelCompiler(model).compile(marks)


def chaos_sweep(model_name: str, hardware: tuple[str, ...] | None = None,
                rates: tuple[float, ...] = DEFAULT_RATES, seed: int = 7,
                protected: bool = True) -> ChaosReport:
    """Replay the model's formal suite at each fault rate."""
    model = build_model(model_name)
    hardware = tuple(hardware) if hardware else default_hardware_for(model)
    build = chaos_build(model_name, hardware, protected=protected)
    suite = suite_for(model_name)
    report = ChaosReport(model=model_name, protected=protected,
                         seed=seed, hardware=hardware)
    for rate in rates:
        point = ChaosPoint(rate=rate)
        for case in suite:
            plan = None
            if rate > 0:
                plan = FaultPlan.uniform(
                    case_seed(seed, rate, case.name), rate)
            machine = CoSimMachine(build, fault_plan=plan)
            result = run_case(case, machine)
            records = machine.trace.records()
            makespan = records[-1][0] if records else 0
            point.cases.append(ChaosCaseResult(
                case=case.name,
                passed=result.passed,
                error=result.error,
                causality_violations=len(check_causality(machine.trace)),
                fifo_reorderings=len(check_receiver_fifo(machine.trace)),
                fault_stats=machine.fault_stats,
                makespan_ns=makespan,
                bus_bytes=machine.bus.stats.bytes_moved,
            ))
        report.points.append(point)
    return report
