"""Conformance checking — one test suite, every platform.

Experiment E3's engine: run each formal test case on the abstract model,
the generated-C architecture and the generated-VHDL architecture (fresh
platform instances per case), then compare (a) assertion outcomes and
(b) per-instance behavioural summaries.  A model compiler that preserved
the defined behaviour yields an all-PASS, all-equal matrix — "the model
compiler ... may do [the sequencing] any manner it chooses so long as
the defined behavior is preserved" (paper section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.marks.partition import marks_for_partition
from repro.mda.compiler import ModelCompiler
from repro.mda.csim import CSoftwareMachine
from repro.mda.vsim import VHardwareMachine
from repro.runtime.simulator import Simulation
from repro.xuml.model import Model

from .runner import run_case
from .testcase import TestCase, TestResult


def standard_targets(model: Model, store=None) -> list:
    """The three executors every model is verified on (E3).

    The C executor runs the model compiled all-software, the VHDL one
    all-hardware -- each architecture then executes *every* class, which
    is the strongest conformance statement a single executor can make.

    With *store* (an :class:`repro.build.ArtifactStore`) the builds come
    from the incremental compiler, so suites that rebuild executors per
    case reuse cached artifacts instead of recompiling from scratch.
    """
    component = model.components[0]
    sw_marks = marks_for_partition(component, ())
    hw_marks = marks_for_partition(component, tuple(component.class_keys))
    if store is None:
        compiler = ModelCompiler(model)
    else:
        from repro.build import IncrementalCompiler

        compiler = IncrementalCompiler(model, store=store)
    sw_build = compiler.compile(sw_marks)
    hw_build = compiler.compile(hw_marks)
    return [
        Simulation(model),
        CSoftwareMachine(sw_build.manifest),
        VHardwareMachine(hw_build.manifest),
    ]


@dataclass
class CaseConformance:
    """One test case's outcome across every platform."""

    case_name: str
    results: list[TestResult] = field(default_factory=list)
    summaries_equal: bool = True

    @property
    def all_passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def conformant(self) -> bool:
        return self.all_passed and self.summaries_equal


@dataclass
class ConformanceReport:
    """The full matrix for one model."""

    model_name: str
    cases: list[CaseConformance] = field(default_factory=list)
    target_names: tuple[str, ...] = ()

    @property
    def conformant(self) -> bool:
        return all(case.conformant for case in self.cases)

    def pass_rate(self) -> float:
        total = sum(len(case.results) for case in self.cases)
        if total == 0:
            return 1.0
        passed = sum(
            1 for case in self.cases for result in case.results
            if result.passed)
        return passed / total

    def render(self) -> str:
        """A paper-style conformance table."""
        lines = [f"conformance of model {self.model_name}:"]
        header = f"{'case':32s} " + " ".join(
            f"{name:>16s}" for name in self.target_names) + "  traces"
        lines.append(header)
        for case in self.cases:
            cells = " ".join(
                f"{'PASS' if result.passed else 'FAIL':>16s}"
                for result in case.results)
            traces = "equal" if case.summaries_equal else "DIVERGE"
            lines.append(f"{case.case_name:32s} {cells}  {traces}")
        verdict = "CONFORMANT" if self.conformant else "NOT CONFORMANT"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def check_conformance(
    model: Model, cases: list[TestCase], include_traces: bool = True,
    store=None,
) -> ConformanceReport:
    """Run *cases* on all standard targets of *model*.

    *store* (an :class:`repro.build.ArtifactStore`) makes the per-case
    target rebuilds hit the artifact cache: the first case pays for the
    compilation, the rest reuse it.
    """
    report = ConformanceReport(model.name)
    names: tuple[str, ...] = ()
    for case in cases:
        # fresh platforms per case (cached artifacts when store given)
        targets = standard_targets(model, store=store)
        names = tuple(target.name for target in targets)
        conformance = CaseConformance(case.name)
        summaries = []
        for target in targets:
            conformance.results.append(run_case(case, target))
            if include_traces:
                summaries.append(target.trace.behavioural_summary())
        if include_traces and summaries:
            first = summaries[0]
            conformance.summaries_equal = all(s == first for s in summaries)
        report.cases.append(conformance)
    report.target_names = names
    return report
