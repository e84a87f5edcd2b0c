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


def standard_targets(model: Model) -> list:
    """The three executors every model is verified on (E3).

    The C executor runs the model compiled all-software, the VHDL one
    all-hardware -- each architecture then executes *every* class, which
    is the strongest conformance statement a single executor can make.
    Each call compiles both builds; :func:`check_conformance` compiles
    them once per model and builds fresh executors for every case.
    """
    return _target_factory(model)()


def _target_factory(model: Model):
    """Compile *model*'s two standard builds and return a function that
    makes fresh executors over them.

    The executors read only the builds' manifests, which do not depend
    on anything a run changes, so every case can share them.
    """
    component = model.components[0]
    compiler = ModelCompiler(model)
    sw_manifest = compiler.compile(marks_for_partition(component, ())).manifest
    hw_manifest = compiler.compile(
        marks_for_partition(component, tuple(component.class_keys))).manifest
    return lambda: [
        Simulation(model),
        CSoftwareMachine(sw_manifest),
        VHardwareMachine(hw_manifest),
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
    model: Model, cases: list[TestCase]
) -> ConformanceReport:
    """Run *cases* on all standard targets of *model*."""
    report = ConformanceReport(model.name)
    names: tuple[str, ...] = ()
    fresh_targets = _target_factory(model)
    for case in cases:
        targets = fresh_targets()  # fresh platforms per case
        names = tuple(target.name for target in targets)
        conformance = CaseConformance(case.name)
        for target in targets:
            conformance.results.append(run_case(case, target))
        summaries = [target.trace.behavioural_summary() for target in targets]
        conformance.summaries_equal = all(s == summaries[0] for s in summaries)
        report.cases.append(conformance)
    report.target_names = names
    return report
