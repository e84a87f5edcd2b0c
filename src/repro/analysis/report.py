"""Lint reports, severity gating, and the baseline file.

One report aggregates every layer that speaks the shared findings
model: well-formedness (:mod:`repro.xuml.wellformed`), mark validation
(:mod:`repro.marks.validate`) and the whole-model signal-flow detectors
(:mod:`repro.analysis.detectors`).  A baseline file records findings a
team has reviewed and accepted, by stable key — identical in spirit to
a lint suppression file, so ``repro lint --fail-on warning`` stays
adoptable on a model with known, deliberate drops (debounce ignores and
the like).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.marks.model import MarkSet
from repro.xuml.model import Model

from .detectors import analyze_model
from .findings import Finding, Severity, sorted_findings

BASELINE_VERSION = 1


@dataclass
class LintReport:
    """Everything one ``repro lint`` invocation learned."""

    model_name: str
    component_name: str
    findings: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)
    runs_executed: int = 0
    elapsed_s: float = 0.0

    def counts(self) -> dict[str, int]:
        out = {severity.value: 0 for severity in Severity}
        for finding in self.findings:
            out[finding.severity.value] += 1
        return out

    def worst(self) -> Severity | None:
        return max((f.severity for f in self.findings),
                   key=lambda s: s.rank, default=None)

    def exit_code(self, fail_on: str = "error") -> int:
        """0 unless an unsuppressed finding meets the *fail_on* bar."""
        threshold = Severity(fail_on).rank
        worst = self.worst()
        return 1 if worst is not None and worst.rank >= threshold else 0

    @property
    def witnessed(self) -> list:
        return [f for f in self.findings if f.witness is not None]

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"lint {self.model_name}.{self.component_name}: "
            f"{len(self.findings)} findings "
            f"({counts['error']} errors, {counts['warning']} warnings, "
            f"{counts['info']} info)"
            + (f", {len(self.suppressed)} suppressed by baseline"
               if self.suppressed else "")
            + f" [{self.runs_executed} exploration runs, "
              f"{self.elapsed_s:.2f}s]"
        ]
        for finding in self.findings:
            lines.append(f"  {finding}")
            witness = finding.witness
            if witness is not None:
                scenario = witness.scenario.name
                seed = "synchronous" if witness.seed is None else f"seed {witness.seed}"
                lines.append(
                    f"      witness: {witness.kind} in scenario "
                    f"{scenario!r} ({seed}, {len(witness.schedule)}-step "
                    f"schedule)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "component": self.component_name,
            "counts": self.counts(),
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [f.baseline_key for f in self.suppressed],
            "runs_executed": self.runs_executed,
            "elapsed_s": round(self.elapsed_s, 4),
        }


def lint_model(
    model: Model,
    component: str | None = None,
    marks: MarkSet | None = None,
    baseline: frozenset[str] | None = None,
    explore: bool = True,
    schedules: int = 24,
    seed: int = 0,
    max_steps: int = 1_000,
) -> LintReport:
    """Run every checker that speaks the shared findings model."""
    from repro.marks.validate import validate_marks
    from repro.xuml.wellformed import check_model

    from .witness import WitnessSearch, scenarios_for_model

    started = time.perf_counter()
    resolved = (model.components[0] if component is None
                else model.component(component))
    findings: list[Finding] = []

    for violation in check_model(model):
        findings.append(Finding(
            violation.severity, violation.element, violation.message,
            rule="wellformed"))
    if marks is not None:
        findings.extend(validate_marks(marks, model))

    scenarios = scenarios_for_model(model.name)
    search = None
    if explore and scenarios:
        search = WitnessSearch(
            model, scenarios, component=resolved.name,
            schedules=schedules, max_steps=max_steps, seed=seed)

    findings.extend(analyze_model(
        model, component=resolved, marks=marks, scenarios=scenarios,
        explore=explore, schedules=schedules, seed=seed, max_steps=max_steps,
        search=search))

    runs = search.runs_executed if search is not None else 0
    keep, suppressed = _apply_baseline(findings, baseline or frozenset())
    return LintReport(
        model_name=model.name,
        component_name=resolved.name,
        findings=sorted_findings(keep),
        suppressed=sorted_findings(suppressed),
        runs_executed=runs,
        elapsed_s=time.perf_counter() - started,
    )


def _apply_baseline(findings, baseline: frozenset[str]):
    keep, suppressed = [], []
    for finding in findings:
        (suppressed if finding.baseline_key in baseline else keep).append(finding)
    return keep, suppressed


# --------------------------------------------------------------------------
# baseline files
# --------------------------------------------------------------------------


def load_baseline(path: str) -> frozenset[str]:
    """Read a baseline file; returns the suppression key set."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path!r} has version {payload.get('version')!r}, "
            f"expected {BASELINE_VERSION}")
    keys = payload.get("suppress", [])
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise ValueError(f"baseline {path!r}: 'suppress' must be a string list")
    return frozenset(keys)


def write_baseline(path: str, reports) -> int:
    """Write the baseline suppressing every finding in *reports*.

    Returns the number of keys written.  Keys sort so the file diffs
    cleanly under review.
    """
    keys = sorted({
        finding.baseline_key
        for report in reports
        for finding in list(report.findings) + list(report.suppressed)
    })
    payload = {"version": BASELINE_VERSION, "suppress": keys}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(keys)
