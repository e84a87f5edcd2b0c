"""Validation of mark sets against a model.

Marks live outside the model, so nothing stops a marking file referring
to elements that do not exist or that have been renamed.  The validator
is what keeps sticky notes honest: every finding is a
:class:`MarkViolation`, and ``strict=True`` raises on errors.
"""

from __future__ import annotations

from repro.analysis.findings import MarkViolation
from repro.xuml.model import Model

from .model import CRC_KINDS, MarkError, MarkSet


def validate_marks(
    marks: MarkSet, model: Model, strict: bool = False
) -> list[MarkViolation]:
    """Check every mark refers to a real element with a sensible value."""
    violations: list[MarkViolation] = []
    known_paths = set(model.class_paths())
    known_components = {component.name for component in model.components}

    for mark in marks.marks:
        if mark.element_path in known_components:
            # marks attach to classes; no mapping reads a component path
            violations.append(MarkViolation(
                mark.element_path, mark.name,
                f"{mark.name} targets a class, not a component — "
                f"attach it to one of the component's classes",
            ))
            continue
        if mark.element_path not in known_paths:
            violations.append(MarkViolation(
                mark.element_path, mark.name,
                "element does not exist in the model",
            ))
            continue

        if mark.name == "clock_mhz" and isinstance(mark.value, int):
            if not 1 <= mark.value <= 10_000:
                violations.append(MarkViolation(
                    mark.element_path, mark.name,
                    f"clock of {mark.value} MHz is outside 1..10000",
                ))
        if mark.name == "clock_mhz" and not marks.get(mark.element_path, "isHardware"):
            violations.append(MarkViolation(
                mark.element_path, mark.name,
                "clock_mhz only applies to isHardware elements",
            ))

        # reliability marks: keep the protection vocabulary honest
        if mark.name == "crc" and mark.value not in CRC_KINDS:
            violations.append(MarkViolation(
                mark.element_path, mark.name,
                f"{mark.value!r} is not one of {'/'.join(CRC_KINDS)}",
            ))
        if mark.name == "maxRetries" and isinstance(mark.value, int):
            if not 0 <= mark.value <= 16:
                violations.append(MarkViolation(
                    mark.element_path, mark.name,
                    f"retry budget of {mark.value} is outside 0..16",
                ))
            elif mark.value > 0 and \
                    marks.get(mark.element_path, "crc") == "none":
                violations.append(MarkViolation(
                    mark.element_path, mark.name,
                    "retransmission requires a crc mark (retries are "
                    "triggered by CRC rejection)",
                ))
        if mark.name == "retryBackoffNs" and isinstance(mark.value, int):
            if mark.value < 1:
                violations.append(MarkViolation(
                    mark.element_path, mark.name,
                    "retry backoff must be at least 1 ns",
                ))
        if mark.name == "isCritical" and mark.value and \
                marks.get(mark.element_path, "crc") == "none":
            violations.append(MarkViolation(
                mark.element_path, mark.name,
                "a critical class needs a crc mark so losses are "
                "detectable",
            ))

    if strict and violations:
        details = "; ".join(str(v) for v in violations)
        raise MarkError(f"marking set is invalid: {details}")
    return violations
