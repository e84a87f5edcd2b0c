"""The shared findings model — one currency for every checker.

Before this module existed the toolchain had three finding shapes:
:class:`~repro.xuml.wellformed.Violation` (model well-formedness),
:class:`LintFinding` (checks on generated text: the compiler's errors
for C, structural checks for VHDL) and
:class:`~repro.marks.validate.MarkViolation` (marking files).
Three shapes meant three sort orders, three ``__str__`` conventions and
no uniform JSON export — which the whole-model analyzer cannot live
with, because its report mixes findings from every layer.

:class:`Finding` is the one dataclass they all are now.  The legacy
classes still exist (and are re-exported from their old homes) so that
existing call sites and tests keep working, but each is a thin subclass
that only preserves its historical constructor signature and rendering.

This module deliberately imports nothing from the rest of the package:
it sits below :mod:`repro.xuml`, :mod:`repro.marks` and :mod:`repro.mda`
in the layering, exactly so all three can depend on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are defects: the analyzers promise that every one
    is either witnessed by a concrete schedule or proved from the state
    tables.  ``WARNING`` findings are suspect but not proved.  ``INFO``
    findings are observations worth knowing (e.g. a potential lost
    signal the explorer could not realize within bounds).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Numeric badness, highest first (for sorting and thresholds)."""
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Finding:
    """One finding from any checker in the toolchain.

    ``element`` is the path of the model element (or artifact) the
    finding is about; ``rule`` identifies the detector that produced it
    (empty for the legacy checkers, which predate rule names).
    ``witness`` optionally carries a replayable interleaving witness
    (see :mod:`repro.analysis.witness`); it never participates in
    equality so a finding keeps its identity when a witness is attached.
    """

    severity: Severity
    element: str
    message: str
    rule: str = ""
    line: int | None = None
    witness: object | None = field(default=None, compare=False, hash=False)

    def __str__(self) -> str:
        return f"[{self.severity.value}] {self.element}: {self.message}"

    @property
    def sort_key(self) -> tuple:
        """Stable total order: element first, then rule, message, line."""
        return (self.element, self.rule, self.message, self.line or 0)

    @property
    def baseline_key(self) -> str:
        """The identity used by baseline files to suppress a finding.

        Severity is excluded on purpose: a witness search may upgrade or
        downgrade a finding between runs without changing what it *is*.
        """
        return f"{self.rule}|{self.element}|{self.message}"

    def to_json(self) -> dict:
        """A JSON-ready dict; stable keys, omitting absent extras."""
        payload: dict = {
            "severity": self.severity.value,
            "element": self.element,
            "message": self.message,
            "rule": self.rule,
        }
        if self.line is not None:
            payload["line"] = self.line
        if self.witness is not None and hasattr(self.witness, "to_json"):
            payload["witness"] = self.witness.to_json()
        return payload


def sorted_findings(findings) -> list:
    """Deterministic report order: worst first, then the stable key."""
    return sorted(findings, key=lambda f: (-f.severity.rank, f.sort_key))


@dataclass(frozen=True)
class Violation(Finding):
    """One well-formedness finding (legacy name of :class:`Finding`).

    Kept for compatibility with :mod:`repro.xuml.wellformed` call sites:
    the historical positional signature ``Violation(severity, element,
    message)`` and rendering are unchanged.
    """


class LintFinding(Finding):
    """One problem in a generated artifact (path, line, message).

    The artifact checks predate severities — every finding (a compiler
    error in C, a structural fault in VHDL) blocks the build, so they
    are all :attr:`Severity.ERROR`.
    """

    def __init__(self, path: str, line: int, message: str):
        Finding.__init__(
            self, Severity.ERROR, path, message, rule="structural", line=line
        )

    @property
    def path(self) -> str:
        return self.element

    def __str__(self) -> str:
        return f"{self.element}:{self.line}: {self.message}"


class MarkViolation(Finding):
    """One problem found in a marking set (element path, mark, message)."""

    def __init__(self, element_path: str, mark_name: str, message: str):
        Finding.__init__(
            self, Severity.ERROR, element_path, message, rule=f"marks.{mark_name}"
        )
        object.__setattr__(self, "mark_name", mark_name)

    @property
    def element_path(self) -> str:
        return self.element

    def __str__(self) -> str:
        return f"{self.element} {self.mark_name}: {self.message}"
