"""Mapping rules — what a mark *selects*.

Paper section 3: "Mapping rules are applied to model elements that have
been marked to indicate which rule to apply — hardware or software."

A :class:`MappingRule` pairs a match predicate over (element, marks) with
a target language; a :class:`RuleSet` resolves each class to exactly one
rule, most-specific first.  The stock rule set is the paper's example:
``isHardware`` selects the VHDL mapping, everything else gets the C
mapping.  New targets (say, SystemC) are added by prepending a rule — no
model change.  Rules read marks but declare none: the vocabulary lives in
one place, :data:`repro.marks.model.STANDARD_MARKS`, and a mark is added
there only together with the mapping that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.marks.model import MarkSet


class RuleError(Exception):
    """No rule matched, or a rule set is ill-formed."""


@dataclass(frozen=True)
class MappingRule:
    """One mapping rule.

    ``matches`` receives ``(element_path, marks)`` and answers whether
    this rule applies; ``target`` names the emitter that realizes it.
    """

    name: str
    target: str                     # "c" | "vhdl" | future targets
    matches: Callable[[str, MarkSet], bool]
    description: str = ""

    def __str__(self) -> str:
        return f"{self.name} -> {self.target}"


def _is_hardware(path: str, marks: MarkSet) -> bool:
    return bool(marks.get(path, "isHardware"))


def _always(path: str, marks: MarkSet) -> bool:
    return True


HARDWARE_RULE = MappingRule(
    "hardware-class", "vhdl", _is_hardware,
    "classes marked isHardware map to a VHDL entity + FSM process",
)

SOFTWARE_RULE = MappingRule(
    "software-class", "c", _always,
    "unmarked classes map to C under the single-task architecture",
)


@dataclass
class RuleSet:
    """An ordered list of rules; the first match wins."""

    rules: list[MappingRule] = field(default_factory=list)

    @classmethod
    def standard(cls) -> "RuleSet":
        """The stock SoC rule set of the paper's example."""
        return cls([HARDWARE_RULE, SOFTWARE_RULE])

    def prepend(self, rule: MappingRule) -> "RuleSet":
        """A new rule set with *rule* taking precedence."""
        return RuleSet([rule] + list(self.rules))

    def resolve(self, element_path: str, marks: MarkSet) -> MappingRule:
        for rule in self.rules:
            if rule.matches(element_path, marks):
                return rule
        raise RuleError(f"no mapping rule matches {element_path!r}")

    def targets(self) -> tuple[str, ...]:
        seen: list[str] = []
        for rule in self.rules:
            if rule.target not in seen:
                seen.append(rule.target)
        return tuple(seen)
