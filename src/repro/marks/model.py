"""Marks — "sticky notes" on model elements.

Paper section 3: "Marks describe models but they are not a part of them
... a lightweight, non-intrusive extension to models that captures
information required for mappings without polluting those models."

Concretely, a :class:`Mark` is a ``(element_path, name, value)`` triple
kept in a :class:`MarkSet` that lives entirely outside the
:class:`~repro.xuml.model.Model`; element paths are the
``"Component.KeyLetters"`` strings of :mod:`repro.xuml.model`.  The mark
*vocabulary* is declared by :class:`MarkDefinition` so that mark files
can be validated.  This module holds the one vocabulary of this model
compiler, :data:`STANDARD_MARKS`, headed by the paper's own example,
``isHardware``.  A mark exists only if a mapping reads it, and marks
attach to classes only.
"""

from __future__ import annotations

from dataclasses import dataclass


class MarkError(Exception):
    """Invalid mark or marking file."""


@dataclass(frozen=True)
class MarkDefinition:
    """Declares one mark name: its value type and default."""

    name: str
    value_type: type            # bool, int, or str
    default: object
    description: str = ""

    def coerce(self, raw: str):
        """Parse a textual value from a marking file."""
        if self.value_type is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise MarkError(f"mark {self.name}: {raw!r} is not a boolean")
        if self.value_type is int:
            try:
                return int(raw.strip())
            except ValueError:
                raise MarkError(f"mark {self.name}: {raw!r} is not an integer") from None
        return raw.strip()


#: Reliability marks — platform-level protection of boundary messages,
#: selected outside the model exactly like the partition itself.  They
#: apply to the *receiver* class: every bus message delivered to a class
#: marked ``crc`` is framed with a CRC trailer and sequence number by
#: both generated interface halves, and retransmitted on loss up to
#: ``maxRetries`` times with exponential ``retryBackoffNs`` backoff.
RELIABILITY_MARKS: tuple[MarkDefinition, ...] = (
    MarkDefinition("crc", str, "none",
                   "frame this class's boundary messages with a CRC "
                   "trailer (none | crc8 | crc16)"),
    MarkDefinition("maxRetries", int, 0,
                   "retransmission budget for protected boundary messages"),
    MarkDefinition("retryBackoffNs", int, 2000,
                   "base ack-timeout of the retransmit protocol, in "
                   "bus-time nanoseconds (doubles per attempt)"),
    MarkDefinition("isCritical", bool, False,
                   "count any lost message to this class as a platform "
                   "failure in the fault report"),
)

#: The model compiler's mark vocabulary.  Each mark has a reader in a
#: mapping: ``isHardware`` selects the VHDL rule, ``clock_mhz`` sets the
#: generated entity's clock, ``processor = systemc`` selects the SystemC
#: rule, and the reliability marks choose a boundary message's framing.
STANDARD_MARKS: tuple[MarkDefinition, ...] = (
    MarkDefinition("isHardware", bool, False,
                   "map this class onto the hardware partition (VHDL)"),
    MarkDefinition("clock_mhz", int, 100,
                   "clock frequency of the hardware block"),
    MarkDefinition("processor", str, "cpu0",
                   "which processor runs this software class "
                   "(systemc selects the SystemC mapping)"),
) + RELIABILITY_MARKS

_DEFINITIONS: dict[str, MarkDefinition] = {d.name: d for d in STANDARD_MARKS}

#: CRC kinds the reliability framing understands.
CRC_KINDS: tuple[str, ...] = ("none", "crc8", "crc16")


@dataclass(frozen=True)
class Mark:
    """One sticky note: *name* = *value* attached to *element_path*."""

    element_path: str
    name: str
    value: object

    def __str__(self) -> str:
        return f"{self.element_path} {self.name} = {self.value}"


class MarkSet:
    """A collection of marks, at most one value per (element, mark name)."""

    def __init__(self):
        self._marks: dict[tuple[str, str], Mark] = {}

    # -- vocabulary ----------------------------------------------------------

    @staticmethod
    def definition(name: str) -> MarkDefinition:
        try:
            return _DEFINITIONS[name]
        except KeyError:
            raise MarkError(f"unknown mark name {name!r}") from None

    # -- content -------------------------------------------------------------

    def set(self, element_path: str, name: str, value) -> Mark:
        definition = self.definition(name)
        if not isinstance(value, definition.value_type):
            raise MarkError(
                f"mark {name} on {element_path}: expected "
                f"{definition.value_type.__name__}, got {type(value).__name__}"
            )
        mark = Mark(element_path, name, value)
        self._marks[(element_path, name)] = mark
        return mark

    def clear(self, element_path: str, name: str) -> bool:
        return self._marks.pop((element_path, name), None) is not None

    def get(self, element_path: str, name: str):
        """Value of the mark, falling back to the vocabulary default."""
        mark = self._marks.get((element_path, name))
        if mark is not None:
            return mark.value
        return self.definition(name).default

    @property
    def marks(self) -> tuple[Mark, ...]:
        return tuple(mark for _, mark in sorted(self._marks.items()))

    def __len__(self) -> int:
        return len(self._marks)

    def copy(self) -> "MarkSet":
        duplicate = MarkSet()
        duplicate._marks = dict(self._marks)
        return duplicate

    # -- marking files ----------------------------------------------------------

    def dumps(self) -> str:
        """Serialize to the marking-file format (one sticky note per line)."""
        lines = ["# marking file — sticky notes, not part of the model"]
        lines.extend(str(mark) for mark in self.marks)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "MarkSet":
        """Parse a marking file: ``Component.KL markName = value`` lines.

        Every error names its line: ``line N: ...``.
        """
        marks = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            head, equals, raw_value = stripped.partition("=")
            parts = head.split()
            try:
                if not equals or len(parts) != 2:
                    raise MarkError("expected 'path name = value'")
                element_path, name = parts
                value = marks.definition(name).coerce(raw_value.strip())
                marks.set(element_path, name, value)
            except MarkError as exc:
                raise MarkError(f"line {lineno}: {exc}") from None
        return marks
