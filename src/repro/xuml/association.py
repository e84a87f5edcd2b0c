"""Associations between classes.

Executable UML associations carry a number (``R1``), two ends with
multiplicity/conditionality and verb phrases, and optionally an associative
(link) class.  The runtime enforces the declared multiplicity when
``relate``/``unrelate`` actions execute, and the well-formedness checker
verifies that referential attributes formalize real associations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .tracked import Tracked


class Multiplicity(enum.Enum):
    """Multiplicity-with-conditionality of one association end."""

    ONE = "1"
    ZERO_ONE = "0..1"
    MANY = "1..*"
    ZERO_MANY = "*"

    @property
    def is_many(self) -> bool:
        return self in (Multiplicity.MANY, Multiplicity.ZERO_MANY)

    @property
    def is_conditional(self) -> bool:
        return self in (Multiplicity.ZERO_ONE, Multiplicity.ZERO_MANY)

    @property
    def lower(self) -> int:
        return 0 if self.is_conditional else 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class AssociationEnd:
    """One end of an association.

    ``class_key`` names the participating class; ``phrase`` is the verb
    phrase read *towards* this end ("is heated by"); ``mult`` is the
    number of instances of this end's class each instance of the *other*
    end sees.
    """

    class_key: str
    phrase: str
    mult: Multiplicity


@dataclass
class Association(Tracked):
    """A numbered association between two classes.

    ``number`` is the xtUML relationship number ("R1"); it is the handle
    the action language uses (``related by self->Oven[R1]``).
    """

    number: str
    one: AssociationEnd
    other: AssociationEnd
    link_class_key: str | None = None

    def __post_init__(self) -> None:
        if not self.number.startswith("R") or not self.number[1:].isdigit():
            raise ValueError(
                f"association number {self.number!r} must look like 'R<n>'"
            )

    @property
    def is_reflexive(self) -> bool:
        return self.one.class_key == self.other.class_key

    def end_for(self, class_key: str, phrase: str | None = None) -> AssociationEnd:
        """The end whose class is *class_key* (disambiguated by phrase).

        For reflexive associations a *phrase* is required, matching xtUML's
        navigation syntax ``self->Person[R1.'manages']``.
        """
        candidates = [e for e in (self.one, self.other) if e.class_key == class_key]
        if not candidates:
            raise KeyError(
                f"class {class_key!r} does not participate in {self.number}"
            )
        if len(candidates) == 1:
            if phrase is not None and candidates[0].phrase != phrase:
                raise KeyError(
                    f"{self.number} end at {class_key!r} has phrase "
                    f"{candidates[0].phrase!r}, not {phrase!r}"
                )
            return candidates[0]
        if phrase is None:
            raise KeyError(
                f"{self.number} is reflexive on {class_key!r}; a phrase is required"
            )
        for end in candidates:
            if end.phrase == phrase:
                return end
        raise KeyError(f"{self.number} has no end at {class_key!r} phrased {phrase!r}")

    def opposite(self, end: AssociationEnd) -> AssociationEnd:
        if end is self.one or end == self.one:
            return self.other
        if end is self.other or end == self.other:
            return self.one
        raise KeyError(f"end {end} is not part of {self.number}")

    def participants(self) -> tuple[str, ...]:
        keys = [self.one.class_key, self.other.class_key]
        if self.link_class_key is not None:
            keys.append(self.link_class_key)
        return tuple(keys)
