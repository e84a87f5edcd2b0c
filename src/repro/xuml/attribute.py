"""Class attributes and identifiers.

In Executable UML every class has attributes typed by the small type system
of :mod:`repro.xuml.datatypes`, and one or more *identifiers* (candidate
keys).  Referential attributes — attributes that formalize an association —
are modelled explicitly so the well-formedness checker and the code
generators can trace them back to the association they formalize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .datatypes import DataType, default_value
from .tracked import Tracked


@dataclass
class Attribute(Tracked):
    """One attribute of a class.

    Parameters
    ----------
    name:
        Attribute name, unique within the owning class.
    dtype:
        One of the profile's data types.
    default:
        Initial value for new instances; if ``None`` the type default from
        :func:`repro.xuml.datatypes.default_value` is used.
    referential:
        Association number (e.g. ``"R3"``) this attribute formalizes, or
        ``None`` for a descriptive attribute.
    derived:
        OAL expression text computed on read instead of stored, or ``None``.
    """

    name: str
    dtype: DataType
    default: object | None = None
    referential: str | None = None
    derived: str | None = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"attribute name {self.name!r} is not an identifier")
        if self.derived is not None and self.referential is not None:
            raise ValueError(
                f"attribute {self.name!r} cannot be both derived and referential"
            )

    @property
    def initial_value(self):
        """The value new instances start with."""
        if self.default is not None:
            return self.default
        return default_value(self.dtype)


@dataclass
class Identifier(Tracked):
    """A candidate key: an ordered set of attribute names.

    ``number`` follows xtUML convention: identifier 1 is the preferred
    identifier (``*``), further identifiers are ``I2``, ``I3``, ...
    """

    number: int
    attribute_names: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.number < 1:
            raise ValueError("identifier numbers start at 1")
        if not self.attribute_names:
            raise ValueError(f"identifier I{self.number} must name >= 1 attribute")
        if len(set(self.attribute_names)) != len(self.attribute_names):
            raise ValueError(f"identifier I{self.number} repeats an attribute")

    @property
    def label(self) -> str:
        return "*" if self.number == 1 else f"I{self.number}"
