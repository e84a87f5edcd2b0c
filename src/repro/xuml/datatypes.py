"""Core data types of the Executable UML subset.

The paper's profile ("a carefully selected streamlined subset of UML")
needs only a handful of attribute/parameter types: the scalar core types,
user-defined enumerations, and instance reference (set) types used by the
action language.  Everything here is deliberately small — the whole point
of the paper is that this *is* enough.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class CoreType(enum.Enum):
    """Built-in scalar types available to attributes and event parameters."""

    INTEGER = "integer"
    REAL = "real"
    BOOLEAN = "boolean"
    STRING = "string"
    UNIQUE_ID = "unique_id"
    TIMESTAMP = "timestamp"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class EnumType:
    """A user-defined enumeration type, e.g. ``DoorState::OPEN``.

    Enumerators are ordered; order is meaningful for code generation
    (the C and VHDL generators assign consecutive codes).
    """

    name: str
    enumerators: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.enumerators:
            raise ValueError(f"enum type {self.name!r} needs >= 1 enumerator")
        if len(set(self.enumerators)) != len(self.enumerators):
            raise ValueError(f"enum type {self.name!r} has duplicate enumerators")

    def code_of(self, enumerator: str) -> int:
        """Integer code assigned to *enumerator* by the generators."""
        try:
            return self.enumerators.index(enumerator)
        except ValueError:
            raise KeyError(
                f"{enumerator!r} is not an enumerator of {self.name}"
            ) from None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class InstRefType:
    """Reference to a single instance of a class (``inst_ref<Class>``)."""

    class_key: str

    def __str__(self) -> str:
        return f"inst_ref<{self.class_key}>"


@dataclass(frozen=True)
class InstSetType:
    """Reference to a set of instances (``inst_ref_set<Class>``)."""

    class_key: str

    def __str__(self) -> str:
        return f"inst_ref_set<{self.class_key}>"


#: Any type a model element may carry.
DataType = CoreType | EnumType | InstRefType | InstSetType


def dtype_tag(dtype: DataType) -> str:
    """Serialize a data type to its tag (``integer``, ``enum:Mode``,
    ``inst_ref:B``, ``inst_ref_set:B``), as manifests and IR carry it."""
    if isinstance(dtype, EnumType):
        return f"enum:{dtype.name}"
    if isinstance(dtype, InstRefType):
        return f"inst_ref:{dtype.class_key}"
    if isinstance(dtype, InstSetType):
        return f"inst_ref_set:{dtype.class_key}"
    return dtype.value


def tag_to_dtype(tag: str, enums: dict[str, tuple[str, ...]]) -> DataType:
    """Deserialize a tag back to a data type; *enums* maps each enum
    name to its enumerators."""
    if tag.startswith("enum:"):
        name = tag[len("enum:"):]
        return EnumType(name, tuple(enums[name]))
    if tag.startswith("inst_ref:"):
        return InstRefType(tag[len("inst_ref:"):])
    if tag.startswith("inst_ref_set:"):
        return InstSetType(tag[len("inst_ref_set:"):])
    return CoreType(tag)


def default_value(dtype: DataType):
    """The value a freshly created attribute of *dtype* holds.

    Mirrors the initial-value rules the code generators bake into the C
    struct initializers and VHDL reset clauses, so the abstract runtime and
    the generated targets agree from cycle zero.
    """
    if isinstance(dtype, EnumType):
        return dtype.enumerators[0]
    if isinstance(dtype, InstRefType):
        return None
    if isinstance(dtype, InstSetType):
        return ()
    if dtype is CoreType.INTEGER:
        return 0
    if dtype is CoreType.REAL:
        return 0.0
    if dtype is CoreType.BOOLEAN:
        return False
    if dtype is CoreType.STRING:
        return ""
    if dtype is CoreType.UNIQUE_ID:
        return 0
    if dtype is CoreType.TIMESTAMP:
        return 0
    raise TypeError(f"unknown data type: {dtype!r}")


def bit_width(dtype: DataType) -> int:
    """Width, in bits, of *dtype* when packed into a bus message.

    Used by the interface generator (:mod:`repro.mda.interfacegen`) so that
    the C struct layout and the VHDL record layout are derived from one
    place — the consistency-by-construction property of paper section 4.
    """
    if isinstance(dtype, EnumType):
        width = max(1, (len(dtype.enumerators) - 1).bit_length())
        return width
    if isinstance(dtype, (InstRefType, InstSetType)):
        return 32  # instance handle
    widths = {
        CoreType.INTEGER: 32,
        CoreType.REAL: 64,
        CoreType.BOOLEAN: 1,
        CoreType.STRING: 256,
        CoreType.UNIQUE_ID: 32,
        CoreType.TIMESTAMP: 64,
    }
    return widths[dtype]


@dataclass
class TypeRegistry:
    """Per-component registry of user-defined types.

    Components own their enumerations; the registry enforces unique names
    and provides lookup for the action-language analyzer.
    """

    _enums: dict[str, EnumType] = field(default_factory=dict)

    def define_enum(self, name: str, enumerators: tuple[str, ...] | list[str]) -> EnumType:
        if name in self._enums:
            raise ValueError(f"enum type {name!r} already defined")
        etype = EnumType(name, tuple(enumerators))
        self._enums[name] = etype
        return etype

    def enum(self, name: str) -> EnumType:
        try:
            return self._enums[name]
        except KeyError:
            raise KeyError(f"no enum type named {name!r}") from None

    @property
    def enums(self) -> tuple[EnumType, ...]:
        return tuple(self._enums.values())

    def __contains__(self, name: str) -> bool:
        return name in self._enums
