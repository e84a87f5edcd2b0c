"""Components (xtUML domains).

A component is the unit of modelling and of translation: it owns classes,
associations, user-defined types and external entities.  A whole system
(:class:`repro.xuml.model.Model`) is a set of components; the model
compiler translates each component against a mark set.
"""

from __future__ import annotations

from .association import Association
from .datatypes import TypeRegistry
from .errors import DuplicateElementError, UnknownElementError
from .external import ExternalEntity
from .klass import ModelClass


class Component:
    """One modelled domain: classes + associations + types + externals."""

    def __init__(self, name: str, description: str = ""):
        if not name.isidentifier():
            raise ValueError(f"component name {name!r} is not an identifier")
        self.name = name
        self.description = description
        self.types = TypeRegistry()
        self._classes: dict[str, ModelClass] = {}
        self._associations: dict[str, Association] = {}
        self._externals: dict[str, ExternalEntity] = {}

    # -- classes -------------------------------------------------------------

    def add_class(self, klass: ModelClass) -> ModelClass:
        if klass.key_letters in self._classes:
            raise DuplicateElementError(
                f"component {self.name}: class {klass.key_letters!r} already defined"
            )
        for existing in self._classes.values():
            if existing.number == klass.number:
                raise DuplicateElementError(
                    f"component {self.name}: class number {klass.number} already "
                    f"used by {existing.key_letters}"
                )
        self._classes[klass.key_letters] = klass
        return klass

    def klass(self, key_letters: str) -> ModelClass:
        try:
            return self._classes[key_letters]
        except KeyError:
            raise UnknownElementError(
                f"component {self.name} has no class {key_letters!r}"
            ) from None

    def has_class(self, key_letters: str) -> bool:
        return key_letters in self._classes

    @property
    def classes(self) -> tuple[ModelClass, ...]:
        return tuple(self._classes.values())

    @property
    def class_keys(self) -> tuple[str, ...]:
        return tuple(self._classes)

    # -- associations ----------------------------------------------------------

    def add_association(self, association: Association) -> Association:
        if association.number in self._associations:
            raise DuplicateElementError(
                f"component {self.name}: {association.number} already defined"
            )
        self._associations[association.number] = association
        return association

    def association(self, number: str) -> Association:
        try:
            return self._associations[number]
        except KeyError:
            raise UnknownElementError(
                f"component {self.name} has no association {number!r}"
            ) from None

    def has_association(self, number: str) -> bool:
        return number in self._associations

    @property
    def associations(self) -> tuple[Association, ...]:
        return tuple(self._associations.values())

    # -- external entities -------------------------------------------------------

    def add_external(self, external: ExternalEntity) -> ExternalEntity:
        if external.key_letters in self._externals:
            raise DuplicateElementError(
                f"component {self.name}: external {external.key_letters!r} "
                "already defined"
            )
        self._externals[external.key_letters] = external
        return external

    def external(self, key_letters: str) -> ExternalEntity:
        try:
            return self._externals[key_letters]
        except KeyError:
            raise UnknownElementError(
                f"component {self.name} has no external entity {key_letters!r}"
            ) from None

    def has_external(self, key_letters: str) -> bool:
        return key_letters in self._externals

    @property
    def externals(self) -> tuple[ExternalEntity, ...]:
        return tuple(self._externals.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Component {self.name}: {len(self._classes)} classes, "
            f"{len(self._associations)} associations>"
        )
