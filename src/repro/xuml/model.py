"""The top-level model: a named set of components.

Element *paths* — ``"Component.Class"`` strings — are the coordinate
system shared with the marking model (:mod:`repro.marks`): marks refer to
elements by path precisely so they stay outside the model itself
("rather like sticky notes", paper section 3).
"""

from __future__ import annotations

from .component import Component
from .errors import DuplicateElementError, UnknownElementError
from .klass import ModelClass
from .tracked import Tracked, bump


class Model(Tracked):
    """A system model: one or more components."""

    def __init__(self, name: str, description: str = ""):
        if not name.isidentifier():
            raise ValueError(f"model name {name!r} is not an identifier")
        self.name = name
        self.description = description
        self._components: dict[str, Component] = {}

    def add_component(self, component: Component) -> Component:
        if component.name in self._components:
            raise DuplicateElementError(
                f"model {self.name}: component {component.name!r} already defined"
            )
        bump()
        self._components[component.name] = component
        return component

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise UnknownElementError(
                f"model {self.name} has no component {name!r}"
            ) from None

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components.values())

    # -- element paths --------------------------------------------------------

    def class_paths(self) -> tuple[str, ...]:
        """Paths of every class in the model, ``Component.KeyLetters``."""
        return tuple(
            f"{component.name}.{klass.key_letters}"
            for component in self._components.values()
            for klass in component.classes
        )

    def resolve_class(self, path: str) -> ModelClass:
        """Resolve ``"Component.KL"`` to its :class:`ModelClass`."""
        component_name, _, key_letters = path.partition(".")
        if not key_letters:
            raise UnknownElementError(
                f"class path {path!r} must look like 'Component.KeyLetters'"
            )
        return self.component(component_name).klass(key_letters)

    def all_classes(self) -> tuple[ModelClass, ...]:
        return tuple(
            klass
            for component in self._components.values()
            for klass in component.classes
        )

    def stats(self) -> dict[str, int]:
        """Size summary used by the E5 surface benchmark and reports."""
        classes = self.all_classes()
        return {
            "components": len(self._components),
            "classes": len(classes),
            "attributes": sum(len(k.attributes) for k in classes),
            "events": sum(len(k.events) for k in classes),
            "states": sum(len(k.statemachine.states) for k in classes),
            "transitions": sum(len(k.statemachine.transitions) for k in classes),
            "associations": sum(
                len(c.associations) for c in self._components.values()
            ),
            "externals": sum(len(c.externals) for c in self._components.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Model {self.name}: {len(self._components)} components>"
