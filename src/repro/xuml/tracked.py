"""Edit tracking: one revision counter for every model element.

Every edit to a model moves :func:`revision`: an attribute assignment on
any mutable element (the ``__setattr__`` of :class:`Tracked`, the base of
``Model``, ``Component``, ``ModelClass``, ``StateMachine``, ``State``,
``Attribute``, ``Identifier``, ``EventSpec``, ``Operation``,
``BridgeSpec``, ``ExternalEntity``, ``Association`` and
``TypeRegistry``), and every container mutator (``add_*``, ``set_*``,
``define_enum``), which calls :func:`bump`.  The remaining element types
(``EventParameter``, ``AssociationEnd``, ``EnumType``, the transitions)
are frozen.  Constructing an element bumps too, so the builder,
``ModelBuilder._finalize`` and ``model_from_dict`` all count as edits.

The counter is global: an edit to any model moves it, so a memo that
stores the revision it was computed at
(:func:`repro.build.fingerprint.model_fingerprint`) is conservative,
never stale.
"""

from __future__ import annotations

_revision = 0


def revision() -> int:
    """The current edit count over every model element."""
    return _revision


def bump() -> None:
    """Count one edit; every container mutator calls this."""
    global _revision
    _revision += 1


class Tracked:
    """Base of every mutable model element: each assignment is an edit."""

    __slots__ = ()

    def __setattr__(self, name, value, _set=object.__setattr__):
        global _revision
        _revision += 1
        _set(self, name, value)
