"""Well-formedness checking (the profile's OCL-style rules).

A modelling tool must report *all* problems in one pass, so the checker
collects :class:`Violation` records instead of raising on the first one.
``check_model(strict=True)`` raises :class:`WellFormednessError` when any
ERROR-severity violation exists; WARNING-severity findings (unreachable
states, unhandled events) never raise.

Action-language bodies are parsed and analyzed too (lazily imported from
:mod:`repro.oal` to keep the package layering acyclic), because a model
whose activities do not compile is not executable — and executability is
the whole point (paper section 2).
"""

from __future__ import annotations

from repro.analysis.findings import Severity, Violation

from .errors import WellFormednessError
from .klass import derived_operation
from .model import Model

__all__ = ["Severity", "Violation", "check_model"]


def check_model(
    model: Model, strict: bool = False, check_actions: bool = True
) -> list[Violation]:
    """Run every well-formedness rule over *model*.

    Returns the full list of violations; with ``strict=True`` raises
    :class:`WellFormednessError` if any ERROR is present.
    """
    violations: list[Violation] = []
    for component in model.components:
        _check_component(component, violations)
    if check_actions:
        _check_actions(model, violations)

    if strict:
        errors = [v for v in violations if v.severity is Severity.ERROR]
        if errors:
            raise WellFormednessError(errors)
    return violations


def _check_component(component, violations: list[Violation]) -> None:
    for klass in component.classes:
        _check_class(component, klass, violations)
    for association in component.associations:
        _check_association(component, association, violations)


def _check_class(component, klass, violations: list[Violation]) -> None:
    where = f"{component.name}.{klass.key_letters}"

    # identifiers reference real attributes
    for identifier in klass.identifiers:
        for attr_name in identifier.attribute_names:
            if not klass.has_attribute(attr_name):
                violations.append(Violation(
                    Severity.ERROR, where,
                    f"identifier {identifier.label} references unknown "
                    f"attribute {attr_name!r}",
                ))

    # referential attributes formalize real associations this class joins
    for attribute in klass.attributes:
        if attribute.referential is None:
            continue
        if not component.has_association(attribute.referential):
            violations.append(Violation(
                Severity.ERROR, where,
                f"attribute {attribute.name!r} formalizes unknown "
                f"association {attribute.referential!r}",
            ))
            continue
        association = component.association(attribute.referential)
        if klass.key_letters not in association.participants():
            violations.append(Violation(
                Severity.ERROR, where,
                f"attribute {attribute.name!r} formalizes {attribute.referential} "
                f"but {klass.key_letters} does not participate in it",
            ))

    _check_statemachine(component, klass, violations, where)


def _check_statemachine(component, klass, violations, where: str) -> None:
    machine = klass.statemachine
    if machine.is_empty():
        if klass.events:
            violations.append(Violation(
                Severity.ERROR, where,
                "class declares events but has no state machine",
            ))
        return

    if machine.initial_state is None:
        violations.append(Violation(
            Severity.ERROR, where, "state machine has no initial state",
        ))
    elif not machine.has_state(machine.initial_state):
        violations.append(Violation(
            Severity.ERROR, where,
            f"initial state {machine.initial_state!r} is not a state",
        ))

    for transition in machine.transitions:
        if not machine.has_state(transition.from_state):
            violations.append(Violation(
                Severity.ERROR, where,
                f"transition from unknown state {transition.from_state!r}",
            ))
        if not machine.has_state(transition.to_state):
            violations.append(Violation(
                Severity.ERROR, where,
                f"transition to unknown state {transition.to_state!r}",
            ))
        if not klass.has_event(transition.event_label):
            violations.append(Violation(
                Severity.ERROR, where,
                f"transition on undeclared event {transition.event_label!r}",
            ))
        elif klass.event(transition.event_label).creation:
            violations.append(Violation(
                Severity.ERROR, where,
                f"creation event {transition.event_label!r} used on a "
                "normal transition",
            ))

    for creation in machine.creation_transitions:
        if not machine.has_state(creation.to_state):
            violations.append(Violation(
                Severity.ERROR, where,
                f"creation transition to unknown state {creation.to_state!r}",
            ))
        if not klass.has_event(creation.event_label):
            violations.append(Violation(
                Severity.ERROR, where,
                f"creation transition on undeclared event "
                f"{creation.event_label!r}",
            ))
        elif not klass.event(creation.event_label).creation:
            violations.append(Violation(
                Severity.ERROR, where,
                f"event {creation.event_label!r} drives a creation transition "
                "but is not declared creation=True",
            ))

    # reachability (warning only)
    reachable = machine.reachable_states()
    for state in machine.states:
        if state.name not in reachable:
            violations.append(Violation(
                Severity.WARNING, where,
                f"state {state.name!r} is unreachable",
            ))

    # declared events never appearing in the table (warning only)
    handled = machine.events_handled()
    for event in klass.events:
        if event.label not in handled:
            violations.append(Violation(
                Severity.WARNING, where,
                f"event {event.label!r} is declared but never handled",
            ))


def _check_association(component, association, violations: list[Violation]) -> None:
    where = f"{component.name}.{association.number}"
    for end in (association.one, association.other):
        if not component.has_class(end.class_key):
            violations.append(Violation(
                Severity.ERROR, where,
                f"association end references unknown class {end.class_key!r}",
            ))
    if association.link_class_key is not None:
        if not component.has_class(association.link_class_key):
            violations.append(Violation(
                Severity.ERROR, where,
                f"link class {association.link_class_key!r} is unknown",
            ))
    if association.is_reflexive and association.one.phrase == association.other.phrase:
        violations.append(Violation(
            Severity.ERROR, where,
            "reflexive association ends must carry distinct phrases",
        ))


def _check_actions(model: Model, violations: list[Violation]) -> None:
    """Parse + statically analyze every activity, operation and derived
    attribute (the operation :func:`~repro.xuml.klass.derived_operation`
    builds, which is what every executor runs)."""
    for component in model.components:
        for klass in component.classes:
            prefix = f"{component.name}.{klass.key_letters}"
            for state in klass.statemachine.states:
                _check_body(model, component, klass, state.activity,
                            f"{prefix}.{state.name}", "activity",
                            violations, state=state)
            for operation in klass.operations:
                _check_body(model, component, klass, operation.body,
                            f"{prefix}::{operation.name}", "operation",
                            violations, operation=operation)
            for attribute in klass.attributes:
                if attribute.derived is None:
                    continue
                pseudo = derived_operation(attribute)
                _check_body(model, component, klass, pseudo.body,
                            f"{prefix}.{attribute.name}", "derived attribute",
                            violations, operation=pseudo)


def _check_body(model, component, klass, body: str, where: str, kind: str,
                violations: list[Violation], state=None, operation=None):
    """One OAL body: an ERROR if it does not parse or is ill-typed."""
    from repro.oal.analyzer import AnalysisError, analyze_activity
    from repro.oal.parser import OALSyntaxError, parse_activity

    if not body.strip():
        return
    try:
        block = parse_activity(body)
        analyze_activity(block, model, component, klass, state,
                         operation=operation)
    except OALSyntaxError as exc:
        violations.append(Violation(
            Severity.ERROR, where, f"{kind} does not parse: {exc}"))
    except AnalysisError as exc:
        violations.append(Violation(
            Severity.ERROR, where, f"{kind} is ill-typed: {exc}"))
