"""Model serialization — save and load models as plain JSON-able dicts.

A modeling tool must persist models; this module round-trips the whole
metamodel (structure, behaviour, action text, external entities) through
``dict``/``list``/scalar data, so models can be stored as JSON, diffed
in version control, or exchanged between tools.

The format is versioned; loading verifies the version and rebuilds
through the ordinary metamodel API, so a loaded model passes the same
well-formedness checks as a hand-built one.
"""

from __future__ import annotations

import json

from .association import Association, AssociationEnd, Multiplicity
from .attribute import Attribute, Identifier
from .component import Component
from .datatypes import CoreType, DataType, EnumType, InstRefType, InstSetType
from .errors import ModelError
from .event import EventParameter, EventSpec
from .external import BridgeSpec, ExternalEntity
from .klass import ModelClass, Operation
from .model import Model
from .statemachine import State

FORMAT_VERSION = 1


class SerializationError(ModelError):
    """Malformed or incompatible serialized model data."""


def _tag(dtype: DataType) -> str:
    if isinstance(dtype, EnumType):
        return f"enum:{dtype.name}"
    if isinstance(dtype, InstRefType):
        return f"inst_ref:{dtype.class_key}"
    if isinstance(dtype, InstSetType):
        return f"inst_ref_set:{dtype.class_key}"
    return dtype.value


def _untag(tag: str, component: Component) -> DataType:
    if tag.startswith("enum:"):
        return component.types.enum(tag[len("enum:"):])
    if tag.startswith("inst_ref:"):
        return InstRefType(tag[len("inst_ref:"):])
    if tag.startswith("inst_ref_set:"):
        return InstSetType(tag[len("inst_ref_set:"):])
    try:
        return CoreType(tag)
    except ValueError:
        raise SerializationError(f"unknown type tag {tag!r}") from None


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

def model_to_dict(model: Model) -> dict:
    """Serialize *model* to JSON-able data."""
    return {
        "format": FORMAT_VERSION,
        "name": model.name,
        "description": model.description,
        "components": [_component_to_dict(c) for c in model.components],
    }


def model_to_json(model: Model) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=False)


def _component_to_dict(component: Component) -> dict:
    return {
        "name": component.name,
        "description": component.description,
        "enums": [
            {"name": e.name, "enumerators": list(e.enumerators)}
            for e in component.types.enums
        ],
        "externals": [
            {
                "key_letters": ee.key_letters,
                "name": ee.name,
                "bridges": [
                    {
                        "name": b.name,
                        "params": [[p.name, _tag(p.dtype)]
                                   for p in b.parameters],
                        "returns": _tag(b.returns)
                        if b.returns is not None else None,
                    }
                    for b in ee.bridges
                ],
            }
            for ee in component.externals
        ],
        "classes": [_class_to_dict(k) for k in component.classes],
        "associations": [
            {
                "number": a.number,
                "one": [a.one.class_key, a.one.phrase, a.one.mult.value],
                "other": [a.other.class_key, a.other.phrase,
                          a.other.mult.value],
                "link": a.link_class_key,
            }
            for a in component.associations
        ],
    }


def _class_to_dict(klass: ModelClass) -> dict:
    machine = klass.statemachine
    ignores = []
    cant_happens = []
    for state in machine.states:
        for label in machine.events_handled():
            key = (state.name, label)
            if key in machine._responses and machine.transition_for(
                    state.name, label) is None:
                response = machine._responses[key]
                bucket = (ignores if response.value == "ignore"
                          else cant_happens)
                bucket.append([state.name, label])
    return {
        "name": klass.name,
        "key_letters": klass.key_letters,
        "number": klass.number,
        "attributes": [
            {
                "name": a.name,
                "type": _tag(a.dtype),
                "default": a.default,
                "referential": a.referential,
                "derived": a.derived,
            }
            for a in klass.attributes
        ],
        "identifiers": [
            {"number": i.number, "attributes": list(i.attribute_names)}
            for i in klass.identifiers
        ],
        "events": [
            {
                "label": e.label,
                "meaning": e.meaning,
                "creation": e.creation,
                "params": [[p.name, _tag(p.dtype)] for p in e.parameters],
            }
            for e in klass.events
        ],
        "operations": [
            {
                "name": op.name,
                "body": op.body,
                "instance_based": op.instance_based,
                "returns": _tag(op.returns) if op.returns is not None else None,
                "params": [[p.name, _tag(p.dtype)] for p in op.parameters],
            }
            for op in klass.operations
        ],
        "statemachine": {
            "initial": machine.initial_state,
            "states": [
                {"name": s.name, "number": s.number,
                 "activity": s.activity, "final": s.final}
                for s in machine.states
            ],
            "transitions": [
                [t.from_state, t.event_label, t.to_state]
                for t in machine.transitions
            ],
            "creations": [
                [ct.event_label, ct.to_state]
                for ct in machine.creation_transitions
            ],
            "ignores": sorted(ignores),
            "cant_happens": sorted(cant_happens),
        },
    }


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------

def model_from_dict(data: dict) -> Model:
    """Rebuild a model from serialized data (format-checked)."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported model format {version!r} "
            f"(this library reads version {FORMAT_VERSION})")
    model = Model(data["name"], data.get("description", ""))
    for component_data in data.get("components", []):
        model.add_component(_component_from_dict(component_data))
    return model


def model_from_json(text: str) -> Model:
    return model_from_dict(json.loads(text))


def _component_from_dict(data: dict) -> Component:
    component = Component(data["name"], data.get("description", ""))
    for enum_data in data.get("enums", []):
        component.types.define_enum(
            enum_data["name"], tuple(enum_data["enumerators"]))
    for external_data in data.get("externals", []):
        entity = ExternalEntity(
            external_data["key_letters"], external_data.get("name", ""))
        for bridge_data in external_data.get("bridges", []):
            entity.add_bridge(BridgeSpec(
                bridge_data["name"],
                tuple(EventParameter(name, _untag(tag, component))
                      for name, tag in bridge_data.get("params", [])),
                _untag(bridge_data["returns"], component)
                if bridge_data.get("returns") is not None else None,
            ))
        component.add_external(entity)
    for class_data in data.get("classes", []):
        component.add_class(_class_from_dict(class_data, component))
    for assoc_data in data.get("associations", []):
        one = assoc_data["one"]
        other = assoc_data["other"]
        component.add_association(Association(
            assoc_data["number"],
            AssociationEnd(one[0], one[1], Multiplicity(one[2])),
            AssociationEnd(other[0], other[1], Multiplicity(other[2])),
            link_class_key=assoc_data.get("link"),
        ))
    return component


def _class_from_dict(data: dict, component: Component) -> ModelClass:
    klass = ModelClass(data["name"], data["key_letters"], data["number"])
    for attr_data in data.get("attributes", []):
        klass.add_attribute(Attribute(
            attr_data["name"],
            _untag(attr_data["type"], component),
            default=attr_data.get("default"),
            referential=attr_data.get("referential"),
            derived=attr_data.get("derived"),
        ))
    for ident_data in data.get("identifiers", []):
        klass.add_identifier(Identifier(
            ident_data["number"], tuple(ident_data["attributes"])))
    for event_data in data.get("events", []):
        klass.add_event(EventSpec(
            event_data["label"],
            event_data.get("meaning", ""),
            tuple(EventParameter(name, _untag(tag, component))
                  for name, tag in event_data.get("params", [])),
            creation=event_data.get("creation", False),
        ))
    for op_data in data.get("operations", []):
        klass.add_operation(Operation(
            op_data["name"],
            op_data.get("body", ""),
            op_data.get("instance_based", True),
            _untag(op_data["returns"], component)
            if op_data.get("returns") is not None else None,
            tuple(EventParameter(name, _untag(tag, component))
                  for name, tag in op_data.get("params", [])),
        ))
    machine_data = data.get("statemachine", {})
    machine = klass.statemachine
    for state_data in machine_data.get("states", []):
        machine.add_state(State(
            state_data["name"], state_data["number"],
            state_data.get("activity", ""),
            final=state_data.get("final", False),
        ))
    machine.initial_state = machine_data.get("initial")
    for from_state, label, to_state in machine_data.get("transitions", []):
        machine.add_transition(from_state, label, to_state)
    for label, to_state in machine_data.get("creations", []):
        machine.add_creation_transition(label, to_state)
    for state_name, label in machine_data.get("ignores", []):
        machine.set_ignored(state_name, label)
    for state_name, label in machine_data.get("cant_happens", []):
        machine.set_cant_happen(state_name, label)
    return klass
