"""The memoised model fingerprint is never stale.

``model_fingerprint`` serves a model's digest again while the xUML
revision counter has not moved.  Every test here primes the memo, makes
one edit through one way of editing (a container mutator, a direct field
assignment, the builder's finalisation, loading from a dict) and checks
the memo against the digest of a fresh serialization.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.build.fingerprint as fingerprint_module
from repro.analysis.report import lint_model
from repro.exec import clear_lowering_cache
from repro.build.fingerprint import canonical_json, digest, model_fingerprint
from repro.models import CATALOG, build_model
from repro.xuml import (
    Association,
    AssociationEnd,
    Attribute,
    BridgeSpec,
    Component,
    CoreType,
    EventParameter,
    EventSpec,
    ExternalEntity,
    Identifier,
    Model,
    ModelBuilder,
    ModelClass,
    Multiplicity,
    Operation,
    State,
    StateMachine,
    TypeRegistry,
    check_model,
    model_from_dict,
    model_to_dict,
)
from repro.runtime import Simulation
from repro.xuml.tracked import Tracked, revision

from tests.xuml.test_serialize_random import random_models


def uncached(model) -> str:
    return digest("model", canonical_json(model_to_dict(model)))


def sample_model():
    """One model with an element of every tracked class."""
    b = ModelBuilder("Memo")
    c = b.component("comp")
    c.enum("Mode", ["LOW", "HIGH"])
    c.ext("TIM").bridge("now", returns="integer")
    a = c.klass("Alpha", "A")
    a.attr("count", "integer").attr("mode", "Mode").identifier(1, "count")
    a.event("A1", "go", params=[("n", "integer")]).event("A2", "stop")
    a.state("Idle", 1, activity="self.count = 0;").state("Busy", 2)
    a.trans("Idle", "A1", "Busy").trans("Busy", "A2", "Idle")
    a.ignore("Idle", "A2")
    a.operation("bump", "self.count = self.count + 1;")
    c.klass("Beta", "B").attr("size", "integer")
    c.assoc("R1", ("A", "owns", "1"), ("B", "is owned by", "*"))
    return b.build()


def parts(model):
    component = model.components[0]
    klass = component.klass("A")
    return component, klass, klass.statemachine


EDITS = {
    # Model
    "model.description": lambda m: setattr(m, "description", "edited"),
    "model.add_component": lambda m: m.add_component(Component("extra")),
    # Component
    "component.description":
        lambda m: setattr(parts(m)[0], "description", "edited"),
    "component.types": lambda m: setattr(parts(m)[0], "types", TypeRegistry()),
    "component.add_class":
        lambda m: parts(m)[0].add_class(ModelClass("Gamma", "G", 9)),
    "component.add_association": lambda m: parts(m)[0].add_association(
        Association("R2", AssociationEnd("A", "x", Multiplicity.ONE),
                    AssociationEnd("B", "y", Multiplicity.ZERO_ONE))),
    "component.add_external":
        lambda m: parts(m)[0].add_external(ExternalEntity("LOG")),
    # TypeRegistry
    "types.define_enum":
        lambda m: parts(m)[0].types.define_enum("Dir", ("UP", "DOWN")),
    "types._enums": lambda m: setattr(parts(m)[0].types, "_enums", {}),
    # ModelClass
    "class.name": lambda m: setattr(parts(m)[1], "name", "Renamed"),
    "class.number": lambda m: setattr(parts(m)[1], "number", 7),
    "class.statemachine": lambda m: setattr(
        parts(m)[1], "statemachine", StateMachine()),
    "class.add_attribute": lambda m: parts(m)[1].add_attribute(
        Attribute("extra", CoreType.REAL)),
    "class.add_identifier": lambda m: parts(m)[1].add_identifier(
        Identifier(2, ("mode",))),
    "class.add_event": lambda m: parts(m)[1].add_event(EventSpec("A3")),
    "class.add_operation": lambda m: parts(m)[1].add_operation(
        Operation("reset", "self.count = 0;")),
    # StateMachine
    "machine.initial_state":
        lambda m: setattr(parts(m)[2], "initial_state", "Busy"),
    "machine.add_state": lambda m: parts(m)[2].add_state(State("Done", 3)),
    "machine.add_transition":
        lambda m: parts(m)[2].add_transition("Busy", "A1", "Idle"),
    "machine.add_creation_transition":
        lambda m: parts(m)[2].add_creation_transition("A1", "Idle"),
    "machine.set_ignored": lambda m: parts(m)[2].set_ignored("Busy", "A1"),
    "machine.set_cant_happen":
        lambda m: parts(m)[2].set_cant_happen("Busy", "A1"),
    # State
    "state.activity": lambda m: setattr(
        parts(m)[2].state("Busy"), "activity", "self.count = 2;"),
    "state.final": lambda m: setattr(parts(m)[2].state("Busy"), "final", True),
    # Attribute
    "attribute.default":
        lambda m: setattr(parts(m)[1].attribute("count"), "default", 5),
    "attribute.dtype": lambda m: setattr(
        parts(m)[1].attribute("count"), "dtype", CoreType.REAL),
    # Identifier
    "identifier.attribute_names": lambda m: setattr(
        parts(m)[1].identifiers[0], "attribute_names", ("mode",)),
    # EventSpec
    "event.meaning":
        lambda m: setattr(parts(m)[1].event("A1"), "meaning", "edited"),
    "event.parameters": lambda m: setattr(
        parts(m)[1].event("A1"), "parameters",
        (EventParameter("n", CoreType.REAL),)),
    # Operation
    "operation.body": lambda m: setattr(
        parts(m)[1].operation("bump"), "body", "self.count = 1;"),
    "operation.instance_based": lambda m: setattr(
        parts(m)[1].operation("bump"), "instance_based", False),
    # ExternalEntity and BridgeSpec
    "external.name":
        lambda m: setattr(parts(m)[0].external("TIM"), "name", "Timer"),
    "external.add_bridge": lambda m: parts(m)[0].external("TIM").add_bridge(
        BridgeSpec("later")),
    "bridge.returns": lambda m: setattr(
        parts(m)[0].external("TIM").bridge("now"), "returns", None),
    # Association
    "association.link_class_key": lambda m: setattr(
        parts(m)[0].association("R1"), "link_class_key", "B"),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_every_edit_invalidates_the_memo(edit):
    model = sample_model()
    before = model_fingerprint(model)
    assert before == uncached(model)
    EDITS[edit](model)
    after = model_fingerprint(model)
    assert after == uncached(model)
    assert after != before, "the edit must change the serialization"


def test_every_mutable_element_class_is_tracked():
    for cls in (Association, Attribute, BridgeSpec, Component, EventSpec,
                ExternalEntity, Identifier, ModelClass, Operation, State,
                Model, StateMachine, TypeRegistry):
        assert issubclass(cls, Tracked), cls


def test_memo_serves_an_unedited_model_without_serializing(monkeypatch):
    model = sample_model()
    model_fingerprint(model)
    calls = []
    monkeypatch.setattr(fingerprint_module, "model_to_dict",
                        lambda m: calls.append(m) or model_to_dict(m))
    assert model_fingerprint(model) == uncached(model)
    assert calls == []


def test_builder_finalize_is_an_edit():
    # string types stay INTEGER placeholders until build() resolves them
    builder = ModelBuilder("Late")
    component = builder.component("comp")
    component.klass("Alpha", "A").attr("label", "string").event(
        "A1", params=[("text", "string")])
    model = builder._model
    before = model_fingerprint(model)
    assert builder.build(check=False) is model
    assert model_fingerprint(model) == uncached(model) != before


def test_model_from_dict_leaves_other_memos_correct():
    model = sample_model()
    data = model_to_dict(model)
    before = model_fingerprint(model)
    data["description"] = "loaded"
    loaded = model_from_dict(data)
    assert model_fingerprint(loaded) == uncached(loaded) != before
    assert model_fingerprint(model) == uncached(model) == before


def test_equal_models_share_a_digest_not_a_memo():
    first, second = sample_model(), sample_model()
    assert model_fingerprint(first) == model_fingerprint(second)
    parts(second)[1].attribute("count").default = 3
    assert model_fingerprint(first) == uncached(first)
    assert model_fingerprint(second) == uncached(second)
    assert model_fingerprint(first) != model_fingerprint(second)


def _random_edit(data, model):
    """One edit through a tracked path, drawn by hypothesis."""
    component = model.components[0]
    klass = data.draw(st.sampled_from(component.classes))
    machine = klass.statemachine
    kinds = ["description", "attribute", "class", "enum", "event"]
    if machine.states:
        kinds += ["activity", "initial", "state"]
    if klass.attributes:
        kinds.append("default")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "description":
        model.description = data.draw(st.text(max_size=5))
    elif kind == "attribute":
        name = f"new{len(klass.attributes)}"
        klass.add_attribute(Attribute(name, CoreType.BOOLEAN))
    elif kind == "class":
        number = 1 + max(k.number for k in component.classes)
        component.add_class(ModelClass(f"Extra{number}", f"X{number}", number))
    elif kind == "enum":
        name = f"E{len(component.types.enums)}"
        component.types.define_enum(name, ("ONE",))
    elif kind == "event":
        klass.add_event(EventSpec(f"{klass.key_letters}N{len(klass.events)}"))
    elif kind == "activity":
        state = data.draw(st.sampled_from(machine.states))
        state.activity = data.draw(st.sampled_from(["", "x = 1;", "y = 2;"]))
    elif kind == "initial":
        machine.initial_state = data.draw(st.sampled_from(machine.state_names))
    elif kind == "state":
        number = 1 + max(s.number for s in machine.states)
        machine.add_state(State(f"T{number}", number))
    else:
        attribute = data.draw(st.sampled_from(klass.attributes))
        attribute.default = data.draw(st.one_of(st.none(), st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(random_models(), st.data())
def test_memo_matches_digest_after_random_edits(model, data):
    assert model_fingerprint(model) == uncached(model)
    for _ in range(data.draw(st.integers(1, 3))):
        _random_edit(data, model)
        assert model_fingerprint(model) == uncached(model)


def test_revision_moves_on_every_assignment():
    state = State("Idle", 1)
    now = revision()
    state.activity = "x = 1;"
    assert revision() > now


@pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
def test_lint_serializes_the_model_once(monkeypatch, name):
    model = build_model(name)
    calls = []
    monkeypatch.setattr(fingerprint_module, "model_to_dict",
                        lambda m: calls.append(m) or model_to_dict(m))
    lint_model(model)
    assert calls == [model]


def test_walking_a_derived_attribute_is_no_edit(monkeypatch):
    """``oal_bodies`` builds each derived attribute's operation on every
    walk; building it must not move the revision that keys the memo."""
    b = ModelBuilder("Derived")
    c = b.component("comp")
    a = c.klass("Alpha", "A")
    a.attr("count", "integer").attr("twice", "integer",
                                    derived="self.count * 2")
    a.state("Idle", 1)
    model = b.build()
    clear_lowering_cache()   # the first Simulation lowers, and walks
    calls = []
    monkeypatch.setattr(fingerprint_module, "model_to_dict",
                        lambda m: calls.append(m) or model_to_dict(m))
    for _ in range(3):
        Simulation(model)
        check_model(model)   # walks every body again
    assert calls == [model]
