"""Unit tests for classes, components and models."""

import pytest

from repro.xuml import (
    Attribute,
    Component,
    CoreType,
    DuplicateElementError,
    EventSpec,
    ExternalEntity,
    BridgeSpec,
    Model,
    ModelClass,
    Operation,
    UnknownElementError,
)
from repro.xuml.association import Association, AssociationEnd, Multiplicity


def oven_class() -> ModelClass:
    klass = ModelClass("MicrowaveOven", "MO", 1)
    klass.add_attribute(Attribute("oven_id", CoreType.UNIQUE_ID))
    klass.add_event(EventSpec("MO1", "cook"))
    return klass


class TestModelClass:
    def test_duplicate_attribute_rejected(self):
        klass = oven_class()
        with pytest.raises(DuplicateElementError):
            klass.add_attribute(Attribute("oven_id", CoreType.INTEGER))

    def test_unknown_attribute_raises(self):
        with pytest.raises(UnknownElementError):
            oven_class().attribute("nope")

    def test_duplicate_event_rejected(self):
        klass = oven_class()
        with pytest.raises(DuplicateElementError):
            klass.add_event(EventSpec("MO1"))

    def test_unknown_event_raises(self):
        with pytest.raises(UnknownElementError):
            oven_class().event("MO9")

    def test_operations(self):
        klass = oven_class()
        klass.add_operation(Operation("reset"))
        assert klass.operation("reset").instance_based
        with pytest.raises(DuplicateElementError):
            klass.add_operation(Operation("reset"))
        with pytest.raises(UnknownElementError):
            klass.operation("nope")

    def test_passive_class_is_not_active(self):
        assert not oven_class().is_active

    def test_bad_key_letters_rejected(self):
        with pytest.raises(ValueError):
            ModelClass("Oven", "M O", 1)


class TestComponent:
    def build(self) -> Component:
        component = Component("control")
        component.add_class(oven_class())
        return component

    def test_duplicate_key_letters_rejected(self):
        component = self.build()
        with pytest.raises(DuplicateElementError):
            component.add_class(ModelClass("Other", "MO", 2))

    def test_duplicate_class_number_rejected(self):
        component = self.build()
        with pytest.raises(DuplicateElementError):
            component.add_class(ModelClass("Other", "OT", 1))

    def test_unknown_class_raises(self):
        with pytest.raises(UnknownElementError):
            self.build().klass("XX")

    def test_duplicate_association_number_rejected(self):
        component = self.build()
        component.add_class(ModelClass("PowerTube", "PT", 2))
        assoc = Association(
            "R1",
            AssociationEnd("MO", "a", Multiplicity.ONE),
            AssociationEnd("PT", "b", Multiplicity.ONE),
        )
        component.add_association(assoc)
        with pytest.raises(DuplicateElementError):
            component.add_association(assoc)

    def test_externals(self):
        component = self.build()
        entity = ExternalEntity("TIM", "timer service")
        entity.add_bridge(BridgeSpec("current_time"))
        component.add_external(entity)
        assert component.external("TIM").bridge("current_time")
        with pytest.raises(UnknownElementError):
            component.external("LOG")
        with pytest.raises(UnknownElementError):
            component.external("TIM").bridge("nope")


class TestModel:
    def build(self) -> Model:
        model = Model("Microwave")
        component = Component("control")
        component.add_class(oven_class())
        model.add_component(component)
        return model

    def test_class_paths(self):
        assert self.build().class_paths() == ("control.MO",)

    def test_resolve_class(self):
        model = self.build()
        assert model.resolve_class("control.MO").key_letters == "MO"

    def test_resolve_bad_path_raises(self):
        model = self.build()
        with pytest.raises(UnknownElementError):
            model.resolve_class("justonepart")
        with pytest.raises(UnknownElementError):
            model.resolve_class("nope.MO")

    def test_duplicate_component_rejected(self):
        model = self.build()
        with pytest.raises(DuplicateElementError):
            model.add_component(Component("control"))

    def test_stats(self):
        stats = self.build().stats()
        assert stats["classes"] == 1
        assert stats["attributes"] == 1
        assert stats["events"] == 1
        assert stats["states"] == 0
