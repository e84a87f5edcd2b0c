"""Unit tests for the build manifest."""

import pytest

from repro.exec import lower_component
from repro.mda import build_manifest, dtype_tag, tag_to_dtype
from repro.models import (
    all_models,
    build_checksum_model,
    build_microwave_model,
    build_model,
)
from repro.xuml import CoreType, EnumType, InstRefType, InstSetType
from repro.xuml.statemachine import EventResponse


class TestTypeTags:
    @pytest.mark.parametrize("dtype,tag", [
        (CoreType.INTEGER, "integer"),
        (CoreType.REAL, "real"),
        (InstRefType("MO"), "inst_ref:MO"),
        (InstSetType("MO"), "inst_ref_set:MO"),
    ])
    def test_roundtrip(self, dtype, tag):
        assert dtype_tag(dtype) == tag
        assert tag_to_dtype(tag, {}) == dtype

    def test_enum_roundtrip(self):
        mode = EnumType("Mode", ("OFF", "ON"))
        tag = dtype_tag(mode)
        assert tag == "enum:Mode"
        assert tag_to_dtype(tag, {"Mode": ("OFF", "ON")}) == mode


class TestManifest:
    @pytest.fixture(scope="class")
    def manifest(self):
        model = build_microwave_model()
        return build_manifest(model, model.components[0])

    def test_classes_present(self, manifest):
        assert set(manifest.classes) == {"MO", "PT"}

    def test_state_table_complete(self, manifest):
        assert manifest.klass("MO").initial_state == "Idle"
        responses = manifest.lowered.responses
        assert responses["MO", "Idle", "MO1"] == "Preparing"
        assert responses["MO", "Idle", "MO2"] is EventResponse.IGNORE
        assert responses["MO", "Idle", "MO5"] is EventResponse.CANT_HAPPEN

    def test_attributes_with_defaults(self, manifest):
        tube = manifest.klass("PT")
        defaults = {name: default for name, _t, default in tube.attributes}
        assert defaults["watts"] == 900
        assert defaults["energize_count"] == 0

    def test_activities_lowered(self, manifest):
        idle = manifest.lowered.activities["MO", "Idle"]
        assert idle                             # non-empty IR
        assert all(isinstance(stmt, list) for stmt in idle)

    def test_events_with_params(self, manifest):
        oven = manifest.klass("MO")
        assert oven.events["MO1"].params == [("seconds", "integer")]
        assert not oven.events["MO1"].creation

    def test_associations_serialized(self, manifest):
        (r1,) = manifest.lowered.associations
        assert r1.number == "R1"
        assert {r1.one.class_key, r1.other.class_key} == {"MO", "PT"}
        assert r1.link_class_key is None

    def test_creation_transitions(self):
        model = build_checksum_model()
        manifest = build_manifest(model, model.components[0])
        assert manifest.lowered.creations == {("J", "J0"): "Submitted"}
        assert manifest.klass("J").events["J0"].creation

    def test_operations_lowered(self):
        model = build_checksum_model()
        manifest = build_manifest(model, model.components[0])
        engine = manifest.klass("AC")
        fletcher = engine.operations["fletcher"]
        assert fletcher.returns == "integer"
        assert fletcher.instance_based
        assert manifest.lowered.operations["AC", "fletcher"]
        census = engine.operations["engines_available"]
        assert not census.instance_based


@pytest.mark.parametrize("name", sorted(all_models()))
def test_manifest_ir_is_the_lowering_cache_ir(name):
    """The manifest carries the cached lowering itself, not a copy."""
    model = build_model(name)
    component = model.components[0]
    manifest = build_manifest(model, component)
    assert manifest.lowered is lower_component(model, component)
