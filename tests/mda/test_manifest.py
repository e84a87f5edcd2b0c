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
        oven = manifest.klass("MO")
        assert oven.initial_state == "Idle"
        assert oven.transitions[("Idle", "MO1")] == "Preparing"
        assert oven.response("Idle", "MO2") == "ignore"
        assert oven.response("Idle", "MO5") == "cant_happen"
        assert oven.response("Idle", "MO1") == "transition"

    def test_attributes_with_defaults(self, manifest):
        tube = manifest.klass("PT")
        defaults = {name: default for name, _t, default in tube.attributes}
        assert defaults["watts"] == 900
        assert defaults["energize_count"] == 0

    def test_activities_lowered(self, manifest):
        oven = manifest.klass("MO")
        assert oven.activities["Idle"]          # non-empty IR
        assert all(isinstance(stmt, list) for stmt in oven.activities["Idle"])

    def test_events_with_params(self, manifest):
        oven = manifest.klass("MO")
        assert oven.events["MO1"].params == [("seconds", "integer")]
        assert not oven.events["MO1"].creation

    def test_associations_serialized(self, manifest):
        one, other, link = manifest.associations["R1"]
        assert {one[0], other[0]} == {"MO", "PT"}
        assert link is None

    def test_creation_transitions(self):
        model = build_checksum_model()
        manifest = build_manifest(model, model.components[0])
        job = manifest.klass("J")
        assert job.creations == {"J0": "Submitted"}
        assert job.events["J0"].creation

    def test_operations_lowered(self):
        model = build_checksum_model()
        manifest = build_manifest(model, model.components[0])
        engine = manifest.klass("AC")
        fletcher = engine.operations["fletcher"]
        assert fletcher.returns == "integer"
        assert fletcher.instance_based
        assert fletcher.ir
        census = engine.operations["engines_available"]
        assert not census.instance_based


@pytest.mark.parametrize("name", sorted(all_models()))
def test_manifest_ir_is_the_lowering_cache_ir(name):
    """The manifest shares the cached lowering: one IR, not a copy."""
    model = build_model(name)
    component = model.components[0]
    manifest = build_manifest(model, component)
    lowered = lower_component(model, component)
    blocks = 0
    for key, klass in manifest.classes.items():
        for state, block in klass.activities.items():
            assert block is lowered.activities[(key, state)]
            blocks += 1
        for op_name, operation in klass.operations.items():
            assert operation.ir is lowered.operations[(key, op_name)]
            blocks += 1
        for attribute, block in klass.derived.items():
            assert block is lowered.derived[(key, attribute)]
            blocks += 1
    assert blocks == (len(lowered.activities) + len(lowered.operations)
                      + len(lowered.derived))
