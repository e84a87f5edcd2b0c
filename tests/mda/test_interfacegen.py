"""Unit tests for the interface generator and byte codecs."""

import pytest

from repro.marks import marks_for_partition
from repro.mda import (
    InterfaceCodec,
    InterfaceError,
    ModelCompiler,
    build_interface_spec,
    build_manifest,
)
from repro.marks.partition import derive_partition
from repro.models import build_packetproc_model


@pytest.fixture(scope="module")
def spec():
    model = build_packetproc_model()
    component = model.components[0]
    manifest = build_manifest(model, component)
    marks = marks_for_partition(component, ("CE", "D"))
    partition = derive_partition(model, component, marks)
    return build_interface_spec(manifest, partition)


class TestSpecDerivation:
    def test_one_message_per_boundary_event(self, spec):
        names = {m.name for m in spec.messages}
        assert names == {"ce_ce1", "d_d1", "st_st1"}

    def test_message_ids_deterministic(self, spec):
        ids = [m.message_id for m in spec.messages]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_every_message_carries_target_instance(self, spec):
        for message in spec.messages:
            assert message.fields[0].name == "target_instance"
            assert message.fields[0].offset_bits == 0

    def test_fields_packed_contiguously(self, spec):
        message = spec.message_for("CE", "CE1")
        offsets = [f.offset_bits for f in message.fields]
        widths = [f.width_bits for f in message.fields]
        for i in range(1, len(offsets)):
            assert offsets[i] == offsets[i - 1] + widths[i - 1]

    def test_payload_padded_to_words(self, spec):
        for message in spec.messages:
            assert message.payload_bytes % 4 == 0

    def test_direction_follows_receiver_side(self, spec):
        assert spec.message_for("CE", "CE1").direction == "sw_to_hw"
        assert spec.message_for("ST", "ST1").direction == "hw_to_sw"

    def test_unknown_message_raises(self, spec):
        with pytest.raises(InterfaceError):
            spec.message_for("CE", "NOPE")


class TestEmission:
    def test_c_header_has_guard_ids_and_structs(self, spec):
        header = spec.emit_c_header()
        assert "#ifndef SOC_INTERFACE_H" in header
        assert "#define MSG_ID_CE_CE1 1" in header
        assert "typedef struct ce_ce1_msg" in header
        assert "LAYOUT-MSG ce_ce1" in header

    def test_vhdl_package_mirrors_ids(self, spec):
        package = spec.emit_vhdl_package()
        assert "constant MSG_ID_CE_CE1 : integer := 1;" in package
        assert "type ce_ce1_msg_t is record" in package
        assert "LAYOUT-MSG ce_ce1" in package

    def test_both_artifacts_carry_identical_layout_tables(self, spec):
        c_layout = InterfaceCodec.from_artifact(spec.emit_c_header()).layouts
        v_layout = InterfaceCodec.from_artifact(
            spec.emit_vhdl_package()).layouts
        assert c_layout == v_layout


class TestCodec:
    @pytest.fixture(scope="class")
    def codec(self, spec):
        return InterfaceCodec.from_artifact(spec.emit_c_header())

    def test_pack_unpack_roundtrip(self, codec):
        values = {"target_instance": 3, "pkt_id": -5, "length": 1500,
                  "flow": 2}
        payload = codec.pack("ce_ce1", values)
        assert codec.unpack("ce_ce1", payload) == values

    def test_negative_integers_twos_complement(self, codec):
        payload = codec.pack("d_d1", {"target_instance": 1, "pkt_id": -1,
                                      "length": 0, "flow": 0})
        assert codec.unpack("d_d1", payload)["pkt_id"] == -1

    def test_payload_length_checked(self, codec):
        with pytest.raises(InterfaceError):
            codec.unpack("ce_ce1", b"\x00" * 3)

    def test_missing_field_rejected(self, codec):
        with pytest.raises(InterfaceError):
            codec.pack("ce_ce1", {"target_instance": 1})

    def test_unknown_message_rejected(self, codec):
        with pytest.raises(InterfaceError):
            codec.pack("nope", {})
        with pytest.raises(InterfaceError):
            codec.unpack("nope", b"")

    def test_message_id_lookup(self, codec):
        assert codec.message_id("ce_ce1") == 1


class TestEmptyBoundary:
    def test_pure_software_yields_empty_interface(self):
        model = build_packetproc_model()
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, ()))
        assert build.interface.messages == ()
        header = build.interface.emit_c_header()
        assert "#ifndef" in header     # still a valid artifact
