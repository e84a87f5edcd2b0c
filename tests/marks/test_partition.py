"""Unit tests for partition derivation and signal-flow discovery."""

from repro.marks import (
    MarkSet,
    all_partitions,
    derive_partition,
    marks_for_partition,
    signal_flows,
)
from repro.models import build_packetproc_model


def model_and_component():
    model = build_packetproc_model()
    return model, model.components[0]


class TestSignalFlows:
    def test_pipeline_flows_discovered(self):
        model, component = model_and_component()
        flows = signal_flows(model, component)
        pairs = {(f.sender_class, f.receiver_class, f.event_label)
                 for f in flows}
        assert ("M", "CL", "CL1") in pairs
        assert ("CL", "CE", "CE1") in pairs
        assert ("CL", "D", "D1") in pairs
        assert ("CE", "D", "D1") in pairs
        assert ("D", "ST", "ST1") in pairs

    def test_self_flows_included(self):
        model, component = model_and_component()
        flows = signal_flows(model, component)
        assert any(f.sender_class == f.receiver_class for f in flows)

    def test_flows_deterministic_order(self):
        model, component = model_and_component()
        assert signal_flows(model, component) == signal_flows(model, component)


class TestDerivePartition:
    def test_all_software_by_default(self):
        model, component = model_and_component()
        partition = derive_partition(model, component, MarkSet())
        assert partition.is_pure_software
        assert partition.boundary_flows == ()

    def test_marked_classes_go_hardware(self):
        model, component = model_and_component()
        marks = MarkSet()
        marks.set("soc.CE", "isHardware", True)
        partition = derive_partition(model, component, marks)
        assert partition.hardware_classes == ("CE",)
        assert partition.side_of("CE") == "hw"
        assert partition.side_of("M") == "sw"

    def test_boundary_is_cross_side_flows_only(self):
        model, component = model_and_component()
        marks = marks_for_partition(component, ("CE", "D"))
        partition = derive_partition(model, component, marks)
        boundary = {(f.sender_class, f.receiver_class)
                    for f in partition.boundary_flows}
        assert boundary == {("CL", "CE"), ("CL", "D"), ("D", "ST")}
        internal = {(f.sender_class, f.receiver_class)
                    for f in partition.internal_flows}
        assert ("CE", "D") in internal    # both in hardware

    def test_describe_renders(self):
        model, component = model_and_component()
        marks = marks_for_partition(component, ("CE",))
        text = derive_partition(model, component, marks).describe()
        assert "hardware: CE" in text

    def test_side_of_unknown_class_raises(self):
        model, component = model_and_component()
        partition = derive_partition(model, component, MarkSet())
        import pytest
        with pytest.raises(KeyError):
            partition.side_of("XX")


class TestPartitionEnumeration:
    def test_all_partitions_count(self):
        _model, component = model_and_component()
        candidates = all_partitions(component)
        assert len(candidates) == 2 ** len(component.class_keys)
        assert candidates[0] == ()

    def test_marks_for_partition_are_explicit_everywhere(self):
        _model, component = model_and_component()
        marks = marks_for_partition(component, ("CE",))
        explicit = {mark.element_path for mark in marks.marks
                    if mark.name == "isHardware"}
        assert explicit == {f"soc.{key}" for key in component.class_keys}

    def test_marks_for_partition_preserves_base(self):
        _model, component = model_and_component()
        base = MarkSet()
        base.set("soc.CE", "clock_mhz", 400)
        marks = marks_for_partition(component, ("CE",), base=base)
        assert marks.get("soc.CE", "clock_mhz") == 400
        assert base.get("soc.CE", "isHardware") is False   # base untouched
