"""End-to-end integration: the whole paper workflow in one test file."""

import pytest

from repro.baselines import price_repartition, run_generated_flow, run_parallel_teams
from repro.cosim import measure_partition, periodic_packets, sweep_partitions
from repro.marks import (
    MarkSet,
    derive_partition,
    marks_for_partition,
    partition_change_cost,
    validate_marks,
)
from repro.mda import CSoftwareMachine, InterfaceCodec, ModelCompiler, VHardwareMachine
from repro.models import all_models, build_packetproc_model, packetproc
from repro.runtime import Simulation, check_trace
from repro.verify import check_conformance, suite_for


class TestPaperWorkflow:
    """Sections 1-5 of the paper as one executable narrative."""

    def test_full_workflow(self):
        # Section 2: model once, execute without implementation detail
        model = build_packetproc_model()
        simulation = Simulation(model)
        handles = packetproc.populate(simulation)
        packetproc.inject_packets(simulation, handles["M"], 10, length=256)
        simulation.run_to_quiescence()
        assert simulation.read_attribute(handles["ST"], "packets") == 10
        assert check_trace(simulation.trace) == []

        # Section 3: marks, outside the model
        component = model.components[0]
        marks = MarkSet()
        marks.set("soc.CE", "isHardware", True)
        marks.set("soc.CE", "clock_mhz", 200)
        assert validate_marks(marks, model) == []
        partition = derive_partition(model, component, marks)
        assert partition.hardware_classes == ("CE",)

        # Section 4: one spec, two generated halves, zero lint findings
        build = ModelCompiler(model).compile(marks)
        assert build.lint() == []
        c_codec = InterfaceCodec.from_artifact(
            build.artifacts["soc_interface.h"])
        v_codec = InterfaceCodec.from_artifact(
            build.artifacts["soc_interface_pkg.vhd"])
        assert c_codec.layouts == v_codec.layouts

        # Section 1's complaint, measured: the co-simulated prototype
        row = measure_partition(model, ("CE",), periodic_packets(
            10, period_us=20, length=256))
        assert row.completed == 10

        # Section 4 again: repartition = move the marks
        new_marks = marks_for_partition(component, ("CE", "D"), base=marks)
        assert partition_change_cost(marks, new_marks) >= 1
        rebuild = ModelCompiler(model).compile(new_marks)
        assert rebuild.partition.hardware_classes == ("CE", "D")


class TestCrossPlatformAgreement:
    @pytest.mark.parametrize("name", ["microwave", "trafficlight",
                                      "packetproc", "elevator", "checksum"])
    def test_every_model_fully_conformant(self, name):
        model = all_models()[name]
        report = check_conformance(model, suite_for(name))
        assert report.conformant, report.render()

    def test_three_platforms_agree_on_packet_counts(self):
        model = build_packetproc_model()
        component = model.components[0]
        compiler = ModelCompiler(model)
        counts = []
        platforms = [
            Simulation(model),
            CSoftwareMachine(compiler.compile(
                marks_for_partition(component, ())).manifest),
            VHardwareMachine(compiler.compile(
                marks_for_partition(
                    component, tuple(component.class_keys))).manifest,
                clock_mhz=100),
        ]
        for platform in platforms:
            handles = packetproc.populate(platform)
            packetproc.inject_packets(platform, handles["M"], 12, length=96)
            platform.run_to_quiescence()
            counts.append(platform.read_attribute(handles["ST"], "packets"))
        assert counts == [12, 12, 12]


class TestMeasurementDrivesDecision:
    def test_sweep_winner_beats_all_software_under_load(self):
        model = build_packetproc_model()
        packets = periodic_packets(120, period_us=4, length=1024)
        rows = sweep_partitions(model, [(), ("CE", "D")], packets)
        all_sw, offloaded = rows
        assert offloaded.mean_latency_ns < all_sw.mean_latency_ns

    def test_repartition_cost_is_marks_not_code(self):
        model = build_packetproc_model()
        cost = price_repartition(model, (), ("CE", "D"))
        assert cost.mark_flips == 2
        assert cost.impl_first_total > 100


class TestInterfaceConsistencyStory:
    def test_generated_never_drifts_manual_does(self):
        model = build_packetproc_model()
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, ("CE", "D")))
        manual_defects = sum(
            run_parallel_teams(build.interface, 40, 0.25, seed=s).defect_count
            for s in range(6))
        generated_defects = sum(
            run_generated_flow(build.interface, 40, seed=s).defect_count
            for s in range(6))
        assert manual_defects > 0
        assert generated_defects == 0
