"""Tests of the target-architecture simulators (csim / vsim / archrt)."""

import pytest

from repro.cosim import CoSimMachine
from repro.marks import marks_for_partition
from repro.mda import (
    ArchError,
    CSoftwareMachine,
    ModelCompiler,
    VHardwareMachine,
    build_manifest,
)
from repro.mda.archrt import TargetMachine
from repro.models import (
    build_checksum_model,
    build_microwave_model,
    build_packetproc_model,
    checksum,
    fletcher_reference,
    packetproc,
)
from repro.oal import OALRuntimeError
from repro.runtime import Simulation, SimulationError, TraceKind
from repro.runtime.dispatcher import Dispatcher
from repro.xuml import ModelBuilder


def manifest_of(model):
    return build_manifest(model, model.components[0])


def build_pinger_model():
    """One instance that pings itself forever."""
    builder = ModelBuilder("Pinger")
    component = builder.component("c")
    pinger = component.klass("Pinger", "PG")
    pinger.attr("pg_id", "unique_id")
    pinger.attr("pings", "integer")
    pinger.event("PING")
    pinger.state("Pinging", 1, activity="""
        self.pings = self.pings + 1;
        generate PING:PG() to self;
    """)
    pinger.trans("Pinging", "PING", "Pinging")
    return builder.build()


#: every executor, and the error it raises
EXECUTORS = {"abstract": SimulationError, "csim": ArchError,
             "vsim": ArchError, "cosim": ArchError}


def executor_for(name: str, model):
    """A fresh *name* executor of *model* (vsim clocked at 1 MHz)."""
    if name == "abstract":
        return Simulation(model)
    if name == "csim":
        return CSoftwareMachine(manifest_of(model))
    if name == "vsim":
        return VHardwareMachine(manifest_of(model), clock_mhz=1)
    return CoSimMachine(ModelCompiler(model).compile(
        marks_for_partition(model.components[0], ())))


class TestCSoftwareMachine:
    def test_microwave_cook_cycle(self):
        machine = CSoftwareMachine(manifest_of(build_microwave_model()))
        oven = machine.create_instance("MO", oven_id=1)
        tube = machine.create_instance("PT", tube_id=1)
        machine.relate(oven, tube, "R1")
        machine.inject(oven, "MO1", {"seconds": 2})
        machine.run_to_quiescence()
        assert machine.state_of(oven) == "Complete"
        assert machine.state_of(tube) == "Off"
        assert machine.read_attribute(oven, "cycles_run") == 1
        assert machine.now == 2_000_000

    def test_matches_abstract_runtime_exactly(self):
        model = build_packetproc_model()
        abstract = Simulation(model)
        handles_a = packetproc.populate(abstract)
        packetproc.inject_packets(abstract, handles_a["M"], 15, length=200,
                                  spacing=100)
        abstract.run_to_quiescence()

        machine = CSoftwareMachine(manifest_of(model))
        handles_c = packetproc.populate(machine)
        packetproc.inject_packets(machine, handles_c["M"], 15, length=200,
                                  spacing=100)
        machine.run_to_quiescence()

        assert (machine.trace.behavioural_summary()
                == abstract.trace.behavioural_summary())
        for key in ("M", "CL", "CE", "D", "ST"):
            assert machine.state_of(handles_c[key]) == abstract.state_of(
                handles_a[key])

    def test_operations_compute_identically(self):
        machine = CSoftwareMachine(manifest_of(build_checksum_model()))
        machine.create_instance("AC", engine_id=1)
        machine.send_creation("J", "J0",
                              {"job_id": 1, "length": 64, "seed": 3})
        machine.run_to_quiescence()
        job = machine.instances_of("J")[0]
        assert machine.read_attribute(job, "result") == fletcher_reference(
            64, 3)

    def test_cant_happen_raises(self):
        machine = CSoftwareMachine(manifest_of(build_microwave_model()))
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO5")      # no Idle entry
        with pytest.raises(ArchError):
            machine.run_to_quiescence()

    def test_log_and_metrics_collected(self):
        machine = CSoftwareMachine(manifest_of(build_microwave_model()))
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 1})
        machine.run_to_quiescence()
        assert any(event.data["message"] == "ding"
                   for event in machine.trace.of_kind(TraceKind.LOG))

    def test_ops_counter_increases(self):
        machine = CSoftwareMachine(manifest_of(build_microwave_model()))
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 1})
        machine.run_to_quiescence()
        assert machine.ops_executed > 10


class TestVHardwareMachine:
    def test_clock_scales_delays(self):
        machine = VHardwareMachine(manifest_of(build_microwave_model()),
                                   clock_mhz=100)
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 1})
        machine.run_to_quiescence()
        assert machine.state_of(oven) == "Complete"
        # one second at 100 MHz = 1e8 cycles (plus pipeline edges)
        assert machine.cycle >= 100_000_000

    def test_bad_clock_rejected(self):
        with pytest.raises(ArchError):
            VHardwareMachine(manifest_of(build_microwave_model()),
                             clock_mhz=0)

    def test_cycle_is_the_clock(self):
        machine = VHardwareMachine(manifest_of(build_microwave_model()))
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 0})
        machine.tick()
        machine.run_until(3)
        assert machine.cycle == machine.now == 300
        with pytest.raises(AttributeError):
            machine.cycle = 0

    def test_quiescence_counts_active_edges_on_the_shared_loop(self):
        assert (VHardwareMachine.__dict__["run_to_quiescence"]
                is TargetMachine.run_to_quiescence)
        assert VHardwareMachine.__dict__["run_until"] is Dispatcher.run_until
        assert CSoftwareMachine.__dict__["run_until"] is Dispatcher.run_until
        machine = VHardwareMachine(manifest_of(build_microwave_model()))
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 1})
        edges = machine.run_to_quiescence()
        assert machine.state_of(oven) == "Complete"
        # idle edges are skipped: a handful of active ones in 1e8 cycles
        assert 0 < edges < 10
        assert machine.step() is False

    def test_run_that_never_quiesces_raises(self):
        machine = VHardwareMachine(manifest_of(build_pinger_model()))
        handle = machine.create_instance("PG", pg_id=1)
        machine.inject(handle, "PING")
        with pytest.raises(ArchError, match="no quiescence within 50 steps"):
            machine.run_to_quiescence(max_steps=50)
        assert machine.read_attribute(handle, "pings") == 50

    def test_registered_outputs_take_one_edge(self):
        machine = VHardwareMachine(manifest_of(build_microwave_model()),
                                   clock_mhz=1)
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 0})
        # edge 1 consumes MO1 and *registers* MO5; edge 2 consumes MO5
        machine.tick()
        assert machine.state_of(oven) == "Preparing"
        machine.tick()
        assert machine.state_of(oven) == "Cooking"

    def test_an_output_registered_for_the_horizon_edge_is_consumed(self):
        machine = VHardwareMachine(manifest_of(build_microwave_model()),
                                   clock_mhz=1)
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 0})
        # edge 0 consumes MO1 and registers MO5 for edge 1, the horizon
        machine.run_until(1)
        assert machine.state_of(oven) == "Cooking"

    def test_behaviour_matches_abstract(self):
        model = build_packetproc_model()
        abstract = Simulation(model)
        handles_a = packetproc.populate(abstract)
        packetproc.inject_packets(abstract, handles_a["M"], 10, length=100,
                                  spacing=20)
        abstract.run_to_quiescence()

        machine = VHardwareMachine(manifest_of(model), clock_mhz=50)
        handles_v = packetproc.populate(machine)
        packetproc.inject_packets(machine, handles_v["M"], 10, length=100,
                                  spacing=20)
        machine.run_to_quiescence()
        assert (machine.trace.behavioural_summary()
                == abstract.trace.behavioural_summary())

    def test_run_until_converts_microseconds(self):
        machine = VHardwareMachine(manifest_of(build_microwave_model()),
                                   clock_mhz=10)
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 3})
        machine.run_until(1_500_000)     # 1.5 s into a 3 s cook
        assert machine.state_of(oven) == "Cooking"
        machine.run_until(4_000_000)
        assert machine.state_of(oven) == "Complete"


class TestArchRuntimeDetails:
    def test_multiplicity_enforced(self):
        machine = CSoftwareMachine(manifest_of(build_microwave_model()))
        oven_a = machine.create_instance("MO", oven_id=1)
        oven_b = machine.create_instance("MO", oven_id=2)
        tube = machine.create_instance("PT", tube_id=1)
        machine.relate(oven_a, tube, "R1")
        with pytest.raises(ArchError):
            machine.relate(oven_b, tube, "R1")

    def test_delete_clears_links_and_events(self):
        machine = CSoftwareMachine(manifest_of(build_microwave_model()))
        oven = machine.create_instance("MO", oven_id=1)
        tube = machine.create_instance("PT", tube_id=1)
        machine.relate(oven, tube, "R1")
        machine.inject(tube, "PT1")
        machine.delete_instance(tube)
        machine.run_to_quiescence()    # dropped, no error
        assert machine.navigate(oven, "R1", "PT") == ()

    def test_unknown_instance_raises(self):
        machine = CSoftwareMachine(manifest_of(build_microwave_model()))
        with pytest.raises(ArchError):
            machine.state_of(99)

    def test_timer_bridge_in_architecture(self):
        # the trafficlight model uses TIM::timer_start/cancel
        from repro.models import build_trafficlight_model
        machine = CSoftwareMachine(
            manifest_of(build_trafficlight_model()))
        tc = machine.create_instance("TC", controller_id=1)
        machine.inject(tc, "T1")
        machine.run_until(36_000_000)
        assert machine.state_of(tc) == "AllRedToEW"


class TestSharedTimeAdvance:
    """One time-advance loop, so one boundary rule on every executor."""

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_run_until_into_the_past_raises_the_host_error(self, name):
        executor = executor_for(name, build_microwave_model())
        executor.run_until(10)
        with pytest.raises(EXECUTORS[name], match="cannot run backwards"):
            executor.run_until(5)

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_an_event_due_at_the_horizon_is_consumed(self, name):
        executor = executor_for(name, build_microwave_model())
        oven = executor.create_instance("MO", oven_id=1)
        executor.inject(oven, "MO1", {"seconds": 1}, delay=1_000)
        executor.run_until(1_000)
        consumed = [event.data["label"] for event in
                    executor.trace.of_kind(TraceKind.SIGNAL_CONSUMED)]
        assert consumed[:1] == ["MO1"]
        assert executor.state_of(oven) != "Idle"

    @pytest.mark.parametrize("name", ["abstract", "csim", "vsim"])
    def test_run_until_raises_after_exactly_max_steps(self, name):
        executor = executor_for(name, build_pinger_model())
        handle = executor.create_instance("PG", pg_id=1)
        executor.inject(handle, "PING")
        with pytest.raises(EXECUTORS[name], match="within 50 steps"):
            executor.run_until(1_000_000, max_steps=50)
        assert executor.read_attribute(handle, "pings") == 50

    def test_cosim_step_is_one_instant(self):
        machine = executor_for("cosim", build_microwave_model())
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 1})
        assert machine.step() is True
        assert machine.state_of(oven) == "Preparing"
        # MO1's activity holds the CPU: nothing more can start at time 0
        assert machine.step() is False
        assert machine.now == 0
        machine.run_to_quiescence()
        assert machine.state_of(oven) == "Complete"


class TestOneParameterRule:
    """The activity reads the signal's own parameters on every executor,
    so a missing one is the same typed error everywhere."""

    @pytest.mark.parametrize("name,error", [
        ("abstract", OALRuntimeError), ("csim", ArchError), ("vsim", ArchError),
    ])
    def test_a_missing_event_parameter_raises_the_host_error(
            self, name, error):
        executor = executor_for(name, build_microwave_model())
        oven = executor.create_instance("MO", oven_id=1)
        executor.inject(oven, "MO1")
        with pytest.raises(error,
                           match="event carries no parameter 'seconds'"):
            executor.run_to_quiescence()


class TestOneStore:
    """One instance-and-link store, so one storage rule on every executor."""

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_an_unknown_creation_attribute_raises(self, name):
        executor = executor_for(name, build_microwave_model())
        with pytest.raises(EXECUTORS[name], match="bogus"):
            executor.create_instance("MO", bogus=1)

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_a_failed_creation_uses_no_handle_and_leaves_no_instance(
            self, name):
        executor = executor_for(name, build_microwave_model())
        with pytest.raises(EXECUTORS[name]):
            executor.create_instance("MO", bogus=1)
        tube = executor.create_instance("PT")
        assert tube == 1
        assert executor.class_of(tube) == "PT"
        assert executor.instances_of("MO") == ()
        created = executor.trace.of_kind(TraceKind.INSTANCE_CREATED)
        assert [event.data["class_key"] for event in created] == ["PT"]

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_relating_one_class_across_a_non_reflexive_association_raises(
            self, name):
        executor = executor_for(name, build_microwave_model())
        first = executor.create_instance("MO", oven_id=1)
        second = executor.create_instance("MO", oven_id=2)
        with pytest.raises(EXECUTORS[name], match="R1"):
            executor.relate(first, second, "R1")
        assert executor.navigate(first, "R1", "PT") == ()

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_a_signal_to_a_live_instance_of_another_class_raises(self, name):
        executor = executor_for(name, build_microwave_model())
        executor.create_instance("MO", oven_id=1)
        tube = executor.create_instance("PT", tube_id=1)
        executor.send_signal(tube, "MO", "MO1", {"seconds": 1})
        with pytest.raises(EXECUTORS[name], match=r"MO\.MO1.*a live PT"):
            executor.run_to_quiescence()

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_a_navigation_with_a_wrong_phrase_raises_the_host_error(
            self, name):
        executor = executor_for(name, build_microwave_model())
        oven = executor.create_instance("MO", oven_id=1)
        with pytest.raises(EXECUTORS[name], match="bogus"):
            executor.navigate(oven, "R1", "PT", phrase="bogus")

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_a_navigation_from_the_wrong_class_raises_the_host_error(
            self, name):
        executor = executor_for(name, build_microwave_model())
        oven = executor.create_instance("MO", oven_id=1)
        with pytest.raises(EXECUTORS[name], match="R1"):
            executor.navigate(oven, "R1", "MO")

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_an_unknown_association_raises_the_host_error(self, name):
        executor = executor_for(name, build_microwave_model())
        oven = executor.create_instance("MO", oven_id=1)
        tube = executor.create_instance("PT", tube_id=1)
        for misuse in (lambda: executor.relate(oven, tube, "R99"),
                       lambda: executor.unrelate(oven, tube, "R99"),
                       lambda: executor.navigate(oven, "R99", "PT")):
            with pytest.raises(EXECUTORS[name], match="R99"):
                misuse()
