"""Behavioural tests of the co-simulation engine."""

import pytest

from repro.cosim import (
    US_TO_NS,
    CoSimConfig,
    CoSimMachine,
    FaultPlan,
    PacketStimulus,
    measure_partition,
    periodic_packets,
    poisson_packets,
    sweep_partitions,
)
from repro.cosim.engine import QUIESCENCE_BUDGET_US
from repro.marks import marks_for_partition
from repro.mda import CSoftwareMachine, ModelCompiler
from repro.models import (
    build_microwave_model,
    build_packetproc_model,
    build_trafficlight_model,
    packetproc,
)
from repro.obs import dump_jsonl
from repro.runtime import TraceKind
from repro.verify import run_case, suite_for
from repro.xuml import ModelBuilder


def compiled(hardware=()):
    model = build_packetproc_model()
    component = model.components[0]
    return ModelCompiler(model).compile(
        marks_for_partition(component, hardware))


def run_machine(hardware=(), packets=20, spacing=50, config=None):
    machine = CoSimMachine(compiled(hardware), config)
    handles = packetproc.populate(machine)
    for index in range(packets):
        machine.inject(handles["M"], "M1",
                       {"pkt_id": index + 1, "length": 128},
                       delay=index * spacing)
    machine.run()
    return machine, handles


class TestFunctionalCorrectness:
    def test_all_packets_processed_all_software(self):
        machine, handles = run_machine(())
        assert machine.read_attribute(handles["ST"], "packets") == 20

    def test_all_packets_processed_with_hardware(self):
        machine, handles = run_machine(("CE", "D"))
        assert machine.read_attribute(handles["ST"], "packets") == 20
        assert machine.read_attribute(handles["CE"], "encrypted") == 10

    def test_same_results_any_partition(self):
        results = []
        for hardware in [(), ("CE",), ("CE", "D"), ("CE", "CL", "D", "M",
                                                    "ST", "FR")]:
            machine, handles = run_machine(hardware)
            results.append((
                machine.read_attribute(handles["ST"], "packets"),
                machine.read_attribute(handles["ST"], "bytes_total"),
                machine.read_attribute(handles["CE"], "encrypted"),
            ))
        assert len(set(results)) == 1

    def test_boundary_traffic_counted(self):
        machine, _ = run_machine(("CE", "D"))
        # 10 crypto (CL->CE) + 10 clear (CL->D) + 20 (D->ST); the
        # CE->D hops stay inside the hardware side and never touch
        # the bus
        assert machine.bus.stats.messages == 40

    def test_no_bus_without_boundary(self):
        machine, _ = run_machine(())
        assert machine.bus.stats.messages == 0


class TestTiming:
    def test_time_advances_monotonically(self):
        machine, _ = run_machine(("CE",))
        assert machine.now > 0

    def test_cpu_busy_accounted(self):
        machine, _ = run_machine(())
        assert machine.cpu_stats.busy_ns > 0
        assert machine.cpu_stats.dispatches > 0
        assert 0 < machine.utilization_report()["cpu"] <= 1.0

    def test_hw_stats_only_for_hw_classes(self):
        machine, _ = run_machine(("CE",))
        assert machine.hw_stats["CE"].dispatches > 0
        report = machine.utilization_report()
        assert "hw:CE" in report

    def test_hardware_cheaper_per_op(self):
        sw_machine, _ = run_machine(())
        hw_machine, _ = run_machine(("CE", "CL", "D", "M", "ST", "FR"))
        # identical work, faster platform: the all-hardware makespan is
        # shorter (after the last injection at the same offset)
        assert hw_machine.now <= sw_machine.now

    def test_horizon_stops_early(self):
        machine = CoSimMachine(compiled(()))
        handles = packetproc.populate(machine)
        machine.inject(handles["M"], "M1", {"pkt_id": 1, "length": 64},
                       delay=1000)
        machine.run(horizon_us=10)
        assert machine.read_attribute(handles["ST"], "packets") == 0

    def test_quiescence_leaves_the_clock_at_the_last_event(self):
        def three_packets():
            machine = CoSimMachine(compiled(()))
            handles = packetproc.populate(machine)
            packetproc.inject_packets(machine, handles["M"], 3, length=64,
                                      spacing=20)
            return machine

        by_run = three_packets()
        by_run.run()
        machine = three_packets()
        machine.run_to_quiescence()
        assert machine.now == by_run.now == 43_680
        report = machine.utilization_report()
        assert report == by_run.utilization_report()
        assert report["cpu"] == pytest.approx(0.248, abs=0.001)

    def test_quiescence_budget_cuts_an_endless_run_at_its_horizon(self):
        model = build_microwave_model()
        machine = CoSimMachine(ModelCompiler(model).compile(
            marks_for_partition(model.components[0], ())))
        oven = machine.create_instance("MO", oven_id=1)
        machine.inject(oven, "MO1", {"seconds": 10_000})
        machine.run_to_quiescence()
        assert machine.now == QUIESCENCE_BUDGET_US * US_TO_NS
        assert machine.state_of(oven) == "Cooking"

    def test_config_injection(self):
        config = CoSimConfig(sw_ns_per_op=100, sw_dispatch_ns=1000)
        slow, _ = run_machine((), config=config)
        fast, _ = run_machine((), config=CoSimConfig(sw_ns_per_op=5,
                                                     sw_dispatch_ns=50))
        assert slow.cpu_stats.busy_ns > fast.cpu_stats.busy_ns


class TestProbes:
    """Latency and throughput as ``measure_partition`` reads them from
    the trace."""

    def test_latency_probe_counts_all(self):
        packets = [PacketStimulus(index * 10, index + 1, 64)
                   for index in range(5)]
        row = measure_partition(build_packetproc_model(), ("CE",), packets)
        assert row.completed == 5
        assert row.mean_latency_ns > 0
        assert row.p99_latency_ns >= row.mean_latency_ns * 0.5

    def test_throughput_probe(self):
        packets = [PacketStimulus(index * 100, index + 1, 64)
                   for index in range(10)]
        row = measure_partition(build_packetproc_model(), (), packets)
        assert row.completed == 10
        assert row.throughput_per_s > 0


class TestWorkloads:
    def test_poisson_reproducible(self):
        a = poisson_packets(50, 10, seed=3)
        b = poisson_packets(50, 10, seed=3)
        assert a == b
        assert a != poisson_packets(50, 10, seed=4)

    def test_poisson_rate_roughly_matches(self):
        packets = poisson_packets(2000, rate_per_ms=10, seed=1)
        span_ms = packets[-1].time_us / 1000
        rate = len(packets) / span_ms
        assert 8 < rate < 12

    def test_periodic_spacing(self):
        packets = periodic_packets(5, period_us=100)
        gaps = {b.time_us - a.time_us
                for a, b in zip(packets, packets[1:])}
        assert gaps == {100}

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_packets(1, rate_per_ms=0)


class TestSweep:
    def test_measure_partition_end_to_end(self):
        model = build_packetproc_model()
        packets = periodic_packets(30, period_us=50, length=128)
        measurement = measure_partition(model, ("CE",), packets)
        assert measurement.completed == 30
        assert measurement.hardware_classes == ("CE",)
        assert measurement.mean_latency_ns > 0
        assert measurement.label == "CE"

    def test_sweep_is_deterministic(self):
        model = build_packetproc_model()
        packets = periodic_packets(20, period_us=25, length=256)
        first = sweep_partitions(model, [(), ("CE",)], packets)
        second = sweep_partitions(model, [(), ("CE",)], packets)
        assert [m.mean_latency_ns for m in first] == [
            m.mean_latency_ns for m in second]


def _compile(model, all_hardware: bool):
    component = model.components[0]
    hardware = tuple(component.class_keys) if all_hardware else ()
    return ModelCompiler(model).compile(
        marks_for_partition(component, hardware))


def _traffic_build(all_hardware: bool):
    return _compile(build_trafficlight_model(), all_hardware)


class TestSignalsWaitInTheSharedPool:
    """The co-sim queues signals in the EventPool it drains, so timer
    cancellation and instance deletion act on what it would dispatch."""

    @pytest.mark.parametrize("all_hardware", [False, True],
                             ids=["all-software", "all-hardware"])
    def test_trafficlight_suite_passes(self, all_hardware):
        build = _traffic_build(all_hardware)
        results = [run_case(case, CoSimMachine(build))
                   for case in suite_for("trafficlight")]
        assert len(results) == 4
        assert all(result.passed for result in results), \
            [str(result) for result in results if not result.passed]

    def test_deleting_an_instance_drops_its_pending_delayed_signal(self):
        machine = CoSimMachine(_traffic_build(False))
        handle = machine.create_instance("TC")
        pending = machine.inject(handle, "T1", delay=1_000)
        machine.delete_instance(handle)
        machine.run()
        (deleted,) = machine.trace.of_kind(TraceKind.INSTANCE_DELETED)
        assert deleted.data["pending_dropped"] >= 1
        consumed = {event.data["sequence"] for event
                    in machine.trace.of_kind(TraceKind.SIGNAL_CONSUMED)}
        assert pending.sequence not in consumed

    def test_timer_started_and_cancelled_in_one_activity_never_fires(self):
        model = build_alarm_model()
        sw_build = _compile(model, all_hardware=False)
        hw_build = _compile(model, all_hardware=True)
        machines = (CSoftwareMachine(sw_build.manifest),
                    CoSimMachine(sw_build), CoSimMachine(hw_build))
        for machine in machines:
            alarm = machine.create_instance("AL", al_id=1)
            machine.inject(alarm, "ARM")
        machines[0].run_to_quiescence()
        for machine in machines[1:]:
            machine.run()
        for machine in machines:
            assert machine.state_of(alarm) == "Armed"
            assert machine.read_attribute(alarm, "cancelled") == 1
            assert (machine.trace.behavioural_summary()
                    == machines[0].trace.behavioural_summary())


def build_alarm_model():
    """One activity that starts a timer and cancels it straight away."""
    builder = ModelBuilder("Alarm")
    component = builder.component("c")
    tim = component.ext("TIM")
    tim.bridge("timer_start", params=[("duration", "integer"),
                                      ("event", "string")],
               returns="integer")
    tim.bridge("timer_cancel", params=[("event", "string")],
               returns="integer")
    alarm = component.klass("Alarm", "AL")
    alarm.attr("al_id", "unique_id")
    alarm.attr("cancelled", "integer")
    alarm.event("ARM")
    alarm.event("RING")
    alarm.state("Idle", 1)
    alarm.state("Armed", 2, activity="""
        started = TIM::timer_start(duration: 1000, event: "RING");
        self.cancelled = TIM::timer_cancel(event: "RING");
    """)
    alarm.state("Ringing", 3)
    alarm.trans("Idle", "ARM", "Armed")
    alarm.trans("Armed", "RING", "Ringing")
    return builder.build()


class TestRunSurface:
    """The co-sim runs itself: callers need no wrapper around it."""

    def _microwave_build(self):
        model = build_microwave_model()
        return ModelCompiler(model).compile(
            marks_for_partition(model.components[0], ("PT",)))

    def test_direct_calls_equal_the_runner(self):
        build = self._microwave_build()
        case = next(case for case in suite_for("microwave")
                    if case.name == "door-open-pauses-cooking")
        by_runner = CoSimMachine(build)
        assert run_case(case, by_runner).passed
        machine = CoSimMachine(build)
        oven = machine.create_instance("MO", oven_id=1)
        tube = machine.create_instance("PT", tube_id=1)
        machine.relate(oven, tube, "R1")
        machine.inject(oven, "MO1", {"seconds": 10})
        machine.run_until(2_500_000)
        assert machine.now == 2_500_000 * US_TO_NS
        assert machine.state_of(oven) == "Cooking"
        machine.inject(oven, "MO2")
        assert machine.run_to_quiescence() > 0
        assert machine.state_of(oven) == "Paused"
        machine.inject(oven, "MO3")
        machine.run_to_quiescence()
        assert machine.state_of(oven) == "Complete"
        assert dump_jsonl(machine.trace) == dump_jsonl(by_runner.trace)

    def test_name_marks_a_faulted_platform(self):
        build = self._microwave_build()
        assert CoSimMachine(build).name == "cosim"
        faulted = CoSimMachine(build, fault_plan=FaultPlan.uniform(7, 0.0))
        assert faulted.name == "cosim/faulted"


def operation_sender_model():
    """A's instance operation sends B1 to B; A's state calls it."""
    builder = ModelBuilder("OpSend")
    component = builder.component("c")
    sender = component.klass("Sender", "A", 1)
    sender.event("A1")
    sender.operation("poke", """
        select any b from instances of B;
        generate B1:B() to b;
    """)
    sender.state("Idle", 1)
    sender.state("Poked", 2, activity="me = self; me.poke();")
    sender.trans("Idle", "A1", "Poked")
    receiver = component.klass("Receiver", "B", 2)
    receiver.attr("hits", "integer")
    receiver.event("B1")
    receiver.state("Waiting", 1)
    receiver.state("Hit", 2, activity="self.hits = self.hits + 1;")
    receiver.trans("Waiting", "B1", "Hit")
    return builder.build()


class TestOperationSends:
    """A send from an operation body crosses the boundary like one from
    a state activity: the interface has its message and the bus carries
    it."""

    @pytest.fixture(scope="class")
    def build(self):
        model = operation_sender_model()
        return ModelCompiler(model).compile(
            marks_for_partition(model.components[0], ("B",)))

    def test_boundary_lists_the_operation_send(self, build):
        assert [str(flow) for flow in build.partition.boundary_flows] \
            == ["A --B1--> B"]
        message = build.interface.message_for("B", "B1")
        assert (message.sender_class, message.direction) == ("A", "sw_to_hw")

    def test_cosim_delivers_over_the_bus(self, build):
        machine = CoSimMachine(build)
        sender = machine.create_instance("A")
        receiver = machine.create_instance("B")
        machine.inject(sender, "A1")
        machine.run()
        assert machine.state_of(receiver) == "Hit"
        assert machine.read_attribute(receiver, "hits") == 1
        assert machine.bus.stats.messages == 1
