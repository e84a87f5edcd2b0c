"""Scheduler legality and causality checking."""

import pytest

from repro.models import build_model, build_packetproc_model, packetproc
from repro.models.catalog import CATALOG
from repro.runtime import (
    InterleavedScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    Simulation,
    SynchronousScheduler,
    TraceKind,
    check_causality,
    check_receiver_fifo,
    check_trace,
)
from repro.verify import run_case, standard_targets, suite_for


def run_pipeline(scheduler=None, eager=False, packets=12):
    sim = Simulation(build_packetproc_model(), scheduler=scheduler,
                     eager_dispatch=eager)
    handles = packetproc.populate(sim)
    packetproc.inject_packets(sim, handles["M"], packets, length=128,
                              spacing=50)
    sim.run_to_quiescence()
    return sim, handles


ALL_SCHEDULERS = [
    lambda: SynchronousScheduler(),
    lambda: RoundRobinScheduler(),
    lambda: InterleavedScheduler(1),
    lambda: InterleavedScheduler(12345),
]


class TestSchedulerLegality:
    @pytest.mark.parametrize("factory", ALL_SCHEDULERS)
    def test_no_causality_violations(self, factory):
        sim, _handles = run_pipeline(factory())
        assert check_trace(sim.trace) == []

    @pytest.mark.parametrize("factory", ALL_SCHEDULERS)
    def test_same_per_instance_behaviour(self, factory):
        baseline, _ = run_pipeline(SynchronousScheduler())
        other, _ = run_pipeline(factory())
        assert (baseline.trace.behavioural_summary()
                == other.trace.behavioural_summary())

    @pytest.mark.parametrize("factory", ALL_SCHEDULERS)
    def test_all_packets_accounted(self, factory):
        sim, handles = run_pipeline(factory())
        assert sim.read_attribute(handles["ST"], "packets") == 12

    def test_priority_scheduler_is_legal_too(self):
        model = build_packetproc_model()
        sim = Simulation(model)
        scheduler = PriorityScheduler(
            {"CE": 5, "D": 3}, class_of_handle=sim.class_of)
        sim.scheduler = scheduler
        handles = packetproc.populate(sim)
        packetproc.inject_packets(sim, handles["M"], 8, length=96, spacing=10)
        sim.run_to_quiescence()
        assert check_trace(sim.trace) == []
        assert sim.read_attribute(handles["ST"], "packets") == 8


@pytest.mark.parametrize("model_name", [entry.name for entry in CATALOG])
def test_catalog_suites_are_causally_clean_on_every_executor(model_name):
    model = build_model(model_name)
    for case in suite_for(model_name):
        for executor in standard_targets(model):
            run_case(case, executor)
            assert check_trace(executor.trace) == [], (
                case.name, executor.name)


class TestCausalityChecker:
    def test_clean_trace_has_no_violations(self):
        sim, _ = run_pipeline()
        assert check_causality(sim.trace) == []
        assert check_receiver_fifo(sim.trace) == []

    def test_eager_dispatch_breaks_run_to_completion(self):
        sim, handles = run_pipeline(eager=True)
        violations = check_causality(sim.trace)
        assert violations, "eager dispatch must violate RTC causality"
        assert all(v.kind == "run-to-completion" for v in violations)

    def test_eager_dispatch_still_processes_packets(self):
        # the ablation breaks ordering guarantees, not the data path
        sim, handles = run_pipeline(eager=True)
        assert sim.read_attribute(handles["ST"], "packets") == 12

    def test_violation_rendering(self):
        sim, _ = run_pipeline(eager=True)
        violation = check_causality(sim.trace)[0]
        text = str(violation)
        assert "run-to-completion" in text


class TestTraceQueries:
    def test_state_history(self):
        sim, handles = run_pipeline(packets=1)
        history = sim.trace.state_history(handles["M"])
        assert history == ("Checking", "Forwarding", "Ready")

    def test_signal_labels_in_consumption_order(self):
        sim, handles = run_pipeline(packets=1)
        labels = sim.trace.signal_labels()
        assert labels[0] == "M1"
        assert "ST1" in labels

    def test_transitions_of_filters_by_handle(self):
        sim, handles = run_pipeline(packets=1)
        for event in sim.trace.transitions_of(handles["CE"]):
            assert event.data["handle"] == handles["CE"]

    def test_behavioural_summary_is_per_instance(self):
        sim, handles = run_pipeline(packets=2)
        summary = dict(sim.trace.behavioural_summary())
        assert handles["M"] in summary
        assert summary[handles["M"]][0] == ("M1", "Checking")

    def test_trace_event_str(self):
        sim, _ = run_pipeline(packets=1)
        assert "signal_sent" in str(sim.trace.of_kind(TraceKind.SIGNAL_SENT)[0])
