"""Fault containment and liveness of the co-simulation under bus faults.

An ``ArchError`` is written off as a lost dispatch only when a corrupted
signal is among the failing dispatch's causal ancestors; any other error
is a model bug and propagates.  A frame the bus delays must not stall
the requests queued behind it.
"""

import pytest

from repro.cosim import CoSimMachine, FaultPlan, FaultRates
from repro.mda.archrt import ArchError
from repro.models import build_model
from repro.runtime import Simulation, SimulationError, check_causality
from repro.verify import run_case, suite_for
from repro.verify.chaos import case_seed, chaos_build


def suite_case(model_name, case_name):
    return next(case for case in suite_for(model_name)
                if case.name == case_name)


class TestContainment:
    def test_error_without_a_corrupted_ancestor_propagates(self):
        machine = CoSimMachine(chaos_build("checksum", protected=False),
                               fault_plan=FaultPlan(0, FaultRates(corrupt=0.5)))
        result = run_case(suite_case("checksum", "two-jobs-serialized"),
                          machine)
        assert result.passed and result.error is None
        assert machine.fault_stats.delivered_corrupted == 2
        # a model bug the corruption did not cause: J0 is J's creation
        # event, so a live J cannot consume it
        job = machine.create_instance("J")
        machine.inject(job, "J0")
        with pytest.raises(ArchError, match="can't happen"):
            machine.run()
        assert machine.fault_stats.lost == 0

    def test_error_downstream_of_corruption_stays_contained(self):
        machine = CoSimMachine(
            chaos_build("packetproc", protected=False),
            fault_plan=FaultPlan(4, FaultRates(corrupt=0.5, corrupt_bytes=2)))
        result = run_case(suite_case("packetproc", "burst-of-eight"),
                          machine)
        assert result.error is None
        stats = machine.fault_stats
        assert (stats.delivered_corrupted, stats.detected) == (2, 2)
        # two undecodable frames plus five contained dispatch errors
        assert stats.lost == 7


class TestDelayedFrames:
    def test_delayed_frame_does_not_stall_the_queued_request(self):
        case = suite_case("checksum", "two-jobs-serialized")
        machine = CoSimMachine(
            chaos_build("checksum"),
            fault_plan=FaultPlan.uniform(case_seed(16, 0.02, case.name), 0.02))
        result = run_case(case, machine)
        assert result.passed and result.error is None
        assert machine.fault_stats.injected_delays == 1
        assert machine.fault_stats.recovered == 1
        assert check_causality(machine.trace) == []

    def test_an_instant_that_names_no_later_instant_raises(self):
        class Stalled(Simulation):
            def _next_time(self):
                return self.now

        with pytest.raises(SimulationError, match="stalled at 0"):
            Stalled(build_model("microwave")).run_to_quiescence()
