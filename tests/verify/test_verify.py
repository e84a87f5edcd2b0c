"""Tests of the verification harness itself."""

import pytest

from repro.mda.csim import CSoftwareMachine
from repro.mda.vsim import VHardwareMachine
from repro.models import build_microwave_model
from repro.runtime import Simulation
from repro.verify import (
    TestCase,
    check_conformance,
    run_case,
    standard_targets,
    suite_for,
)


@pytest.fixture
def model():
    return build_microwave_model()


def cook_case():
    return (
        TestCase("cook")
        .create("oven", "MO", oven_id=1)
        .inject("oven", "MO1", {"seconds": 1})
        .run()
        .expect_state("oven", "Complete")
    )


class TestRunner:
    def test_passing_case(self, model):
        result = run_case(cook_case(), Simulation(model))
        assert result.passed
        assert "PASS" in str(result)

    def test_failing_assertion_collected_not_raised(self, model):
        case = (
            TestCase("wrong-state")
            .create("oven", "MO", oven_id=1)
            .inject("oven", "MO1", {"seconds": 1})
            .run()
            .expect_state("oven", "Idle")
            .expect_attr("oven", "cycles_run", 99)
        )
        result = run_case(case, Simulation(model))
        assert not result.passed
        assert len(result.failures) == 2
        assert "FAIL" in str(result)

    def test_platform_error_captured(self, model):
        case = (
            TestCase("cant-happen")
            .create("oven", "MO", oven_id=1)
            .inject("oven", "MO5")       # can't happen in Idle
            .run()
        )
        result = run_case(case, Simulation(model))
        assert not result.passed
        assert "CantHappenError" in result.error

    def test_unknown_binding_reported(self, model):
        case = TestCase("bad").inject("ghost", "MO1")
        result = run_case(case, Simulation(model))
        assert result.error is not None

    def test_expect_count(self, model):
        case = (
            TestCase("count")
            .create("oven", "MO", oven_id=1)
            .expect_count("MO", 1)
            .expect_count("PT", 0)
        )
        assert run_case(case, Simulation(model)).passed

    def test_advance_step(self, model):
        case = (
            TestCase("timed")
            .create("oven", "MO", oven_id=1)
            .inject("oven", "MO1", {"seconds": 5})
            .advance(2_000_000)
            .expect_state("oven", "Cooking")
        )
        assert run_case(case, Simulation(model)).passed

    def test_run_suite_sequential(self, model):
        sim = Simulation(model)
        results = [run_case(case, sim) for case in [cook_case()]]
        assert all(r.passed for r in results)


class TestTargets:
    def test_standard_targets_cover_three_platforms(self, model):
        targets = standard_targets(model)
        names = [t.name for t in targets]
        assert names == ["abstract-model", "generated-c", "generated-vhdl"]

    def test_same_case_passes_everywhere(self, model):
        for target in standard_targets(model):
            assert run_case(cook_case(), target).passed, target.name

    def test_csim_is_a_target(self, model):
        from repro.marks import marks_for_partition
        from repro.mda import ModelCompiler
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, ()))
        result = run_case(cook_case(), CSoftwareMachine(build.manifest))
        assert result.passed
        assert result.target_name == "generated-c"

    def test_vsim_is_a_target(self, model):
        from repro.marks import marks_for_partition
        from repro.mda import ModelCompiler
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, tuple(component.class_keys)))
        machine = VHardwareMachine(build.manifest, clock_mhz=25)
        result = run_case(cook_case(), machine)
        assert result.passed
        assert result.target_name == "generated-vhdl"


class TestConformanceReport:
    def test_report_structure(self, model):
        report = check_conformance(model, [cook_case()])
        assert report.conformant
        assert report.pass_rate() == 1.0
        assert len(report.cases) == 1
        assert len(report.cases[0].results) == 3
        assert "CONFORMANT" in report.render()

    def test_divergence_detected(self, model):
        # an intentionally wrong expectation fails on every platform but
        # still counts as non-conformant overall
        bad = (
            TestCase("bad")
            .create("oven", "MO", oven_id=1)
            .inject("oven", "MO1", {"seconds": 1})
            .run()
            .expect_state("oven", "Paused")
        )
        report = check_conformance(model, [bad])
        assert not report.conformant
        assert report.pass_rate() == 0.0

    def test_all_catalog_suites_exist(self):
        for name in ("microwave", "trafficlight", "packetproc",
                     "elevator", "checksum"):
            assert suite_for(name)

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            suite_for("nope")
