"""Tests of the verification harness itself."""

import pytest

from repro.mda import ModelCompiler
from repro.mda.csim import CSoftwareMachine
from repro.mda.vsim import VHardwareMachine
from repro.models import build_microwave_model, build_model
from repro.runtime import Simulation
from repro.verify import conformance
from repro.verify import (
    TestCase,
    check_conformance,
    run_case,
    standard_targets,
    suite_for,
)


CATALOG_NAMES = ("microwave", "trafficlight", "packetproc", "elevator",
                 "checksum")


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

    @pytest.mark.parametrize("count", [1, 4])
    def test_one_manifest_per_model(self, model, monkeypatch, count):
        compile_calls, manifest_calls = [], []
        compile_ = ModelCompiler.compile
        build_manifest = conformance.build_manifest

        def compiling(compiler, marks):
            compile_calls.append(marks)
            return compile_(compiler, marks)

        def building(*args):
            manifest_calls.append(args)
            return build_manifest(*args)

        monkeypatch.setattr(ModelCompiler, "compile", compiling)
        monkeypatch.setattr(conformance, "build_manifest", building)
        report = check_conformance(model, [cook_case()] * count)
        assert len(report.cases) == count
        assert compile_calls == []
        assert len(manifest_calls) == 1

    def test_every_case_runs_on_fresh_executors(self, model, monkeypatch):
        seen = []
        run = conformance.run_case

        def recording(case, target):
            seen.append((target, len(target.trace)))
            return run(case, target)

        monkeypatch.setattr(conformance, "run_case", recording)
        check_conformance(model, [cook_case()] * 3)
        assert len({id(target) for target, _ in seen}) == len(seen) == 9
        assert all(records == 0 for _, records in seen)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_report_matches_per_case_targets(self, name):
        # each case on the executors of its own standard_targets() call,
        # as every case was run before the builds were shared
        model = build_model(name)
        cases = suite_for(name)
        report = check_conformance(model, cases)
        for case, row in zip(cases, report.cases, strict=True):
            targets = standard_targets(model)
            assert row.results == [run_case(case, t) for t in targets]
            summaries = {t.trace.behavioural_summary() == targets[0].trace
                         .behavioural_summary() for t in targets}
            assert row.summaries_equal == (summaries == {True})

    def test_all_catalog_suites_exist(self):
        for name in CATALOG_NAMES:
            assert suite_for(name)

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            suite_for("nope")
