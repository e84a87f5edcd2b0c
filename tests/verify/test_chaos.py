"""Chaos conformance (experiment E8, PR 1 tentpole layer 4)."""

import pytest

from repro.cosim import CoSimMachine
from repro.verify import (
    chaos_build,
    chaos_sweep,
    default_hardware_for,
    reliability_marks,
    run_case,
    suite_for,
)
from repro.models import build_elevator_model, build_microwave_model

RATES = (0.0, 0.02)


class TestDefaults:
    def test_default_hardware_is_a_boundary_receiver(self):
        assert default_hardware_for(build_microwave_model()) == ("PT",)
        assert default_hardware_for(build_elevator_model()) == ("E",)

    def test_reliability_marks_cover_every_class(self):
        model = build_microwave_model()
        component = model.components[0]
        marks = reliability_marks(component, ("PT",))
        for key in component.class_keys:
            path = f"{component.name}.{key}"
            assert marks.get(path, "crc") == "crc16"
            assert marks.get(path, "isCritical") is True
        assert marks.get(f"{component.name}.PT", "isHardware") is True


class TestCoSimTarget:
    def test_suite_passes_on_cosim_without_faults(self):
        build = chaos_build("microwave", protected=False)
        for case in suite_for("microwave"):
            result = run_case(case, CoSimMachine(build))
            assert result.passed, str(result)

    def test_protected_build_also_passes_clean(self):
        build = chaos_build("microwave", protected=True)
        for case in suite_for("microwave"):
            result = run_case(case, CoSimMachine(build))
            assert result.passed, str(result)


class TestChaosSweep:
    @pytest.mark.parametrize("model_name", ["microwave", "elevator"])
    def test_protected_sweep_conformant(self, model_name):
        report = chaos_sweep(model_name, rates=RATES, seed=7,
                             protected=True)
        assert report.conformant, report.render()
        for point in report.points:
            assert point.causality_violations == 0
            assert point.fault_stats.lost == 0
            assert point.fault_stats.critical_lost == 0

    def test_unprotected_sweep_never_crashes(self):
        report = chaos_sweep("microwave", rates=(0.0, 0.02, 0.05),
                             seed=7, protected=False)
        assert not report.crashed, report.render()
        # faults visibly land on the unprotected build
        worst = report.points[-1]
        assert worst.fault_stats.injected > 0
        assert worst.fault_stats.lost > 0

    def test_sweep_reproducible_from_one_seed(self):
        def snapshot(seed):
            report = chaos_sweep("microwave", rates=RATES, seed=seed,
                                 protected=True)
            return [(point.rate, point.fault_stats.as_dict(),
                     [case.passed for case in point.cases])
                    for point in report.points]

        assert snapshot(7) == snapshot(7)
        assert snapshot(7) != snapshot(8)

    def test_zero_rate_point_injects_nothing(self):
        report = chaos_sweep("microwave", rates=(0.0,), seed=7,
                             protected=True)
        assert report.points[0].fault_stats.injected == 0

    def test_render_mentions_verdict(self):
        report = chaos_sweep("microwave", rates=(0.0,), seed=7,
                             protected=True)
        text = report.render()
        assert "CONFORMANT" in text
        assert "microwave" in text

    def test_framing_overhead_visible_on_bus(self):
        protected = chaos_sweep("microwave", rates=(0.0,), seed=7,
                                protected=True)
        plain = chaos_sweep("microwave", rates=(0.0,), seed=7,
                            protected=False)
        assert protected.points[0].bus_bytes > plain.points[0].bus_bytes
        # trailer is 4 bytes on 4-byte payloads: at most 2x, never more
        assert protected.points[0].bus_bytes \
            <= 2 * plain.points[0].bus_bytes
