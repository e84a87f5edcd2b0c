"""Fault injection: the verification net actually catches compiler bugs.

E3/E7 passing would be vacuous if they could not fail.  These tests
sabotage the build artifacts the way a buggy emitter would — wrong
transition target, dropped action, corrupted interface layout — and
assert the conformance machinery reports each fault.
"""

import copy

import pytest

from repro.marks import marks_for_partition
from repro.mda import (
    CSoftwareMachine,
    InterfaceCodec,
    ModelCompiler,
    build_manifest,
)
from repro.models import build_microwave_model
from repro.runtime import Simulation
from repro.verify import TestCase, run_case
from repro.verify.suites import microwave_suite


def fresh_manifest():
    model = build_microwave_model()
    return model, build_manifest(model, model.components[0])


def cook_case():
    return (
        TestCase("cook")
        .create("oven", "MO", oven_id=1)
        .create("tube", "PT", tube_id=1)
        .relate("oven", "tube", "R1")
        .inject("oven", "MO1", {"seconds": 2})
        .run()
        .expect_state("oven", "Complete")
        .expect_attr("oven", "cycles_run", 1)
    )


class TestManifestFaults:
    def test_wrong_transition_target_detected(self):
        _model, manifest = fresh_manifest()
        bad = copy.deepcopy(manifest)
        # a miswired table: MO1 in Idle goes straight to Complete
        bad.lowered.responses["MO", "Idle", "MO1"] = "Complete"
        result = run_case(cook_case(), CSoftwareMachine(bad))
        assert not result.passed

    def test_dropped_action_statement_detected(self):
        _model, manifest = fresh_manifest()
        bad = copy.deepcopy(manifest)
        # the emitter "forgot" the Preparing entry action entirely
        bad.lowered.activities["MO", "Preparing"] = []
        result = run_case(cook_case(), CSoftwareMachine(bad))
        assert not result.passed        # cycles_run never incremented

    def test_off_by_one_in_lowered_constant_detected(self):
        _model, manifest = fresh_manifest()
        bad = copy.deepcopy(manifest)

        def bump_ints(node):
            if not isinstance(node, list):
                return
            if node and node[0] == "int":
                node[1] = node[1] + 1
                return
            for piece in node:
                bump_ints(piece)
        bump_ints(bad.lowered.activities["MO", "Preparing"])
        result = run_case(cook_case(), CSoftwareMachine(bad))
        assert not result.passed

    def test_ignore_flipped_to_transition_diverges_traces(self):
        model, manifest = fresh_manifest()
        bad = copy.deepcopy(manifest)
        # door traffic in Idle now bounces the machine through Paused
        bad.lowered.responses["MO", "Idle", "MO3"] = "Paused"

        case = (
            TestCase("door-noise")
            .create("oven", "MO", oven_id=1)
            .inject("oven", "MO3")
            .run()
            .expect_state("oven", "Idle")
        )
        good = run_case(case, CSoftwareMachine(copy.deepcopy(manifest)))
        assert good.passed
        result = run_case(case, CSoftwareMachine(bad))
        assert not result.passed

    def test_pristine_manifest_passes_everything(self):
        _model, manifest = fresh_manifest()
        for case in microwave_suite():
            assert run_case(case, CSoftwareMachine(
                copy.deepcopy(manifest))).passed


class TestInterfaceFaults:
    @pytest.fixture()
    def build(self):
        # the packet processor's boundary messages carry several fields,
        # so offset/width corruption has somewhere to land
        from repro.models import build_packetproc_model
        model = build_packetproc_model()
        component = model.components[0]
        return ModelCompiler(model).compile(
            marks_for_partition(component, ("CE", "D")))

    def test_corrupted_offset_breaks_byte_agreement(self, build):
        c_header = build.artifacts["soc_interface.h"]
        vhdl_pkg = build.artifacts["soc_interface_pkg.vhd"]
        # a hand-edit (the thing generation forbids) on one side only
        sabotaged = c_header.replace("offset=32", "offset=40", 1)
        assert sabotaged != c_header
        c_codec = InterfaceCodec.from_artifact(sabotaged)
        v_codec = InterfaceCodec.from_artifact(vhdl_pkg)
        assert c_codec.layouts != v_codec.layouts
        # and the disagreement is visible in the bytes, not just tables
        name = "ce_ce1"
        values = {f[0]: 3 for f in v_codec.layouts[name][2]}
        assert c_codec.pack(name, values) != v_codec.pack(name, values)

    def test_corrupted_width_refuses_large_values(self, build):
        c_header = build.artifacts["soc_interface.h"]
        sabotaged = c_header.replace("width=32", "width=16", 1)
        good = InterfaceCodec.from_artifact(c_header)
        bad = InterfaceCodec.from_artifact(sabotaged)
        name = "ce_ce1"
        values = {f[0]: 0x123456 for f in good.layouts[name][2]}
        good.pack(name, values)                   # fits in 32 bits
        with pytest.raises(OverflowError):
            bad.pack(name, values)                # no longer fits in 16

    def test_renumbered_id_detected(self, build):
        c_header = build.artifacts["soc_interface.h"]
        sabotaged = c_header.replace("id=1", "id=7", 1)
        good = InterfaceCodec.from_artifact(c_header)
        bad = InterfaceCodec.from_artifact(sabotaged)
        assert good.message_id("ce_ce1") != bad.message_id("ce_ce1")
