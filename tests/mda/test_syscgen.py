"""Tests of the SystemC mapping extension.

The point under test is paper section 3's retargeting claim: a third
implementation technology is added by *prepending one rule* and marking
elements — no model change, no metamodel change.
"""

import pytest

from repro.marks import MarkSet, marks_for_partition
from repro.mda import (
    ModelCompiler,
    RuleSet,
    SYSTEMC_RULE,
    SystemCGenerator,
    build_manifest,
)
from repro.models import (
    CATALOG,
    all_models,
    build_microwave_model,
    build_packetproc_model,
)


def systemc_rules() -> RuleSet:
    return RuleSet.standard().prepend(SYSTEMC_RULE)


class TestRuleSelection:
    def test_processor_mark_selects_systemc(self):
        rules = systemc_rules()
        marks = MarkSet()
        marks.set("soc.CE", "processor", "systemc")
        assert rules.resolve("soc.CE", marks).target == "systemc"

    def test_is_hardware_still_wins_nothing_marked(self):
        rules = systemc_rules()
        marks = MarkSet()
        marks.set("soc.CE", "isHardware", True)
        # hardware rule comes after the systemc rule but the systemc
        # rule does not match, so VHDL still applies
        assert rules.resolve("soc.CE", marks).target == "vhdl"

    def test_default_still_software(self):
        assert systemc_rules().resolve("soc.M", MarkSet()).target == "c"


class TestEmission:
    @pytest.fixture(scope="class")
    def module_text(self):
        model = build_microwave_model()
        manifest = build_manifest(model, model.components[0])
        return SystemCGenerator(manifest).emit_module(manifest.klass("MO"))

    def test_sc_module_shape(self, module_text):
        assert "SC_MODULE(microwave_oven)" in module_text
        assert "SC_CTOR(microwave_oven)" in module_text
        assert "SC_METHOD(step);" in module_text
        assert "sensitive << clk.pos();" in module_text

    def test_state_enum_and_dispatch(self, module_text):
        assert "ST_IDLE = 1," in module_text
        assert "switch (current_state) {" in module_text
        assert "current_state = ST_PREPARING;" in module_text
        assert "enter_preparing();" in module_text

    def test_entry_actions_emitted(self, module_text):
        assert "void enter_cooking()" in module_text
        assert "remaining_seconds = (remaining_seconds - 1);" in module_text

    def test_structurally_clean(self, module_text):
        # g++ compiles the module against a stub <systemc.h>
        model = build_microwave_model()
        marks = MarkSet()
        marks.set("control.MO", "processor", "systemc")
        build = ModelCompiler(model, rules=systemc_rules()).compile(marks)
        assert build.artifacts["microwave_oven_sc.h"] == module_text
        assert build.lint() == []


class TestCompilerIntegration:
    def test_three_target_build(self):
        model = build_packetproc_model()
        component = model.components[0]
        marks = marks_for_partition(component, ("CE",))
        marks.set("soc.D", "processor", "systemc")
        build = ModelCompiler(model, rules=systemc_rules()).compile(marks)
        assert build.rules_applied["CE"] == "hardware-class"
        assert build.rules_applied["D"] == "systemc-class"
        assert build.rules_applied["M"] == "software-class"
        assert "dma_engine_sc.h" in build.artifacts
        assert "crypto_engine.vhd" in build.artifacts
        assert "soc_m.c" in build.artifacts

    def test_retargeting_is_marks_only(self):
        # the same model compiles to three different technology mixes
        # with zero model edits — only the sticky notes change
        model = build_packetproc_model()
        component = model.components[0]
        compiler = ModelCompiler(model, rules=systemc_rules())
        plain = compiler.compile(marks_for_partition(component, ()))
        marked = marks_for_partition(component, ())
        marked.set("soc.CE", "processor", "systemc")
        retargeted = compiler.compile(marked)
        assert "crypto_engine_sc.h" in retargeted.artifacts
        assert "crypto_engine_sc.h" not in plain.artifacts


@pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
def test_every_class_compiles_as_systemc(name):
    model = all_models()[name]
    component = model.components[0]
    marks = MarkSet()
    for key in component.class_keys:
        marks.set(f"{component.name}.{key}", "processor", "systemc")
    build = ModelCompiler(model, rules=systemc_rules()).compile(marks)
    assert sum(p.endswith("_sc.h") for p in build.artifacts) == len(
        component.class_keys)
    assert build.lint() == []
