"""Unit tests for the C and VHDL text generators."""

import pytest

from repro.marks import marks_for_partition
from repro.mda import CGenerator, ModelCompiler, VhdlGenerator, build_manifest
from repro.models import (
    build_microwave_model,
    build_packetproc_model,
    build_trafficlight_model,
)


@pytest.fixture(scope="module")
def microwave():
    model = build_microwave_model()
    manifest = build_manifest(model, model.components[0])
    return model, manifest


class TestCGenerator:
    def test_types_header(self, microwave):
        _model, manifest = microwave
        text = CGenerator(manifest).emit_types_header()
        assert "typedef uint32_t instance_handle_t;" in text
        assert "CLASS_MO = 1," in text
        assert "CLASS_PT = 2," in text

    def test_class_header_declares_tables(self, microwave):
        _model, manifest = microwave
        text = CGenerator(manifest).emit_class_header(manifest.klass("MO"))
        assert "MO_STATE_IDLE = 1," in text
        assert "MO_EV_MO1" in text
        assert "typedef struct mo_mo1_params" in text
        assert "int32_t seconds;" in text
        assert "mo_data_t *mo_data(instance_handle_t inst);" in text

    def test_class_source_dispatch_shape(self, microwave):
        _model, manifest = microwave
        text = CGenerator(manifest).emit_class_source(manifest.klass("MO"))
        assert "void mo_dispatch(" in text
        assert "case MO_STATE_IDLE:" in text
        assert "switch (event) {" in text
        assert "self_data->state = MO_STATE_PREPARING;" in text
        assert "mo_enter_preparing(inst, params);" in text
        assert "/* ignored */" in text
        assert "rt_cant_happen(inst, (int)event);" in text

    def test_entry_actions_lower_generate_and_select(self, microwave):
        _model, manifest = microwave
        text = CGenerator(manifest).emit_class_source(manifest.klass("MO"))
        assert "rt_generate(CLASS_MO, MO_EV_MO5" in text
        assert "rt_navigate_set(" in text
        assert "rt_generate(CLASS_PT, PT_EV_PT1" in text

    def test_delayed_generate_carries_delay(self, microwave):
        _model, manifest = microwave
        text = CGenerator(manifest).emit_class_source(manifest.klass("MO"))
        assert "1000000" in text      # the one-second tick

    def test_kernel_queue_discipline_documented(self, microwave):
        _model, manifest = microwave
        text = CGenerator(manifest).emit_kernel_source()
        assert "self_queue_head" in text
        assert "kernel_next" in text
        assert "run to completion" in text

    def test_attribute_access_resolves_variable_class(self):
        # Stats writes rec.packets where rec is a FlowRecord: the
        # accessor must use fr_data, not st_data
        model = build_packetproc_model()
        manifest = build_manifest(model, model.components[0])
        text = CGenerator(manifest).emit_class_source(manifest.klass("ST"))
        assert "fr_data(rec)->packets" in text

    def test_bridge_result_local_takes_declared_return_type(self):
        # TIM::timer_start and timer_cancel are declared to return an
        # integer: the locals holding their results are int32_t
        model = build_trafficlight_model()
        manifest = build_manifest(model, model.components[0])
        text = CGenerator(manifest).emit_class_source(manifest.klass("TC"))
        assert "    int32_t started = 0;" in text
        assert "    int32_t cancelled = 0;" in text
        assert "double started" not in text


class TestVhdlGenerator:
    def test_entity_ports(self, microwave):
        _model, manifest = microwave
        text = VhdlGenerator(manifest).emit_entity(manifest.klass("PT"))
        assert "entity power_tube is" in text
        assert "clk          : in  std_logic;" in text
        assert "architecture rtl of power_tube is" in text

    def test_fsm_case_structure(self, microwave):
        _model, manifest = microwave
        text = VhdlGenerator(manifest).emit_entity(manifest.klass("PT"))
        assert "type state_t is (st_off, st_energized);" in text
        assert "case current_state is" in text
        assert "when st_off =>" in text
        assert "current_state <= st_energized;" in text
        assert "end case;" in text

    def test_attributes_become_registers(self, microwave):
        _model, manifest = microwave
        text = VhdlGenerator(manifest).emit_entity(manifest.klass("PT"))
        assert "signal r_watts : signed(31 downto 0);" in text

    def test_clock_generic_from_marks(self, microwave):
        _model, manifest = microwave
        text = VhdlGenerator(manifest).emit_entity(
            manifest.klass("PT"), clock_mhz=250)
        assert "CLOCK_MHZ : natural := 250" in text

    def test_ignored_events_are_null(self, microwave):
        _model, manifest = microwave
        text = VhdlGenerator(manifest).emit_entity(manifest.klass("PT"))
        assert "null;  -- ignored" in text

    def test_runtime_package(self, microwave):
        _model, manifest = microwave
        text = VhdlGenerator(manifest).emit_runtime_package()
        assert "package control_rt_pkg is" in text
        assert "MAX_INSTANCES" in text


class TestCompilerAssembly:
    def test_rules_applied_recorded(self):
        model = build_packetproc_model()
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, ("CE",)))
        assert build.rules_applied["CE"] == "hardware-class"
        assert build.rules_applied["M"] == "software-class"

    def test_artifact_sets_follow_partition(self):
        model = build_packetproc_model()
        component = model.components[0]
        compiler = ModelCompiler(model)
        all_sw = compiler.compile(marks_for_partition(component, ()))
        assert not all_sw.vhdl_artifacts or set(
            all_sw.vhdl_artifacts) == {"soc_interface_pkg.vhd"}
        all_hw = compiler.compile(
            marks_for_partition(component, tuple(component.class_keys)))
        assert not any(p.endswith(".c") for p in all_hw.artifacts)

    def test_marking_file_snapshot_included(self):
        model = build_packetproc_model()
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, ("CE",)))
        assert "soc.CE isHardware = True" in build.artifacts["marks.mks"]

    def test_write_to_disk(self, tmp_path):
        model = build_microwave_model()
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, ("PT",)))
        written = build.write_to(tmp_path)
        assert len(written) == len(build.artifacts)
        assert (tmp_path / "marks.mks").exists()

    def test_write_to_is_atomic(self, tmp_path, monkeypatch):
        """An export interrupted mid-file leaves no partial artifact —
        the target is either absent or carries complete prior text."""
        import os

        model = build_microwave_model()
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, ("PT",)))
        victim = sorted(build.artifacts)[3]

        real_replace = os.replace

        def exploding_replace(src, dst):
            if str(dst).endswith(victim):
                raise KeyboardInterrupt("simulated ctrl-C mid-export")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", exploding_replace)
        try:
            build.write_to(tmp_path)
        except KeyboardInterrupt:
            pass
        monkeypatch.undo()

        # the interrupted artifact never appeared, not even truncated,
        # and no temp droppings remain
        assert not (tmp_path / victim).exists()
        assert not [p for p in tmp_path.iterdir()
                    if p.name.startswith(".")]
        # everything that did land is complete
        for path in tmp_path.iterdir():
            assert path.read_text() == build.artifacts[path.name]

    def test_write_to_overwrites_previous_export(self, tmp_path):
        model = build_microwave_model()
        component = model.components[0]
        compiler = ModelCompiler(model)
        compiler.compile(
            marks_for_partition(component, ())).write_to(tmp_path)
        retargeted = compiler.compile(
            marks_for_partition(component, ("PT",)))
        retargeted.write_to(tmp_path)
        assert (tmp_path / "marks.mks").read_text() == \
            retargeted.artifacts["marks.mks"]

    def test_lines_for_class(self):
        model = build_packetproc_model()
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, ("CE",)))
        assert build.lines_for_class("CE") > 20    # the VHDL entity
        assert build.lines_for_class("M") > 40     # the C source


def shared_names_model():
    """A and B both declare ``poke``; C calls B's through a selected
    reference and writes B's ``m`` through a reference-typed local."""
    from repro.xuml import ModelBuilder

    builder = ModelBuilder("Owners")
    component = builder.component("c")
    for key, number in (("A", 1), ("B", 2)):
        klass = component.klass(f"Class{key}", key, number)
        klass.attr("m", "integer")
        klass.operation("poke", f"self.m = {number};")
    caller = component.klass("Caller", "C", 3)
    caller.attr("m", "integer")
    caller.event("GO", params=[("target", "inst_ref<B>")])
    caller.state("Idle", 1)
    caller.state("Ran", 2, activity="""
        select any b from instances of B;
        b.poke();
        x = param.target;
        x.m = 5;
    """)
    caller.trans("Idle", "GO", "Ran")
    return builder.build()


class TestAnalyzedTypes:
    """The C printer takes classes from the analyzer's types: an
    expression's class is its type's, never the printing class's."""

    @pytest.fixture(scope="class")
    def build(self):
        model = shared_names_model()
        component = model.components[0]
        return ModelCompiler(model).compile(marks_for_partition(component, ()))

    def test_instance_operation_calls_the_targets_class(self, build):
        text = build.artifacts["c_c.c"]
        assert "(void)b_op_poke(b);" in text
        assert "a_op_poke" not in text

    def test_reference_typed_local_writes_its_class(self, build):
        text = build.artifacts["c_c.c"]
        assert "b_data(x)->m = 5;" in text
        assert "c_data(x)" not in text

    def test_both_stay_gcc_clean(self, build):
        assert build.lint() == []


def string_compare_model():
    """G compares its string attribute with an event's string parameter."""
    from repro.xuml import ModelBuilder

    builder = ModelBuilder("Names")
    component = builder.component("c")
    greeter = component.klass("Greeter", "G", 1)
    greeter.attr("name", "string")
    greeter.attr("hits", "integer")
    greeter.event("GO", params=[("who", "string")])
    greeter.state("Idle", 1)
    greeter.state("Checked", 2, activity="""
        if (self.name == param.who)
            self.hits = self.hits + 1;
        end if;
        if (param.who != "")
            self.hits = self.hits + 10;
        end if;
        if (self.name < param.who)
            self.hits = self.hits + 100;
        end if;
    """)
    greeter.trans("Idle", "GO", "Checked")
    greeter.trans("Checked", "GO", "Checked")
    return builder.build()


class TestStringComparison:
    """A string comparison compares the text, as every executor does,
    not the pointers."""

    @pytest.fixture(scope="class")
    def model(self):
        return string_compare_model()

    def test_c_compares_with_strcmp(self, model):
        build = ModelCompiler(model).compile(
            marks_for_partition(model.components[0], ()))
        text = build.artifacts["c_g.c"]
        assert "#include <string.h>" in text
        assert ("(strcmp(g_data(self_inst)->name, params_view->who) == 0)"
                in text)
        assert '(strcmp(params_view->who, "") != 0)' in text
        assert "(strcmp(g_data(self_inst)->name, params_view->who) < 0)" \
            in text
        assert build.lint() == []

    def test_systemc_compares_with_strcmp(self, model):
        from repro.marks import MarkSet
        from repro.mda.rules import RuleSet
        from repro.mda.syscgen import SYSTEMC_RULE

        marks = MarkSet()
        marks.set("c.G", "processor", "systemc")
        build = ModelCompiler(
            model, rules=RuleSet.standard().prepend(SYSTEMC_RULE)).compile(marks)
        text = build.artifacts["greeter_sc.h"]
        assert "#include <cstring>" in text
        assert "(strcmp(name, params_view->who) == 0)" in text
        assert build.lint() == []

    @pytest.mark.parametrize("platform", ["abstract", "csim"])
    def test_executors_compare_the_text(self, model, platform):
        from repro.mda import CSoftwareMachine
        from repro.runtime import Simulation

        executor = (Simulation(model) if platform == "abstract" else
                    CSoftwareMachine(build_manifest(model, model.components[0])))
        handle = executor.create_instance("G", name="".join(["a", "b"]))
        executor.inject(handle, "GO", {"who": "ab"})
        executor.run_to_quiescence()
        assert executor.read_attribute(handle, "hits") == 11
