"""Unit tests for the unified execution core (:mod:`repro.exec`)."""

import pytest

from repro.exec import (
    CORE_NAME,
    IRExecutor,
    c_div,
    c_mod,
    clear_lowering_cache,
    lower_component,
    lowering_cache_stats,
)
from repro.oal.errors import OALRuntimeError
from repro.runtime import Simulation
from repro.xuml import ModelBuilder


def build_counter_model():
    builder = ModelBuilder("M")
    component = builder.component("c")
    counter = component.klass("Counter", "CN")
    counter.attr("cn_id", "unique_id")
    counter.attr("n", "integer")
    counter.event("GO", params=[("a", "integer")])
    counter.state("Idle", 1)
    counter.state("Ran", 2, activity="self.n = param.a * 2;")
    counter.trans("Idle", "GO", "Ran")
    return builder.build()


class TestCValues:
    def test_c_div_truncates_toward_zero(self):
        assert c_div(7, 2) == 3
        assert c_div(-7, 2) == -3
        assert c_div(7, -2) == -3
        assert c_div(-7, -2) == 3

    def test_c_mod_sign_follows_dividend(self):
        assert c_mod(7, 2) == 1
        assert c_mod(-7, 2) == -1
        assert c_mod(7, -2) == 1
        assert c_mod(-7, -2) == -1

    def test_division_by_zero_raises(self):
        with pytest.raises(OALRuntimeError):
            c_div(1, 0)
        with pytest.raises(OALRuntimeError):
            c_mod(1, 0)


class TestSingleDefinitions:
    """The satellite fixes: one c_div/c_mod, one control-flow family."""

    def test_runtime_reexports_the_core_cvalues(self):
        from repro import runtime

        assert runtime.c_div is c_div
        assert runtime.c_mod is c_mod

    def test_ast_tree_walker_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.runtime.interpreter  # noqa: F401

    def test_actionir_shim_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.mda.actionir  # noqa: F401

    def test_archrt_no_longer_imports_from_runtime_interpreter(self):
        import repro.mda.archrt as archrt

        # the duplicated private control-flow classes are gone too
        for name in ("_Break", "_Continue", "_Return", "_Frame"):
            assert not hasattr(archrt, name)

    def test_walker_names_left_the_core(self):
        import repro.exec as core

        # the dict-dispatch walker and its control-flow signals live
        # only in the pinned oracle (tests/exec/pinned_ir_interpreter.py)
        for name in ("Frame", "BreakSignal", "ContinueSignal",
                     "ReturnSignal"):
            assert name not in core.__all__
            assert not hasattr(core, name)
        with pytest.raises(ModuleNotFoundError):
            import repro.exec.controlflow  # noqa: F401
        walker_methods = [name for name in vars(IRExecutor)
                          if name.startswith(("_stmt_", "_expr_", "_exec"))]
        assert walker_methods == []


class TestExecutorErrorsArePluggable:
    def test_custom_error_type_is_raised(self):
        class HostError(Exception):
            pass

        executor = IRExecutor(error=HostError)
        with pytest.raises(HostError):
            executor.run(None, [["exprstmt", ["var", "never_assigned"]]],
                         None, {})

    def test_run_returns_return_value(self):
        executor = IRExecutor()
        assert executor.run(None, [["return", ["int", 42]]], None, {}) == 42

    def test_ops_executed_counts_statements(self):
        executor = IRExecutor()
        executor.run(None, [["assign_var", "x", ["int", 1]],
                            ["assign_var", "y", ["int", 2]]], None, {})
        assert executor.ops_executed == 2

    def test_ops_executed_is_exact_when_a_statement_raises(self):
        executor = IRExecutor()
        with pytest.raises(OALRuntimeError, match="read before assignment"):
            executor.run(None, [["assign_var", "x", ["int", 1]],
                                ["exprstmt", ["var", "never_assigned"]],
                                ["assign_var", "y", ["int", 2]]], None, {})
        assert executor.ops_executed == 2

    def test_remainder_by_zero_raises_the_host_error(self):
        class HostError(Exception):
            pass

        executor = IRExecutor(error=HostError)
        for op, message in (("/", "integer division by zero"),
                            ("%", "integer remainder by zero")):
            with pytest.raises(HostError, match=message):
                executor.run(None, [["return", ["bin", op, ["int", 1],
                                                ["int", 0]]]], None, {})


class TestCompiledBlocks:
    """Each block is compiled once, lazily, and shared by content."""

    def test_construction_compiles_nothing(self):
        from repro.exec import codegen

        clear_lowering_cache()
        Simulation(build_counter_model())
        assert codegen._by_content == {}
        assert codegen._by_identity == {}

    def test_first_run_compiles_and_later_runs_reuse(self):
        from repro.exec import codegen

        clear_lowering_cache()
        block = [["return", ["int", 1]]]
        function = codegen.compiled(block)
        assert codegen.compiled(block) is function
        # an equal block (a manifest reloaded from the store) shares it
        assert codegen.compiled([["return", ["int", 1]]]) is function
        assert len(codegen._by_content) == 1

    def test_clear_lowering_cache_drops_compiled_code(self):
        from repro.exec import codegen

        block = [["return", ["int", 2]]]
        function = codegen.compiled(block)
        clear_lowering_cache()
        assert codegen._by_content == {} and codegen._by_identity == {}
        assert codegen.compiled(block) is not function

    def test_distinct_types_do_not_share_code(self):
        from repro.exec import codegen

        executor = IRExecutor()
        for literal, expected in ((["int", 1], 1), (["bool", True], True),
                                  (["real", 1.0], 1.0)):
            value = executor.run(None, [["return", literal]], None, {})
            assert value == expected and type(value) is type(expected)
        assert len({codegen.compiled([["return", literal]]) for literal in
                    (["int", 1], ["bool", True], ["real", 1.0])}) == 3

    def test_generated_source_never_names_oal_variables(self):
        import re

        from repro.exec.codegen import _Generator

        source = _Generator().source([["assign_var", "ﬁ", ["int", 1]],
                               ["assign_var", "x²", ["var", "ﬁ"]],
                               ["return", ["var", "x²"]]])
        compile(source, "<test>", "exec")
        without_strings = re.sub(r"'[^']*'|\"[^\"]*\"", "", source)
        assert "ﬁ" not in without_strings and "x²" not in without_strings


class TestLoweringCache:
    def test_identical_models_share_one_lowering(self):
        clear_lowering_cache()
        model_a = build_counter_model()
        model_b = build_counter_model()
        lowered_a = lower_component(model_a, model_a.components[0])
        lowered_b = lower_component(model_b, model_b.components[0])
        assert lowered_a is lowered_b
        stats = lowering_cache_stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_simulation_construction_hits_the_cache(self):
        clear_lowering_cache()
        Simulation(build_counter_model())
        Simulation(build_counter_model())
        stats = lowering_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_model_compiler_lowers_through_the_cache_once(self):
        from repro.marks.partition import marks_for_partition
        from repro.mda.compiler import ModelCompiler

        clear_lowering_cache()
        model = build_counter_model()
        component = model.components[0]
        compiler = ModelCompiler(model)
        compiler.compile(marks_for_partition(component, ()))
        assert lowering_cache_stats()["misses"] == 1
        compiler.compile(marks_for_partition(component, ("CN",)))
        stats = lowering_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] > 0


class TestExecutionCoreIdentity:
    def test_simulation_reports_the_shared_core(self):
        sim = Simulation(build_counter_model())
        assert CORE_NAME in sim.execution_core

    def test_target_machine_reports_the_shared_core(self):
        from repro.marks.partition import marks_for_partition
        from repro.mda.compiler import ModelCompiler
        from repro.mda.csim import CSoftwareMachine

        model = build_counter_model()
        marks = marks_for_partition(model.components[0], ())
        build = ModelCompiler(model).compile(marks)
        machine = CSoftwareMachine(build.manifest)
        assert CORE_NAME in machine.execution_core

    def test_both_layers_execute_through_one_evaluator_class(self):
        from repro.marks.partition import marks_for_partition
        from repro.mda.compiler import ModelCompiler
        from repro.mda.csim import CSoftwareMachine

        model = build_counter_model()
        sim = Simulation(model)
        marks = marks_for_partition(model.components[0], ())
        build = ModelCompiler(model).compile(marks)
        machine = CSoftwareMachine(build.manifest)
        assert type(sim.executor) is type(machine.executor) is IRExecutor

    def test_ops_executed_counts_on_both_layers(self):
        model = build_counter_model()
        sim = Simulation(model)
        handle = sim.create_instance("CN", cn_id=1)
        sim.inject(handle, "GO", {"a": 3})
        sim.run_to_quiescence()
        assert sim.ops_executed > 0
        assert sim.read_attribute(handle, "n") == 6


class TestCheckCommandReportsCore(object):
    def test_check_prints_execution_core(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.xuml.serialize import model_to_dict

        path = tmp_path / "m.json"
        path.write_text(json.dumps(model_to_dict(build_counter_model())))
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"execution core: {CORE_NAME}" in out
