"""Incremental recompilation — byte-identity and strict reuse.

The acceptance bar: a warm-cache single-mark retarget produces artifacts
byte-identical to a cold full build while recompiling strictly fewer
classes.  Checked here over every catalog model, not just one.
"""

import pytest

from repro.build import (
    ArtifactStore,
    IncrementalCompiler,
    clear_manifest_memo,
)
from repro.marks import marks_for_partition
from repro.mda import ModelCompiler
from repro.models import all_models, build_model


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_manifest_memo()
    yield
    clear_manifest_memo()


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(all_models()))
    def test_cold_incremental_matches_model_compiler(self, name, tmp_path):
        model = build_model(name)
        component = model.components[0]
        hardware = (sorted(component.class_keys)[0],)
        marks = marks_for_partition(component, hardware)
        gold = ModelCompiler(model).compile(marks)
        cached = IncrementalCompiler(
            model, store=ArtifactStore(tmp_path)).compile(marks)
        assert cached.artifacts == gold.artifacts
        assert cached.rules_applied == gold.rules_applied
        assert cached.partition.hardware_classes == \
            gold.partition.hardware_classes

    @pytest.mark.parametrize("name", sorted(all_models()))
    def test_warm_retarget_matches_cold_build(self, name, tmp_path):
        model = build_model(name)
        component = model.components[0]
        keys = sorted(component.class_keys)
        store = ArtifactStore(tmp_path)
        compiler = IncrementalCompiler(model, store=store)
        compiler.compile(marks_for_partition(component, (keys[0],)))
        # the paper's operation: move the mark to another class
        moved = marks_for_partition(component, (keys[-1],))
        warm = compiler.compile(moved)
        gold = ModelCompiler(model).compile(moved)
        assert warm.artifacts == gold.artifacts

    def test_warm_build_survives_process_restart(self, tmp_path):
        """A fresh compiler over the same store (as a new process would
        build) serves the identical bytes fully from cache."""
        model = build_model("microwave")
        component = model.components[0]
        marks = marks_for_partition(component, ("PT",))
        store = ArtifactStore(tmp_path)
        IncrementalCompiler(model, store=store).compile(marks)

        clear_manifest_memo()  # nothing left in process memory
        fresh_store = ArtifactStore(tmp_path)
        fresh = IncrementalCompiler(build_model("microwave"),
                                    store=fresh_store)
        warm = fresh.compile(marks)
        assert warm.artifacts == \
            ModelCompiler(model).compile(marks).artifacts
        assert fresh.last_stats.fully_cached
        assert fresh.last_stats.manifest_reused

    def test_reused_compiler_sees_a_model_edit(self, tmp_path):
        model = build_model("microwave")
        marks = marks_for_partition(model.components[0], ("PT",))
        compiler = IncrementalCompiler(model, store=ArtifactStore(tmp_path))
        before = compiler.compile(marks)
        state = model.components[0].klass("MO").statemachine.state("Idle")
        state.activity += '\nLOG::info(message: "edited");'
        after = compiler.compile(marks)
        assert after.artifacts != before.artifacts
        assert after.artifacts == ModelCompiler(model).compile(marks).artifacts


class TestStrictReuse:
    def test_single_mark_retarget_recompiles_strictly_fewer(self, tmp_path):
        model = build_model("elevator")
        component = model.components[0]
        store = ArtifactStore(tmp_path)
        compiler = IncrementalCompiler(model, store=store)

        compiler.compile(marks_for_partition(component, ()))
        cold = compiler.last_stats
        assert cold.classes_compiled == cold.classes_total
        assert cold.classes_reused == 0

        compiler.compile(marks_for_partition(component, ("E",)))
        warm = compiler.last_stats
        # only the moved class was recompiled (as hardware now)
        assert warm.classes_compiled == 1
        assert warm.classes_reused == warm.classes_total - 1
        assert warm.classes_compiled < cold.classes_compiled
        assert warm.manifest_reused

    def test_moving_the_mark_back_is_fully_cached(self, tmp_path):
        model = build_model("elevator")
        component = model.components[0]
        compiler = IncrementalCompiler(
            model, store=ArtifactStore(tmp_path))
        compiler.compile(marks_for_partition(component, ()))
        compiler.compile(marks_for_partition(component, ("E",)))
        compiler.compile(marks_for_partition(component, ()))
        assert compiler.last_stats.fully_cached

    def test_store_counters_reported_per_compile(self, tmp_path):
        model = build_model("checksum")
        component = model.components[0]
        compiler = IncrementalCompiler(
            model, store=ArtifactStore(tmp_path))
        compiler.compile(marks_for_partition(component, ()))
        first = compiler.last_stats.store
        assert first.misses > 0 and first.puts > 0
        compiler.compile(marks_for_partition(component, ()))
        second = compiler.last_stats.store
        assert second.misses == 0 and second.hits > 0

    def test_no_store_still_memoizes_manifest(self):
        model = build_model("microwave")
        component = model.components[0]
        compiler = IncrementalCompiler(model)
        compiler.compile(marks_for_partition(component, ()))
        assert not compiler.last_stats.manifest_reused
        compiler.compile(marks_for_partition(component, ("PT",)))
        assert compiler.last_stats.manifest_reused
        # without a store everything is emitted fresh
        assert compiler.last_stats.classes_compiled == \
            compiler.last_stats.classes_total


class TestCachedBuildsBehave:
    def test_cached_build_drives_the_simulators(self, tmp_path):
        """A cache-served Build is a real Build: targets execute it."""
        from repro.mda import CSoftwareMachine, VHardwareMachine
        from repro.verify import run_case, suite_for

        store = ArtifactStore(tmp_path)
        model = build_model("checksum")
        component = model.components[0]
        sw_marks = marks_for_partition(component, ())
        hw_marks = marks_for_partition(component,
                                       tuple(component.class_keys))
        for _ in range(2):  # cold, then served from the store
            clear_manifest_memo()
            compiler = IncrementalCompiler(model, store=store)
            sw_build = compiler.compile(sw_marks)
            hw_build = compiler.compile(hw_marks)
            for case in suite_for("checksum"):
                for target in (CSoftwareMachine(sw_build.manifest),
                               VHardwareMachine(hw_build.manifest)):
                    result = run_case(case, target)
                    assert result.passed, result
        assert compiler.last_stats.fully_cached
        assert compiler.last_stats.manifest_reused
        assert store.stats.hits > 0
