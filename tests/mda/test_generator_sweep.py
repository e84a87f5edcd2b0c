"""Generator sweep: every model × many partitions stays clean.

A broad net over the emitters: for each catalog model and every
single-class partition (plus all-hw / all-sw), the build must lint
clean (its C compiles under gcc with -Werror), its interface halves
must carry identical layout tables, and the manifest the generators
printed from must still execute (spot-checked by booting a
C-architecture machine over it).
"""

import pytest

from repro.marks import marks_for_partition
from repro.mda import CSoftwareMachine, InterfaceCodec, ModelCompiler
from repro.models import CATALOG, all_models


def partitions_of(component):
    keys = sorted(component.class_keys)
    singles = [(key,) for key in keys]
    return [(), tuple(keys)] + singles


@pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
def test_every_partition_builds_clean(name):
    model = all_models()[name]
    component = model.components[0]
    compiler = ModelCompiler(model)
    for hardware in partitions_of(component):
        build = compiler.compile(marks_for_partition(component, hardware))
        findings = build.lint()
        assert findings == [], (name, hardware, findings[:3])

        # gcc accepts a header whose guard is never defined if it
        # declares nothing, so the guards are checked on the text
        for path, text in build.artifacts.items():
            if path.endswith(".h"):
                lines = text.splitlines()
                guard = next(line for line in lines
                             if line.startswith("#ifndef")).split()[1]
                assert f"#define {guard}" in lines, (name, hardware, path)

        # interface halves always agree, even for empty boundaries
        c_codec = InterfaceCodec.from_artifact(
            build.interface.emit_c_header())
        v_codec = InterfaceCodec.from_artifact(
            build.interface.emit_vhdl_package())
        assert c_codec.layouts == v_codec.layouts, (name, hardware)

        # message count matches the distinct boundary (receiver, event)s
        boundary = {(f.receiver_class, f.event_label)
                    for f in build.partition.boundary_flows}
        assert len(build.interface.messages) == len(boundary)


@pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
def test_manifest_boots_on_target_architecture(name):
    model = all_models()[name]
    component = model.components[0]
    build = ModelCompiler(model).compile(marks_for_partition(component, ()))
    machine = CSoftwareMachine(build.manifest)
    # every class can be instantiated on the architecture runtime
    for klass in component.classes:
        handle = machine.create_instance(klass.key_letters)
        if klass.is_active:
            assert machine.state_of(handle) == (
                klass.statemachine.initial_state)


def test_total_generated_volume_is_substantial():
    """The compiler really does write the system: count the output."""
    total = 0
    for name, model in all_models().items():
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, tuple(component.class_keys)))
        total += build.total_lines()
    assert total > 1500     # all-hardware builds alone exceed this
