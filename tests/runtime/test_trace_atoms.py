"""A trace record is a flat tuple of atoms, so the collector drops it.

Every non-``LOG`` record holds only ints, strs and None: its kind is the
member's value string, not the member.  CPython stops tracking such a
tuple the first time a collection examines it, so a finished trace adds
nothing to later collections however long it grows.  Each test runs one
catalog case, collects once and checks that no non-``LOG`` record is
still tracked.
"""

import gc
from functools import partial

import pytest

from repro.cosim import CoSimMachine
from repro.marks import marks_for_partition
from repro.mda import CSoftwareMachine, ModelCompiler, VHardwareMachine
from repro.mda.manifest import build_manifest
from repro.models import build_model
from repro.runtime import Simulation
from repro.runtime.tracing import TraceKind
from repro.verify import run_case, suite_for

# microwave logs and calls bridges; elevator deletes instances
MODELS = ("packetproc", "microwave", "elevator")


def _tracked_records(make, model_name):
    """Run *model_name*'s first formal case on ``make()`` and return the
    non-``LOG`` records the collector still tracks after a collection."""
    executor = make()
    result = run_case(suite_for(model_name)[0], executor)
    assert result.passed, result.failures
    records = executor.trace.records()
    log = TraceKind.LOG.value
    assert any(record[1] != log for record in records)
    gc.collect()
    return [record for record in records
            if record[1] != log and gc.is_tracked(record)]


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("platform", ["abstract", "csim", "vsim"])
def test_standard_executors_record_atoms(platform, model_name):
    model = build_model(model_name)
    if platform == "abstract":
        make = partial(Simulation, model)
    else:
        manifest = build_manifest(model, model.components[0])
        machine = (CSoftwareMachine if platform == "csim"
                   else VHardwareMachine)
        make = partial(machine, manifest)
    assert _tracked_records(make, model_name) == []


@pytest.mark.parametrize("hardware", [(), ("CE",)],
                         ids=["all-software", "CE-in-hardware"])
def test_cosim_records_atoms(hardware):
    model = build_model("packetproc")
    component = model.components[0]
    build = ModelCompiler(model).compile(
        marks_for_partition(component, hardware))
    assert _tracked_records(partial(CoSimMachine, build), "packetproc") == []
