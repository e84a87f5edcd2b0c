"""No executor is a reference cycle: reference counting frees each one.

Every executor holds its evaluator, and the evaluator takes its host as
an argument of each run instead of keeping it, so a finished executor,
its store and its whole trace are freed the moment the last outside
reference goes.  Each test runs one catalog case with the cyclic garbage
collector switched off and checks that a weak reference to the executor
is dead after ``del``: a cycle anywhere in the executor would keep it
alive until a collection found it.
"""

import gc
import weakref
from functools import partial

import pytest

from repro.analysis import witness
from repro.cosim import CoSimMachine, FaultPlan, FaultRates
from repro.marks import marks_for_partition
from repro.mda import CSoftwareMachine, ModelCompiler, VHardwareMachine
from repro.mda.manifest import build_manifest
from repro.models import build_model
from repro.obs import observe
from repro.runtime import Simulation, SynchronousScheduler
from repro.verify import run_case, suite_for

MODELS = ("packetproc", "microwave", "checksum")


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _freed_after_case(make, model_name):
    """Run *model_name*'s first formal case on the executor ``make()``
    returns, drop it, and report whether reference counting freed it."""
    executor = make()
    result = run_case(suite_for(model_name)[0], executor)
    assert result.passed, result.failures
    alive = weakref.ref(executor)
    del executor
    return alive() is None


def _build(hardware=(), protected=False):
    model = build_model("packetproc")
    component = model.components[0]
    marks = marks_for_partition(component, hardware)
    if protected:
        for key in component.class_keys:
            path = f"{component.name}.{key}"
            marks.set(path, "crc", "crc16")
            marks.set(path, "maxRetries", 3)
            marks.set(path, "retryBackoffNs", 2_000)
            marks.set(path, "isCritical", True)
    return ModelCompiler(model).compile(marks)


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("platform", ["abstract", "csim", "vsim"])
def test_standard_executors_are_freed(collector_off, platform, model_name):
    model = build_model(model_name)
    if platform == "abstract":
        make = partial(Simulation, model)
    else:
        manifest = build_manifest(model, model.components[0])
        machine = (CSoftwareMachine if platform == "csim"
                   else VHardwareMachine)
        make = partial(machine, manifest)
    assert _freed_after_case(make, model_name)


@pytest.mark.parametrize("variant", ["all-software", "CE-in-hardware",
                                     "faulted"])
def test_cosim_is_freed(collector_off, variant):
    plan = None
    if variant == "all-software":
        build = _build()
    elif variant == "CE-in-hardware":
        build = _build(("CE",))
    else:
        build = _build(("CE", "D"), protected=True)
        plan = FaultPlan(seed=5, default=FaultRates(corrupt=0.3))
    assert _freed_after_case(partial(CoSimMachine, build, fault_plan=plan),
                             "packetproc")


def test_eager_dispatch_ablation_is_freed(collector_off):
    model = build_model("packetproc")
    assert _freed_after_case(partial(Simulation, model, eager_dispatch=True),
                             "packetproc")


def test_simulation_under_a_metrics_registry_is_freed(collector_off):
    model = build_model("microwave")
    with observe() as registry:
        assert _freed_after_case(partial(Simulation, model), "microwave")
    assert registry.counter("runtime.dispatches").value > 0


def test_lint_explorer_run_is_freed(collector_off, monkeypatch):
    made = []

    def recording_simulation(*args, **kwargs):
        simulation = Simulation(*args, **kwargs)
        made.append(weakref.ref(simulation))
        return simulation

    monkeypatch.setattr(witness, "Simulation", recording_simulation)
    scenario = witness.scenarios_for_model("microwave")[0]
    record = witness.run_scenario(build_model("microwave"), scenario,
                                  SynchronousScheduler())
    assert record.steps > 0
    assert len(made) == 1 and made[0]() is None
