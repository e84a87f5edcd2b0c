"""The co-sim adds only its timing to the shared dispatch core.

Per dispatch, the co-simulation should do about the Python-level work
csim does on the same build and stimulus: the dispatcher's life cycle
and the kernel-order choice are shared, and what the engine adds is the
service cost, the resources' free times and the bus.  The test counts
Python calls with cProfile (the counts are deterministic, unlike
timings) over E4's four partitions, after one warm run each so that
every IR block is already compiled.
"""

import cProfile
import pstats

import pytest

from repro.cosim import CoSimMachine, inject_stimulus, poisson_packets
from repro.marks import marks_for_partition
from repro.mda import CSoftwareMachine, ModelCompiler
from repro.models import build_packetproc_model, packetproc

PARTITIONS = ((), ("CE",), ("CE", "D"), ("CE", "CL", "D"))

#: co-sim calls per dispatch over csim's, at most
CALL_RATIO_BOUND = 1.15


def _machine(executor, build, packets):
    machine = CoSimMachine(build) if executor == "cosim" \
        else CSoftwareMachine(build.manifest)
    handles = packetproc.populate(machine)
    inject_stimulus(machine, handles["M"], packets)
    return machine


def _run(machine):
    if isinstance(machine, CoSimMachine):
        return machine.run()
    return machine.run_to_quiescence()


def calls_per_dispatch(executor, build, packets):
    _run(_machine(executor, build, packets))   # compile every block
    machine = _machine(executor, build, packets)
    profile = cProfile.Profile()
    profile.enable()
    dispatches = _run(machine)
    profile.disable()
    return pstats.Stats(profile).total_calls / dispatches


@pytest.mark.parametrize("hardware", PARTITIONS, ids=str)
def test_cosim_calls_per_dispatch_stay_near_csim(hardware):
    model = build_packetproc_model()
    build = ModelCompiler(model).compile(
        marks_for_partition(model.components[0], hardware))
    packets = poisson_packets(250, 300, seed=7)
    cosim = calls_per_dispatch("cosim", build, packets)
    csim = calls_per_dispatch("csim", build, packets)
    assert cosim <= CALL_RATIO_BOUND * csim, (
        f"co-sim {cosim:.1f} calls per dispatch, csim {csim:.1f}")
