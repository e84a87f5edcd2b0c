"""Python calls per dispatch on the shared dispatch path.

Every executor dispatches through :class:`repro.runtime.dispatcher.Dispatcher`,
and on small populations its fixed cost per dispatch, not the scheduler,
is what a run pays for.  These tests count Python-level calls with
cProfile (the counts are deterministic, unlike timings) after one warm
run, so that every IR block is already compiled, and pin them per
dispatch: for the abstract runtime on a small wired packetproc
population and for csim on E4's all-software build.
"""

import cProfile
import pstats
import random

from repro.cosim import inject_stimulus, poisson_packets
from repro.marks import marks_for_partition
from repro.mda import CSoftwareMachine, ModelCompiler
from repro.models import build_packetproc_model, packetproc
from repro.runtime import Simulation

#: calls per dispatch, at most: the counts measured when the bounds were
#: set (abstract 30.00, csim 33.14) plus under 10%; the dispatch path
#: before it was flattened made 53.87 and 56.89
ABSTRACT_BOUND = 32.5
CSIM_BOUND = 36.0

#: one packetproc pipeline: (class key letters, identifying attribute) of
#: each stage, and the links inside it; four flow records are shared
STAGES = (("M", "mac_id"), ("CL", "cl_id"), ("CE", "ce_id"),
          ("D", "dma_id"), ("ST", "st_id"))
LINKS = (("M", "CL", "R1"), ("CL", "CE", "R2"), ("CL", "D", "R3"),
         ("CE", "D", "R4"), ("D", "ST", "R5"))


def _population(pipelines=20, packets_per_mac=4, seed=11):
    sim = Simulation(build_packetproc_model())
    macs = []
    for index in range(pipelines):
        handles = {key: sim.create_instance(key, **{ident: index + 1})
                   for key, ident in STAGES}
        for left, right, association in LINKS:
            sim.relate(handles[left], handles[right], association)
        macs.append(handles["M"])
    for flow in range(4):
        sim.create_instance("FR", flow_id=flow)
    rng = random.Random(seed)
    pkt_id = 0
    for mac in macs:
        time_us = 0.0
        for _ in range(packets_per_mac):
            time_us += rng.expovariate(1 / 500)
            pkt_id += 1
            sim.inject(mac, "M1", {"pkt_id": pkt_id,
                                   "length": rng.randint(64, 1500)},
                       delay=int(time_us))
    return sim


def _csim():
    model = build_packetproc_model()
    build = ModelCompiler(model).compile(
        marks_for_partition(model.components[0], ()))
    machine = CSoftwareMachine(build.manifest)
    handles = packetproc.populate(machine)
    inject_stimulus(machine, handles["M"], poisson_packets(250, 300, seed=7))
    return machine


def calls_per_dispatch(make):
    make().run_to_quiescence()   # compile every block
    executor = make()
    profile = cProfile.Profile()
    profile.enable()
    dispatches = executor.run_to_quiescence()
    profile.disable()
    return pstats.Stats(profile).total_calls / dispatches


def test_abstract_runtime_calls_per_dispatch():
    calls = calls_per_dispatch(_population)
    assert calls <= ABSTRACT_BOUND, f"{calls:.2f} calls per dispatch"


def test_csim_calls_per_dispatch():
    calls = calls_per_dispatch(_csim)
    assert calls <= CSIM_BOUND, f"{calls:.2f} calls per dispatch"
