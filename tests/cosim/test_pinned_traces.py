"""Co-simulation traces pinned byte for byte.

Each digest is the SHA-256 of ``dump_jsonl`` of one co-sim run.  A
change to the engine's instant (which resources start, in which order,
and when the clock moves on) shows up here as a changed digest.

* E4's four partitions under 250 Poisson packets at 300 per ms, seed 7.
* A zero-cost platform: every service takes 0 ns, so a resource can
  dispatch again at the same instant and every packet completes with
  latency 0.
* Hardware creation events: the CPU dispatches them without becoming
  busy, so several start at one instant even on the default platform.
* ``("CE", "D")`` under each bus policy on a slow bus (20 ns per byte),
  so that both sides queue on it at once and arbitration decides.
* A protected packetproc build on a bus that drops, corrupts, duplicates
  and delays frames: retransmissions, receiver dedup and frames given up
  for lost that arrive after all.
* A timer started and cancelled by one activity, while its signal still
  waits in the engine's emit buffer, on both sides of the partition.
"""

import hashlib

import pytest

from repro.cosim import (
    CoSimConfig,
    CoSimMachine,
    FaultPlan,
    FaultRates,
    inject_stimulus,
    poisson_packets,
)
from repro.cosim.sweep import packet_timings
from repro.marks import marks_for_partition
from repro.mda import ModelCompiler
from repro.models import (
    build_checksum_model,
    build_packetproc_model,
    packetproc,
)
from repro.obs.export import dump_jsonl
from tests.cosim.test_engine import build_alarm_model

E4_DIGESTS = {
    ():
        "bc2f8ec282caf4cf0d48135435b076e280cf1c0e2650100bf4eeaec8bcf65779",
    ("CE",):
        "27b4f9fc3143bbce565d383b23bc22a431098112a110cd7e2a6c1e1ce3ccf6d2",
    ("CE", "D"):
        "507ea656a67bf96bd1f9e979de63bbe683ed70b338bc32df6a45e13c8deaa5b4",
    ("CE", "CL", "D"):
        "44d2337cf4f7f65148130f587f3974f0f1f89f426651409bbaaf692f35437b7a",
}

ZERO_COST_DIGESTS = {
    ():
        "11803fa158cca6b696711b398dc7a54145f35842fa0f9553f172b5e9d7edc8f6",
    ("CE",):
        "61c1a8dc4356b6e8e6d931304dd36fedecb406ad754d251f3426ee6d74d3d4f2",
    ("CE", "D"):
        "0bba875602e74dc7a1a83538276da3fe0eaa7f6395d0710f88faa552cd7f9cd6",
}

#: checksum with three creation events, per hardware set:
#: (makespan ns, digest)
CREATION_DIGESTS = {
    (): (
        10540,
        "7dc9905c3af34670bd589b91568f4342fc17b3487b120c5fe8070b827f3a696a"),
    ("J",): (
        9235,
        "e3ad1c386c5ae82d3d49c3e91d92e985a3850b96cdcfdf38c993db1de8854d13"),
    ("J", "AC"): (
        2065,
        "4cdfd14397fb075fdaa81ef621bd4f467d5e0417aafc7fb229fae9d62072cbe8"),
}

ZERO_COST = CoSimConfig(
    sw_ns_per_op=0, sw_dispatch_ns=0, hw_ns_per_op=0, hw_dispatch_ns=0,
    bus_arbitration_ns=0, bus_ns_per_byte=0)


def digest(machine):
    return hashlib.sha256(dump_jsonl(machine.trace).encode()).hexdigest()


def compiled(model, hardware):
    return ModelCompiler(model).compile(
        marks_for_partition(model.components[0], hardware))


def packet_run(hardware, packets, config=None):
    machine = CoSimMachine(compiled(build_packetproc_model(), hardware),
                           config)
    handles = packetproc.populate(machine)
    inject_stimulus(machine, handles["M"], packets)
    machine.run()
    return machine


@pytest.mark.parametrize("hardware", list(E4_DIGESTS), ids=str)
def test_e4_partition_traces_are_pinned(hardware):
    machine = packet_run(hardware, poisson_packets(250, 300, seed=7))
    assert digest(machine) == E4_DIGESTS[hardware]


@pytest.mark.parametrize("hardware", list(ZERO_COST_DIGESTS), ids=str)
def test_zero_cost_traces_are_pinned(hardware):
    machine = packet_run(hardware, poisson_packets(50, 300, seed=7),
                         ZERO_COST)
    samples = packet_timings(machine.trace)
    assert len(samples) == 50
    assert {end - start for start, end in samples} == {0}
    assert machine.now == 136_000
    assert digest(machine) == ZERO_COST_DIGESTS[hardware]


@pytest.mark.parametrize("hardware", list(CREATION_DIGESTS), ids=str)
def test_creation_traces_are_pinned(hardware):
    machine = CoSimMachine(compiled(build_checksum_model(), hardware))
    machine.create_instance("AC", engine_id=1)
    for job_id in (1, 2, 3):
        machine.send_creation(
            "J", "J0", {"job_id": job_id, "length": 40, "seed": 0})
    machine.run()
    assert len(machine.instances_of("J")) == 3
    assert (machine.now, digest(machine)) == CREATION_DIGESTS[hardware]


#: ("CE", "D") under 60 packets at 1000 per ms, seed 7, on a slow bus,
#: per bus policy
POLICY_DIGESTS = {
    "fifo":
        "f683c7a55c41a2c9f93f5aee625267cb4daf880d207ebdbd3c6022e52809a480",
    "priority":
        "8450330244a952006f3ed0531ca6913234b27cce489f27bb10893eb7699447da",
    "round_robin":
        "b263eea4cddba13b4a092620d70167d2a28b3aa9fe7c4928f0ebdb06b76cb6b9",
}

#: seed-1 faults on a protected ("CE", "D") build: (fault stats, digest)
FAULTED_DIGEST = (
    {"injected_drops": 22, "injected_corruptions": 19,
     "injected_duplicates": 23, "injected_delays": 36, "detected": 20,
     "recovered": 36, "lost": 1, "critical_lost": 1,
     "duplicates_discarded": 32, "delivered_corrupted": 0,
     "retransmissions": 54},
    "8e786a764bff4ea6f73acbe07d431a9aa03f7e2743656dda0cb19b22af3c19c0")

#: the alarm model: the same trace all software and all hardware
CANCEL_DIGEST = \
    "be1cd4afab6dc1328cd8b25a1825b67a9ba0bc9ce33bf51576e2c55184a0bc90"


@pytest.mark.parametrize("policy", list(POLICY_DIGESTS))
def test_bus_policy_traces_are_pinned(policy):
    config = CoSimConfig(bus_ns_per_byte=20, bus_policy=policy)
    machine = packet_run(("CE", "D"), poisson_packets(60, 1000, seed=7),
                         config)
    assert digest(machine) == POLICY_DIGESTS[policy]


def protected_build(hardware):
    model = build_packetproc_model()
    component = model.components[0]
    marks = marks_for_partition(component, hardware)
    for key in component.class_keys:
        path = f"{component.name}.{key}"
        marks.set(path, "crc", "crc16")
        marks.set(path, "maxRetries", 2)
        marks.set(path, "retryBackoffNs", 500)
        marks.set(path, "isCritical", True)
    return ModelCompiler(model).compile(marks)


def test_faulted_protected_trace_is_pinned():
    plan = FaultPlan(1, FaultRates(drop=0.2, corrupt=0.2, duplicate=0.2,
                                   delay=0.3, delay_ns=3_000))
    machine = CoSimMachine(protected_build(("CE", "D")), fault_plan=plan)
    handles = packetproc.populate(machine)
    for index in range(30):
        machine.inject(handles["M"], "M1",
                       {"pkt_id": index + 1, "length": 64 + 37 * index},
                       delay=index * 40)
    machine.run()
    stats = machine.fault_stats
    # retries, receiver dedup, and (for this seed) frames given up for
    # lost that arrive after all, un-counted as recovered
    assert (stats.as_dict(), digest(machine)) == FAULTED_DIGEST


@pytest.mark.parametrize("all_hardware", [False, True],
                         ids=["all-software", "all-hardware"])
def test_timer_cancelled_in_the_emit_buffer_is_pinned(all_hardware):
    model = build_alarm_model()
    component = model.components[0]
    hardware = tuple(component.class_keys) if all_hardware else ()
    machine = CoSimMachine(compiled(model, hardware))
    alarm = machine.create_instance("AL", al_id=1)
    machine.inject(alarm, "ARM")
    machine.run()
    assert machine.read_attribute(alarm, "cancelled") == 1
    assert digest(machine) == CANCEL_DIGEST
