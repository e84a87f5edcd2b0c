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
"""

import hashlib

import pytest

from repro.cosim import (
    CoSimConfig,
    CoSimMachine,
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
