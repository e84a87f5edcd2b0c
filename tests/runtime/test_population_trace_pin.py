"""Population-scale trace pins.

The catalog digests (``test_dispatch_traces.py``) never have more than a
handful of ready sources.  These pins wire 50 packetproc pipelines (254
instances, hundreds of ready sources at once) through the public API
only -- ``create_instance``, ``relate`` and delayed ``inject`` -- run
them to quiescence and compare the SHA-256 of the exported trace with a
recorded digest, under each dispatch rule the runtime offers.
"""

import hashlib
import random

import pytest

from repro.models import build_packetproc_model
from repro.obs import dump_jsonl
from repro.runtime import InterleavedScheduler, Simulation

PIPELINES = 50
PACKETS_PER_MAC = 4
SEED = 1
#: (class key letters, identifying attribute) of each pipeline stage
STAGES = (("M", "mac_id"), ("CL", "cl_id"), ("CE", "ce_id"),
          ("D", "dma_id"), ("ST", "st_id"))
#: (from, to, association) links inside one pipeline
LINKS = (("M", "CL", "R1"), ("CL", "CE", "R2"), ("CL", "D", "R3"),
         ("CE", "D", "R4"), ("D", "ST", "R5"))

#: option set -> SHA-256 of ``dump_jsonl`` of the finished run.  The
#: FIFO-only run equals the synchronous one: no instance here ever holds
#: a self-directed event behind an older pending one.
DIGESTS = {
    "synchronous":
        "6493b625d98a198dd66ad875bbc7266fe915de9d6d92aa6b36e69639c8824718",
    "interleaved-3":
        "a9ee701ce2eef559c13341ac0c925da4e79ea7ff8da9c6f8b552f288d0461af3",
    "fifo-only":
        "6493b625d98a198dd66ad875bbc7266fe915de9d6d92aa6b36e69639c8824718",
    "eager":
        "56ffa4db7c9d9ff66f8759464138e9432cb116d6d4e6d53d9afdb07bd1375bfa",
}

#: option set -> the Simulation keywords it stands for (made per run: an
#: interleaved scheduler carries its random state)
OPTIONS = {
    "synchronous": lambda: {},
    "interleaved-3": lambda: {"scheduler": InterleavedScheduler(seed=3)},
    "fifo-only": lambda: {"self_priority": False},
    "eager": lambda: {"eager_dispatch": True},
}


def run_population(**options) -> Simulation:
    simulation = Simulation(build_packetproc_model(), **options)
    rng = random.Random(SEED)
    pkt_id = 0
    for index in range(PIPELINES):
        handles = {key: simulation.create_instance(key, **{ident: index + 1})
                   for key, ident in STAGES}
        for left, right, association in LINKS:
            simulation.relate(handles[left], handles[right], association)
        time_us = 0.0
        for _ in range(PACKETS_PER_MAC):
            time_us += rng.expovariate(1 / 500)
            pkt_id += 1
            simulation.inject(handles["M"], "M1",
                              {"pkt_id": pkt_id,
                               "length": rng.randint(64, 1500)},
                              delay=int(time_us))
    for flow in range(4):
        simulation.create_instance("FR", flow_id=flow)
    simulation.run_to_quiescence()
    return simulation


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_population_trace_digest(name):
    simulation = run_population(**OPTIONS[name]())
    digest = hashlib.sha256(
        dump_jsonl(simulation.trace).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[name]
