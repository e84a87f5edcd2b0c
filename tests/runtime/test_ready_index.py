"""Differential tests: the event pool keeps only non-empty queues.

``ScanPool`` is a pinned copy of the pool as it was before emptied queues
were dropped: every queue ever created stays in ``_queues`` and
``ready_handles`` filters out the empty ones on every call.  Feeding it and
the live ``EventPool`` the same operations must give the same sources, the
same choices from every scheduler and the same popped signals; a wired
packetproc population must produce a byte-identical trace on both.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_packetproc_model
from repro.obs import dump_jsonl
from repro.runtime import (
    CREATION,
    EventPool,
    InterleavedScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    SignalInstance,
    Simulation,
    SynchronousScheduler,
)


class ScanPool(EventPool):
    """The pinned pre-index pool: emptied queues are kept and re-scanned."""

    def ready_handles(self):
        return tuple(sorted(h for h, q in self._queues.items() if q))

    def pop_for(self, handle):
        return self._queues[handle].pop()


HANDLES = (1, 2, 3, 4)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("ready"), st.sampled_from(HANDLES),
                  st.sampled_from(("env", "self", "other"))),
        st.tuples(st.just("creation")),
        st.tuples(st.just("delayed"), st.sampled_from(HANDLES),
                  st.integers(1, 20)),
        st.tuples(st.just("advance"), st.integers(0, 15)),
        st.tuples(st.just("dispatch")),
        st.tuples(st.just("pop"), st.sampled_from(HANDLES)),
        st.tuples(st.just("drop"), st.sampled_from(HANDLES)),
    ),
    max_size=60,
)


def _signal(sequence, op):
    if op[0] == "creation":
        return SignalInstance(sequence=sequence, label="C", class_key="K",
                              is_creation=True)
    target, sender = op[1], None
    if op[0] == "ready":
        sender = {"env": None, "self": target, "other": target % 4 + 1}[op[2]]
    return SignalInstance(sequence=sequence, label="E", class_key="K",
                          target_handle=target, sender_handle=sender)


def _schedulers():
    classes = {h: "HI" if h % 2 else "LO" for h in HANDLES}
    return (SynchronousScheduler(), RoundRobinScheduler(),
            InterleavedScheduler(seed=3),
            PriorityScheduler({"HI": 1}, class_of_handle=classes.__getitem__))


def _observe(pool):
    return (pool.ready_handles(), pool.ready_count, pool.has_ready_creation(),
            pool.next_due_time(), len(pool._delayed),
            pool.ready_count == 0 and pool.next_due_time() is None)


@settings(max_examples=300, deadline=None)
@given(operations)
def test_pool_matches_pinned_scan(ops):
    live, pinned = EventPool(), ScanPool()
    live_schedulers, pinned_schedulers = _schedulers(), _schedulers()
    now = 0
    for sequence, op in enumerate(ops, start=1):
        kind = op[0]
        if kind in ("ready", "creation"):
            for pool in (live, pinned):
                pool.push_ready(_signal(sequence, op))
        elif kind == "delayed":
            for pool in (live, pinned):
                pool.push_delayed(_signal(sequence, op), now + op[2])
        elif kind == "advance":
            now += op[1]
            assert live.release_due(now) == pinned.release_due(now)
        elif kind == "dispatch":
            source = SynchronousScheduler().choose(pinned)
            assert SynchronousScheduler().choose(live) == source
            if source == CREATION:
                assert live.pop_creation() == pinned.pop_creation()
            elif source is not None:
                assert live.pop_for(source) == pinned.pop_for(source)
        elif kind == "pop" and op[1] in pinned.ready_handles():
            assert live.pop_for(op[1]) == pinned.pop_for(op[1])
        elif kind == "drop":
            assert live.drop_instance(op[1]) == pinned.drop_instance(op[1])

        assert _observe(live) == _observe(pinned)
        assert all(live._queues.values()), "an empty queue was kept"
        for mine, theirs in zip(live_schedulers, pinned_schedulers):
            assert mine.choose(live) == theirs.choose(pinned), mine.name


#: one packetproc pipeline: (class key letters, identifying attribute) of
#: each stage, and the links inside it; four flow records are shared
STAGES = (("M", "mac_id"), ("CL", "cl_id"), ("CE", "ce_id"),
          ("D", "dma_id"), ("ST", "st_id"))
LINKS = (("M", "CL", "R1"), ("CL", "CE", "R2"), ("CL", "D", "R3"),
         ("CE", "D", "R4"), ("D", "ST", "R5"))


def _run_population(pool, pipelines=50, packets_per_mac=4, seed=11):
    sim = Simulation(build_packetproc_model())
    sim.pool = pool
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
    sim.run_to_quiescence()
    packets = sum(sim.read_attribute(h, "packets")
                  for h in sim.instances_of("ST"))
    return dump_jsonl(sim.trace), packets


def test_population_trace_identical_to_pinned_scan():
    live_trace, live_packets = _run_population(EventPool())
    pinned_trace, pinned_packets = _run_population(ScanPool())
    assert live_packets == pinned_packets == 200
    assert live_trace == pinned_trace
