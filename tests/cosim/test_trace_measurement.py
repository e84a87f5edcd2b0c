"""E4 measurement read from the co-simulation trace.

``measure_partition`` pairs each ``ST1`` consumption with the ``M1``
arrival it descends from in the trace's causal index, not with a packet
id carried in the parameters.
"""

import pytest

from repro.cosim import (
    CoSimMachine,
    PacketStimulus,
    inject_stimulus,
    measure_partition,
    poisson_packets,
    sweep_partitions,
)
from repro.cosim.sweep import packet_timings
from repro.marks import marks_for_partition
from repro.mda import ModelCompiler
from repro.models import build_packetproc_model, packetproc

#: E4's partitions under 250 Poisson packets at 300 per ms, seed 7, as
#: the co-sim's send/consume observers measured them:
#: (completed, mean, p99, throughput per s, makespan ns, bus messages)
E4_ROWS = {
    (): (250, 377970.72, 554060.0, 234330.88650479956, 1130920, 0),
    ("CE",): (250, 50545.52, 129520.0, 293950.9845587194, 882260, 250),
    ("CE", "D"): (250, 9307.62, 23500.0, 290690.88701580703, 880820, 500),
    ("CE", "CL", "D"): (250, 5355.18, 15540.0, 288668.87708966126,
                        879760, 500),
}


def test_e4_rows_are_pinned():
    rows = sweep_partitions(build_packetproc_model(), list(E4_ROWS),
                            poisson_packets(250, 300, seed=7))
    measured = {
        row.hardware_classes: (
            row.completed, row.mean_latency_ns, row.p99_latency_ns,
            row.throughput_per_s, row.makespan_ns, row.bus_messages)
        for row in rows
    }
    assert measured == E4_ROWS


def stimulus(ids):
    """Back-to-back 1 KiB packets, 1 us apart, carrying *ids* in order."""
    return [PacketStimulus(index, pkt_id, 1024)
            for index, pkt_id in enumerate(ids)]


#: flow 1 (odd ids): every packet queues for the crypto engine
ASCENDING = [1 + 4 * k for k in range(8)]


def row_numbers(row):
    return (row.completed, row.mean_latency_ns, row.p99_latency_ns,
            row.throughput_per_s, row.makespan_ns)


@pytest.mark.parametrize("ids", [ASCENDING[::-1], [1] * 8],
                         ids=["ids-against-arrival-order", "one-id-for-all"])
def test_pairing_follows_cause_not_packet_id(ids):
    model = build_packetproc_model()
    expected = measure_partition(model, ("CE",), stimulus(ASCENDING))
    measured = measure_partition(model, ("CE",), stimulus(ids))
    assert expected.completed == 8
    assert expected.p99_latency_ns > expected.mean_latency_ns
    assert row_numbers(measured) == row_numbers(expected)


def test_each_sample_starts_at_its_packets_arrival():
    model = build_packetproc_model()
    build = ModelCompiler(model).compile(
        marks_for_partition(model.components[0], ("CE",)))
    machine = CoSimMachine(build)
    handles = packetproc.populate(machine)
    packets = stimulus(ASCENDING[::-1])
    inject_stimulus(machine, handles["M"], packets)
    machine.run()
    samples = packet_timings(machine.trace)
    assert sorted(start for start, _ in samples) == \
        [packet.time_us * 1_000 for packet in packets]
    assert all(end > start for start, end in samples)
    assert [end for _, end in samples] == sorted(end for _, end in samples)
