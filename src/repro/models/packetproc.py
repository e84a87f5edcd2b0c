"""Packet-processing SoC — the motivating workload of the reproduction.

A five-stage pipeline, one active class per stage:

    MAC (M) -> Classifier (CL) -> CryptoEngine (CE) -> DMA (D) -> Stats (ST)
                        \\________________________________/
                         (clear-text flows bypass crypto)

Packets are injected at the MAC as ``M1`` events carrying an id and a
length; the classifier routes odd flows through the crypto engine.  Each
stage burns work proportional to packet length (bounded loops), which is
what gives the co-simulation something real to measure: crypto and DMA
are compute-heavy and therefore the natural ``isHardware`` candidates —
the partition sweep of experiment E4 runs over exactly this model.

Per-flow accounting lives in passive ``FlowRecord`` instances navigated
by ``select ... where``.
"""

from __future__ import annotations

from repro.xuml import Model, ModelBuilder

#: Number of distinct flows the classifier hashes packets into.
FLOW_COUNT = 4


def build_packetproc_model(check: bool = True) -> Model:
    """Build and check the packet processor."""
    builder = ModelBuilder("PacketProcessor", "five-stage packet pipeline SoC")
    soc = builder.component("soc")

    soc.ext("LOG").bridge("info", params=[("message", "string")])

    mac = soc.klass("Mac", "M", number=1)
    mac.attr("mac_id", "unique_id")
    mac.attr("rx_count", "integer")
    mac.attr("rx_bytes", "integer")
    mac.identifier(1, "mac_id")
    mac.event("M1", "packet arrived", params=[("pkt_id", "integer"),
                                              ("length", "integer")])
    mac.event("M2", "header check complete", params=[("pkt_id", "integer"),
                                                     ("length", "integer")])
    mac.state("Ready", 1, activity="")
    mac.state("Checking", 2, activity="""
        self.rx_count = self.rx_count + 1;
        self.rx_bytes = self.rx_bytes + param.length;
        checksum = 0;
        i = 0;
        while (i < 16)
            checksum = (checksum + param.pkt_id + i) % 255;
            i = i + 1;
        end while;
        generate M2:M(pkt_id: param.pkt_id, length: param.length) to self;
    """)
    mac.state("Forwarding", 3, activity="""
        flow = param.pkt_id % 4;
        select one cl related by self->CL[R1];
        generate CL1:CL(pkt_id: param.pkt_id, length: param.length, flow: flow)
            to cl;
        generate M3:M() to self;
    """)
    mac.event("M3", "forward complete")
    mac.trans("Ready", "M1", "Checking")
    mac.trans("Checking", "M2", "Forwarding")
    mac.trans("Forwarding", "M3", "Ready")
    # Packets arriving while the MAC is mid-pipeline wait in its queue:
    # the self-directed M2/M3 steps outrank them (self-events first), so
    # M1 is only ever consumed in Ready and needs no other table entries.
    mac.ignore("Ready", "M2")
    mac.ignore("Ready", "M3")

    classifier = soc.klass("Classifier", "CL", number=2)
    classifier.attr("cl_id", "unique_id")
    classifier.attr("classified", "integer")
    classifier.attr("to_crypto", "integer")
    classifier.identifier(1, "cl_id")
    classifier.event("CL1", "classify packet", params=[
        ("pkt_id", "integer"), ("length", "integer"), ("flow", "integer")])
    classifier.event("CL2", "routing done")
    classifier.state("Idle", 1, activity="")
    classifier.state("Routing", 2, activity="""
        self.classified = self.classified + 1;
        if (param.flow % 2 == 1)
            self.to_crypto = self.to_crypto + 1;
            select one ce related by self->CE[R2];
            generate CE1:CE(pkt_id: param.pkt_id, length: param.length,
                            flow: param.flow) to ce;
        else
            select one dma related by self->D[R3];
            generate D1:D(pkt_id: param.pkt_id, length: param.length,
                          flow: param.flow) to dma;
        end if;
        generate CL2:CL() to self;
    """)
    classifier.trans("Idle", "CL1", "Routing")
    classifier.trans("Routing", "CL2", "Idle")
    classifier.ignore("Idle", "CL2")

    crypto = soc.klass("CryptoEngine", "CE", number=3)
    crypto.attr("ce_id", "unique_id")
    crypto.attr("encrypted", "integer")
    crypto.attr("rounds_done", "integer")
    crypto.identifier(1, "ce_id")
    crypto.event("CE1", "encrypt packet", params=[
        ("pkt_id", "integer"), ("length", "integer"), ("flow", "integer")])
    crypto.event("CE2", "encryption done")
    crypto.state("Idle", 1, activity="")
    crypto.state("Encrypting", 2, activity="""
        self.encrypted = self.encrypted + 1;
        rounds = param.length / 16 + 1;
        state_word = param.pkt_id;
        r = 0;
        while (r < rounds)
            state_word = (state_word * 31 + r) % 65521;
            r = r + 1;
        end while;
        self.rounds_done = self.rounds_done + rounds;
        select one dma related by self->D[R4];
        generate D1:D(pkt_id: param.pkt_id, length: param.length,
                      flow: param.flow) to dma;
        generate CE2:CE() to self;
    """)
    crypto.trans("Idle", "CE1", "Encrypting")
    crypto.trans("Encrypting", "CE2", "Idle")
    crypto.ignore("Idle", "CE2")

    dma = soc.klass("DmaEngine", "D", number=4)
    dma.attr("dma_id", "unique_id")
    dma.attr("transfers", "integer")
    dma.attr("bytes_moved", "integer")
    dma.identifier(1, "dma_id")
    dma.event("D1", "transfer packet", params=[
        ("pkt_id", "integer"), ("length", "integer"), ("flow", "integer")])
    dma.event("D2", "transfer done")
    dma.state("Idle", 1, activity="")
    dma.state("Transferring", 2, activity="""
        self.transfers = self.transfers + 1;
        self.bytes_moved = self.bytes_moved + param.length;
        bursts = param.length / 64 + 1;
        b = 0;
        while (b < bursts)
            b = b + 1;
        end while;
        select one st related by self->ST[R5];
        generate ST1:ST(pkt_id: param.pkt_id, length: param.length,
                        flow: param.flow) to st;
        generate D2:D() to self;
    """)
    dma.trans("Idle", "D1", "Transferring")
    dma.trans("Transferring", "D2", "Idle")
    dma.ignore("Idle", "D2")

    stats = soc.klass("Stats", "ST", number=5)
    stats.attr("st_id", "unique_id")
    stats.attr("packets", "integer")
    stats.attr("bytes_total", "integer")
    stats.identifier(1, "st_id")
    stats.event("ST1", "account packet", params=[
        ("pkt_id", "integer"), ("length", "integer"), ("flow", "integer")])
    stats.event("ST2", "accounting done")
    stats.state("Idle", 1, activity="")
    stats.state("Accounting", 2, activity="""
        self.packets = self.packets + 1;
        self.bytes_total = self.bytes_total + param.length;
        select any rec from instances of FR
            where (selected.flow_id == param.flow);
        if (not_empty rec)
            rec.packets = rec.packets + 1;
            rec.bytes = rec.bytes + param.length;
        end if;
        generate ST2:ST() to self;
    """)
    stats.trans("Idle", "ST1", "Accounting")
    stats.trans("Accounting", "ST2", "Idle")
    stats.ignore("Idle", "ST2")

    record = soc.klass("FlowRecord", "FR", number=6)
    record.attr("flow_id", "integer")
    record.attr("packets", "integer")
    record.attr("bytes", "integer")
    record.identifier(1, "flow_id")

    soc.assoc("R1", ("M", "feeds", "1"), ("CL", "is fed by", "1"))
    soc.assoc("R2", ("CL", "routes crypto traffic to", "1"),
              ("CE", "receives crypto traffic from", "1"))
    soc.assoc("R3", ("CL", "routes clear traffic to", "1"),
              ("D", "receives clear traffic from", "1"))
    soc.assoc("R4", ("CE", "hands ciphertext to", "1"),
              ("D", "receives ciphertext from", "1"))
    soc.assoc("R5", ("D", "reports completion to", "1"),
              ("ST", "accounts transfers of", "1"))

    return builder.build(check)


def populate(simulation) -> dict[str, int]:
    """Create one instance of each stage, fully wired, plus flow records.

    Returns a dict mapping class key letters to instance handles (the
    flow-record handles are under ``"FR0"``..).
    """
    handles = {
        "M": simulation.create_instance("M", mac_id=1),
        "CL": simulation.create_instance("CL", cl_id=1),
        "CE": simulation.create_instance("CE", ce_id=1),
        "D": simulation.create_instance("D", dma_id=1),
        "ST": simulation.create_instance("ST", st_id=1),
    }
    simulation.relate(handles["M"], handles["CL"], "R1")
    simulation.relate(handles["CL"], handles["CE"], "R2")
    simulation.relate(handles["CL"], handles["D"], "R3")
    simulation.relate(handles["CE"], handles["D"], "R4")
    simulation.relate(handles["D"], handles["ST"], "R5")
    for flow in range(FLOW_COUNT):
        handles[f"FR{flow}"] = simulation.create_instance("FR", flow_id=flow)
    return handles


def inject_packets(simulation, mac_handle: int, count: int,
                   length: int = 256, spacing: int = 0) -> None:
    """Inject *count* packets at the MAC, *spacing* time units apart."""
    for index in range(count):
        simulation.inject(
            mac_handle, "M1",
            {"pkt_id": index + 1, "length": length},
            delay=index * spacing,
        )
