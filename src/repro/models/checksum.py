"""Checksum accelerator — creation events and synchronous operations.

A requester spawns ``Job`` instances by *creation event* (the instance is
born when the signal dispatches — xtUML's asynchronous constructor), the
accelerator computes a Fletcher-style checksum through a synchronous
instance *operation*, and replies to the right job via ``select ...
where``.  This covers the last corners of the profile: creation events,
class-based and instance-based operations, and operation return values.

(The paper's low-level foils, SystemC and Handel-C, would express this as
an RTL block with a bus interface; here it is four states and one loop.)
"""

from __future__ import annotations

from repro.xuml import Model, ModelBuilder


def build_checksum_model(check: bool = True) -> Model:
    """Build and check the checksum accelerator model."""
    builder = ModelBuilder("Checksum", "job-based checksum accelerator")
    accel = builder.component("accel")

    accel.ext("LOG").bridge("metric", params=[("name", "string"),
                                              ("value", "real")])

    job = accel.klass("Job", "J", number=1)
    job.attr("job_id", "integer")
    job.attr("length", "integer")
    job.attr("seed", "integer")
    job.attr("result", "integer")
    job.attr("done", "boolean")
    job.identifier(1, "job_id")
    job.event("J0", "job submitted", creation=True, params=[
        ("job_id", "integer"), ("length", "integer"), ("seed", "integer")])
    job.event("J1", "result ready", params=[
        ("job_id", "integer"), ("result", "integer")])
    job.state("Submitted", 1, activity="""
        self.job_id = param.job_id;
        self.length = param.length;
        self.seed = param.seed;
        self.done = false;
        select any engine from instances of AC;
        generate AC1:AC(job_id: self.job_id, length: self.length,
                        seed: self.seed) to engine;
    """)
    job.state("Done", 2, activity="""
        self.result = param.result;
        self.done = true;
        LOG::metric(name: "job_done", value: 1.0);
    """)
    job.creation("J0", "Submitted")
    job.trans("Submitted", "J1", "Done")
    job.ignore("Done", "J1")

    engine = accel.klass("ChecksumEngine", "AC", number=2)
    engine.attr("engine_id", "unique_id")
    engine.attr("jobs_done", "integer")
    engine.identifier(1, "engine_id")
    engine.event("AC1", "compute requested", params=[
        ("job_id", "integer"), ("length", "integer"), ("seed", "integer")])
    engine.event("AC2", "compute finished", params=[
        ("job_id", "integer"), ("result", "integer")])
    engine.operation(
        "fletcher",
        params=[("length", "integer"), ("seed", "integer")],
        returns="integer",
        body="""
            sum1 = param.seed % 255;
            sum2 = 0;
            i = 0;
            while (i < param.length)
                sum1 = (sum1 + i) % 255;
                sum2 = (sum2 + sum1) % 255;
                i = i + 1;
            end while;
            return sum2 * 256 + sum1;
        """,
    )
    engine.operation(
        "engines_available",
        instance_based=False,
        returns="integer",
        body="""
            select many engines from instances of AC;
            return cardinality engines;
        """,
    )
    engine.state("Ready", 1, activity="")
    engine.state("Computing", 2, activity="""
        value = self.fletcher(length: param.length, seed: param.seed);
        self.jobs_done = self.jobs_done + 1;
        generate AC2:AC(job_id: param.job_id, result: value) to self;
    """)
    engine.state("Replying", 3, activity="""
        select any requester from instances of J
            where (selected.job_id == param.job_id);
        if (not_empty requester)
            generate J1:J(job_id: param.job_id, result: param.result)
                to requester;
        end if;
    """)
    engine.trans("Ready", "AC1", "Computing")
    engine.trans("Computing", "AC2", "Replying")
    engine.trans("Replying", "AC1", "Computing")
    engine.ignore("Ready", "AC2")

    return builder.build(check)


def populate(simulation, engines: int = 1) -> list[int]:
    """Create *engines* checksum engines; jobs arrive by creation event."""
    return [
        simulation.create_instance("AC", engine_id=index + 1)
        for index in range(engines)
    ]


def submit_job(simulation, job_id: int, length: int, seed: int = 0) -> None:
    """Submit a job from the environment via the J0 creation event."""
    simulation.send_creation(
        "J", "J0", {"job_id": job_id, "length": length, "seed": seed}
    )


def fletcher_reference(length: int, seed: int = 0) -> int:
    """Python reference of the engine's checksum, for verification."""
    sum1 = seed % 255
    sum2 = 0
    for i in range(length):
        sum1 = (sum1 + i) % 255
        sum2 = (sum2 + sum1) % 255
    return sum2 * 256 + sum1
