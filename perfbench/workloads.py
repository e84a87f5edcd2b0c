"""The benchmark's workloads: population, mark-loop and lint.

Each is a batch job driven by one caller -- every call waits for the one
before it -- so none has a host arrival rate.  Packet arrivals are in
*simulated* time and are generated here, so the program under test only
ever receives the generated stimulus.

A workload offers ``setup()`` (everything before the timed part; returns
the pass state), ``run(state)`` (one timed pass), ``check(state, result,
tally)`` (the per-pass output checks, each against a reference that the
code under test did not produce on this run), ``final_check(result,
tally)`` (checks too slow for every pass, made once per run) and
``cleanup(state)``.  ``setup`` clears the program's in-process caches, so
every pass pays what a fresh process would.
"""

from __future__ import annotations

import importlib.util
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import population
import repro.analysis.report as lint_report
from repro.analysis.witness import replay_witness
from repro.build import (
    ArtifactStore,
    IncrementalCompiler,
    artifacts_digest,
    catalog_matrix,
    clear_manifest_memo,
)
from repro.cosim import PacketStimulus, sweep_partitions
from repro.exec import clear_lowering_cache
from repro.marks import marks_for_partition
from repro.models import CATALOG, build_model, build_packetproc_model
from repro.obs import export as trace_export
from repro.runtime import Simulation
from repro.verify import check_conformance, suite_for

clock = time.perf_counter


@dataclass
class Pass:
    """What one timed pass measured."""

    #: host seconds of the timed phases, summed
    seconds: float
    #: phase -> host seconds; ``phase_geomean_ms`` is their geometric mean
    phases: dict[str, float]
    #: samples of the workload's own figures, by name
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: what the output checks need from the pass
    data: object = None


class Tally:
    """Operations and output checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def operations(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted}: {what}")

    def check(self, ok: bool, what: str) -> None:
        self.operations(1, 0 if ok else 1, what)


class Workload:
    """Base of the workloads; the module docstring gives the protocol."""

    name = ""
    #: (name, unit) of the figures the workload is about, printed per run
    own_metrics: tuple[tuple[str, str], ...] = ()

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def final_check(self, result: Pass, tally: Tally) -> None:
        """Checks made once per run, on the last pass (none by default)."""

    def cleanup(self, state) -> None:
        """Release what ``setup`` made (nothing by default)."""


class PopulationWorkload(Workload):
    """The abstract runtime dispatching over a thousand wired instances.

    200 pipelines x 5 stages + 4 shared flow records = 1004 instances: the
    size at which the scheduler's per-step scan over every ready queue
    dominates dispatch.  The seed draws every MAC's arrival times.
    """

    name = "population"
    own_metrics = (("dispatch_rate", "dispatches/s"),)

    PIPELINES = 200
    PACKETS_PER_MAC = 4
    RATE_PER_MS = 2.0
    #: the reduced population whose trace the pinned AST oracle replays
    ORACLE_PIPELINES = 3
    ORACLE_PACKETS_PER_MAC = 3

    def __init__(self, seed, root, scratch):
        super().__init__(seed, root, scratch)
        self._pinned = _pinned_simulation(root)

    def setup(self):
        clear_lowering_cache()
        stimulus = population.make_stimulus(
            self.seed, self.PIPELINES, self.PACKETS_PER_MAC, self.RATE_PER_MS)
        sim = Simulation(build_packetproc_model())
        injected = population.inject(
            sim, population.wire(sim, self.PIPELINES), stimulus)
        return sim, injected

    def run(self, state) -> Pass:
        sim, _ = state
        start = clock()
        dispatches = sim.run_to_quiescence()
        seconds = clock() - start
        return Pass(seconds, {"dispatch": seconds},
                    {"dispatch_rate": [dispatches / seconds]})

    def check(self, state, result, tally) -> None:
        sim, injected = state
        accounted = _attribute_sum(sim, "ST", "packets")
        tally.operations(injected, max(injected - accounted, 0),
                         "packets lost between MAC and stats")
        tally.check(accounted == injected,
                    f"sum of ST.packets ({accounted}) equals the "
                    f"{injected} packets injected")
        tally.check(_attribute_sum(sim, "FR", "packets") == injected,
                    "sum of FR.packets equals the packets injected")
        tally.check(self._matches_oracle(),
                    "reduced-population trace equals the pinned AST oracle's")

    def _matches_oracle(self) -> bool:
        stimulus = population.make_stimulus(
            self.seed, self.ORACLE_PIPELINES, self.ORACLE_PACKETS_PER_MAC,
            self.RATE_PER_MS)
        dumps = []
        for factory in (Simulation, self._pinned):
            sim = factory(build_packetproc_model())
            population.inject(
                sim, population.wire(sim, self.ORACLE_PIPELINES), stimulus)
            sim.run_to_quiescence()
            dumps.append(trace_export.dump_jsonl(sim.trace))
        return dumps[0] == dumps[1]


@dataclass
class _MarkLoopState:
    models: dict
    #: (model name, [(cell label, marks), ...]); each model's first cell
    #: is its cold compile, the rest are single-mark retargets
    matrix: list
    suites: dict
    packets: list
    store_dir: str


class MarkLoopWorkload(Workload):
    """The paper's loop over the catalog: mark, compile, verify, co-simulate.

    Populations stay at ten instances or fewer, so the scheduler hardly
    matters; lowering, emit, store writes and reads, csim/vsim and the
    co-sim engine, bus and codec do the work.  Every pass starts cold --
    a fresh store directory, cleared lowering and manifest caches -- and
    compiles inline: with two cores a process pool would measure the OS
    scheduler, not the program.  The seed orders the models and each
    model's retargets; the co-sim sweep always runs E4's seed-7 stimulus,
    so its simulated latencies can be checked against recorded values.
    """

    name = "mark-loop"
    own_metrics = (("compile_cold_ms", "ms"), ("retarget_ms", "ms"),
                   ("batch_warm_s", "s"), ("conformance_s", "s"),
                   ("cosim_sweep_s", "s"))

    #: the E4 partitions of packetproc
    PARTITIONS = ((), ("CE",), ("CE", "D"), ("CE", "CL", "D"))
    #: the E4 stimulus: 250 Poisson packets at 300 per ms, seed 7
    E4_PACKETS, E4_RATE_PER_MS, E4_SEED = 250, 300.0, 7
    #: partition -> (mean, p99) simulated packet latency in ns under the
    #: E4 stimulus, as the co-sim computed it when the benchmark was made
    E4_EXPECTED = {
        (): (377970.72, 554060.0),
        ("CE",): (50545.52, 129520.0),
        ("CE", "D"): (9307.62, 23500.0),
        ("CE", "CL", "D"): (5355.18, 15540.0),
    }
    #: 22 golden cases x (abstract, csim, vsim)
    CASE_RUNS = 66

    def setup(self) -> _MarkLoopState:
        clear_lowering_cache()
        clear_manifest_memo()
        rng = random.Random(self.seed)
        models = {entry.name: entry.build() for entry in CATALOG}
        cells: dict[str, list] = {}
        for job in catalog_matrix():
            component = models[job.model].components[0]
            cells.setdefault(job.model, []).append(
                (job.label, marks_for_partition(component, job.hardware)))
        order = list(cells)
        rng.shuffle(order)
        matrix = []
        for name in order:
            cold, *retargets = cells[name]  # cold: the all-software cell
            rng.shuffle(retargets)
            matrix.append((name, [cold, *retargets]))
        stimulus = population.poisson_stream(
            random.Random(self.E4_SEED), self.E4_PACKETS, self.E4_RATE_PER_MS)
        return _MarkLoopState(
            models=models,
            matrix=matrix,
            suites={name: suite_for(name) for name in order},
            packets=[PacketStimulus(*packet) for packet in stimulus],
            store_dir=tempfile.mkdtemp(prefix="store-", dir=self.scratch),
        )

    def run(self, state: _MarkLoopState) -> Pass:
        store = ArtifactStore(state.store_dir)
        cold, retarget, cold_artifacts = [], [], {}
        for name, cells in state.matrix:
            start = clock()
            compiler = IncrementalCompiler(state.models[name], store=store)
            for index, (label, marks) in enumerate(cells):
                build = compiler.compile(marks)
                (retarget if index else cold).append(clock() - start)
                cold_artifacts[label] = build.artifacts
                start = clock()

        clear_manifest_memo()  # the second pass reads manifests from disk too
        start = clock()
        warm = []
        for name, cells in state.matrix:
            compiler = IncrementalCompiler(state.models[name], store=store)
            for label, marks in cells:
                build = compiler.compile(marks)
                warm.append((label, build.artifacts, compiler.last_stats))
        batch_warm = clock() - start

        start = clock()
        reports = [check_conformance(state.models[name], state.suites[name])
                   for name, _ in state.matrix]
        conformance = clock() - start

        start = clock()
        rows = sweep_partitions(state.models["packetproc"], self.PARTITIONS,
                                state.packets)
        cosim = clock() - start

        phases = {
            "compile_cold": statistics.median(cold),
            "retarget": statistics.median(retarget),
            "batch_warm": batch_warm,
            "conformance": conformance,
            "cosim_sweep": cosim,
        }
        return Pass(
            sum(cold) + sum(retarget) + batch_warm + conformance + cosim,
            phases,
            {
                "compile_cold_ms": [seconds * 1e3 for seconds in cold],
                "retarget_ms": [seconds * 1e3 for seconds in retarget],
                "batch_warm_s": [batch_warm],
                "conformance_s": [conformance],
                "cosim_sweep_s": [cosim],
            },
            data=(cold_artifacts, warm, reports, rows),
        )

    def check(self, state, result, tally) -> None:
        cold_artifacts, warm, reports, rows = result.data
        tally.operations(len(cold_artifacts), 0, "cold matrix jobs")
        stale = sum(
            1 for label, artifacts, stats in warm
            if not (stats.fully_cached and stats.manifest_reused
                    and artifacts_digest(artifacts)
                    == artifacts_digest(cold_artifacts[label])))
        tally.operations(len(warm), stale,
                         "warm matrix jobs not served whole from the store "
                         "with the cold digest")
        runs = [run for report in reports for case in report.cases
                for run in case.results]
        tally.operations(len(runs), sum(not run.passed for run in runs),
                         "conformance case-runs failed")
        tally.check(len(runs) == self.CASE_RUNS,
                    f"{len(runs)} conformance case-runs, "
                    f"expected {self.CASE_RUNS}")
        tally.check(all(report.conformant for report in reports),
                    "behavioural traces equal on every target")
        for row in rows:
            tally.operations(row.offered_packets,
                             row.offered_packets - row.completed,
                             f"co-sim packets lost ({row.label})")
            measured = (row.mean_latency_ns, row.p99_latency_ns)
            tally.check(
                measured == self.E4_EXPECTED.get(row.hardware_classes),
                f"E4 latencies of {row.label} {measured!r} equal the "
                "recorded values")

    def cleanup(self, state: _MarkLoopState) -> None:
        shutil.rmtree(state.store_dir, ignore_errors=True)


class LintWorkload(Workload):
    """``lint_model`` over the whole catalog at the default budget.

    Thousands of short explorer runs on tiny populations: the evaluator
    and simulation construction do the work, scheduler scale does not.
    Trafficlight dominates (125 runs that each use the 1000-step budget).
    The seed orders the models.
    """

    name = "lint"
    own_metrics = (("lint_s", "s"),)
    #: the catalog's lint result (E11): findings, errors, witnesses
    FINDINGS, ERRORS, WITNESSES = 43, 0, 9

    def setup(self):
        clear_lowering_cache()
        names = [entry.name for entry in CATALOG]
        random.Random(self.seed).shuffle(names)
        return [(name, build_model(name)) for name in names]

    def run(self, state) -> Pass:
        phases, reports = {}, []
        for name, model in state:
            start = clock()
            reports.append((model, lint_report.lint_model(model)))
            phases[name] = clock() - start
        seconds = sum(phases.values())
        return Pass(seconds, phases, {"lint_s": [seconds]}, data=reports)

    def check(self, state, result, tally) -> None:
        reports = [report for _, report in result.data]
        tally.operations(len(reports), 0, "model lints")
        findings = sum(len(report.findings) for report in reports)
        errors = sum(report.counts()["error"] for report in reports)
        witnesses = sum(len(report.witnessed) for report in reports)
        tally.check(findings == self.FINDINGS,
                    f"{findings} findings, expected {self.FINDINGS}")
        tally.check(errors == self.ERRORS,
                    f"{errors} errors, expected {self.ERRORS}")
        tally.check(witnesses == self.WITNESSES,
                    f"{witnesses} witnesses, expected {self.WITNESSES}")

    def final_check(self, result, tally) -> None:
        for model, report in result.data:
            for finding in report.witnessed:
                tally.check(
                    replay_witness(model, finding.witness,
                                   component=report.component_name),
                    f"witness for {finding.rule} on {finding.element} "
                    "replays")


WORKLOADS = {workload.name: workload for workload in
             (PopulationWorkload, MarkLoopWorkload, LintWorkload)}


def _attribute_sum(sim, class_key: str, attribute: str) -> int:
    return sum(sim.read_attribute(handle, attribute)
               for handle in sim.instances_of(class_key))


def _pinned_simulation(root: Path):
    """The retired AST interpreter, pinned in the tests as an oracle."""
    path = root / "tests" / "exec" / "pinned_ast_interpreter.py"
    spec = importlib.util.spec_from_file_location(
        "pinned_ast_interpreter", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PinnedAstSimulation
