"""The layer map of the traced run: what is timed, and what it predicts.

Every per-layer metric is the self time of calls to public functions of
one ``repro`` package -- the layer takes the package's name -- or a count
read at the same call boundary.  ``LAYER_MAP`` records, for each metric,
the end-to-end metric it should move, on which workload, and the
workloads on which the prediction is "no change", so later performance
work can cite a prediction by name.  ``BOUNDARIES`` lists the functions
the span recorder wraps.

The end-to-end metrics are the same on every workload (BENCHMARK.json
requires it).  Per workload they carry the figures the workload is about:

* population -- ``pass_s`` is one ``run_to_quiescence`` of the wired
  population; its dispatch count is fixed, so ``dispatch_rate`` is its
  inverse;
* mark-loop -- ``phase_geomean_ms`` is the geometric mean of
  ``compile_cold_ms``, ``retarget_ms``, ``batch_warm_s``,
  ``conformance_s`` and ``cosim_sweep_s``, so a slowdown confined to one
  of them still shows; ``pass_s`` is their summed time;
* lint -- ``pass_s`` is ``lint_s``; ``phase_geomean_ms`` weighs every
  catalog model's lint equally;
* everywhere -- ``success_rate`` is ``1 - error_rate``; timings are in
  host-speed-scaled seconds (see ``REFERENCE_LOOP_S`` in run.py), while
  per-layer times are raw host seconds of the traced pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec import lowering_cache_stats
from spans import Boundary


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the prediction recorded for it."""

    name: str
    unit: str
    better: str
    #: the call boundary it is timed or counted at
    at: str
    #: the end-to-end metric it should move (the workload's own figure in
    #: brackets)
    moves: str
    #: the workload(s) on which it should move it
    on: str
    #: the workloads on which the prediction is "no change"
    unchanged_on: str


def _group(moves: str, on: str, unchanged_on: str, *rows):
    """Metrics sharing one prediction; rows are (name, unit, better, at)."""
    return tuple(LayerMetric(name, unit, better, at, moves, on, unchanged_on)
                 for name, unit, better, at in rows)


LAYER_MAP: tuple[LayerMetric, ...] = (
    # dispatch at population scale; fixes to how the scheduler scales
    # should not move lint's tiny populations
    *_group("pass_s (dispatch_rate)", "population", "mark-loop, lint",
            ("runtime.choose_s", "s", "lower", "Scheduler.choose"),
            ("runtime.instance_lookup_s", "s", "lower",
             "Simulation.instance, Simulation.instances_of")),
    *_group("pass_s (dispatch_rate)", "population", "mark-loop",
            ("runtime.step_s", "s", "lower", "Simulation.step"),
            ("runtime.dispatches", "count", "higher",
             "Simulation.step returning True"),
            ("runtime.ns_per_dispatch", "ns", "lower",
             "Simulation.step, inclusive time per dispatch")),
    *_group("peak_rss_mb", "population", "mark-loop",
            ("runtime.trace_records", "count", "lower",
             "len(sim.trace) before and after Simulation.step")),
    # the evaluator: a faster one shows on lint first, then on population
    *_group("pass_s (lint_s, then dispatch_rate)", "lint, population",
            "none",
            ("exec.eval_s", "s", "lower", "IRExecutor.run"),
            ("exec.ops", "count", "lower",
             "IRExecutor.ops_executed around the outermost IRExecutor.run"),
            ("exec.ns_per_op", "ns", "lower",
             "IRExecutor.run self time per op")),
    # the front end: parse, analyze, lower -- paid cold, then cached
    *_group("phase_geomean_ms (compile_cold_ms), setup_s", "mark-loop",
            "population and lint pass_s",
            ("exec.lower_s", "s", "lower", "lower_component"),
            ("exec.lower_cache.hits", "count", "higher",
             "lower_component, lowering_cache_stats()"),
            ("exec.lower_cache.misses", "count", "lower",
             "lower_component, lowering_cache_stats()"),
            ("oal.parse_s", "s", "lower", "parse_activity"),
            ("oal.analyze_s", "s", "lower", "analyze_activity")),
    # emit
    *_group("phase_geomean_ms (compile_cold_ms, retarget_ms)", "mark-loop",
            "population, lint",
            ("mda.compile_s", "s", "lower", "ModelCompiler.compile"),
            ("mda.emit_class_s", "s", "lower", "emit_class_artifacts"),
            ("mda.emit_interface_s", "s", "lower",
             "emit_interface_artifacts"),
            ("mda.artifact_lines", "count", "lower",
             "lines returned by emit_class_artifacts and "
             "emit_interface_artifacts")),
    # the build store: an integrity check on objects costs on reads
    *_group("phase_geomean_ms (retarget_ms; batch_warm_s on reads; "
            "compile_cold_ms on writes)", "mark-loop", "population, lint",
            ("build.fingerprint_s", "s", "lower", "model_fingerprint"),
            ("build.store.get_s", "s", "lower", "ArtifactStore.get"),
            ("build.store.put_s", "s", "lower", "ArtifactStore.put"),
            ("build.store.hits", "count", "higher",
             "ArtifactStore.get returning bytes"),
            ("build.store.misses", "count", "lower",
             "ArtifactStore.get returning None"),
            ("build.classes_compiled", "count", "lower",
             "IncrementalCompiler.compile, last_stats"),
            ("build.classes_reused", "count", "higher",
             "IncrementalCompiler.compile, last_stats"),
            ("build.compile_s", "s", "lower", "IncrementalCompiler.compile")),
    # the generated architectures and the verifier
    *_group("phase_geomean_ms (conformance_s)", "mark-loop",
            "population, lint",
            ("mda.csim_s", "s", "lower",
             "CSoftwareMachine.run_to_quiescence, run_until"),
            ("mda.vsim_s", "s", "lower",
             "VHardwareMachine.run_to_quiescence, run_until, run_cycles"),
            ("mda.archrt_dispatch_s", "s", "lower",
             "TargetMachine.dispatch (csim, vsim and co-sim)"),
            ("verify.run_case_s", "s", "lower", "run_case")),
    *_group("success_rate (error_rate)", "mark-loop", "population, lint",
            ("verify.cases", "count", "higher", "run_case"),
            ("verify.failed", "count", "lower",
             "run_case results that did not pass")),
    # the co-simulation
    *_group("phase_geomean_ms (cosim_sweep_s)", "mark-loop",
            "population, lint",
            ("cosim.run_s", "s", "lower", "CoSimMachine.run"),
            ("cosim.dispatches", "count", "higher",
             "CoSimMachine.run return value"),
            ("cosim.bus.grant_s", "s", "lower", "Bus.grant"),
            ("cosim.bus.messages", "count", "lower",
             "Bus.grant returning a request"),
            ("cosim.codec.pack_s", "s", "lower", "InterfaceCodec.pack"),
            ("cosim.codec.unpack_s", "s", "lower", "InterfaceCodec.unpack")),
    # the whole-model lint
    *_group("pass_s (lint_s)", "lint", "population, mark-loop",
            ("analysis.graph_s", "s", "lower", "build_graph"),
            ("analysis.explore_s", "s", "lower", "run_scenario"),
            ("analysis.runs", "count", "higher",
             "LintReport.runs_executed of lint_model"),
            ("analysis.lint_s", "s", "lower",
             "lint_model, outside the spans it calls")),
    *_group("none (bookkeeping)", "-", "all",
            ("obs.dump_jsonl_s", "s", "lower",
             "dump_jsonl, in the population output check")),
    # the recorder itself
    *_group("none (must stay small)", "-", "all",
            ("bench.trace_overhead", "ratio", "lower",
             "traced pass wall time / plain pass wall time"),
            ("bench.traced_wall_s", "s", "lower",
             "wall time of one traced pass"),
            ("bench.span_self_s", "s", "lower",
             "sum of every span's self time in one traced pass")),
)


# -- counts taken at the boundaries ----------------------------------------

def _trace_length(args):
    return len(args[0].trace)


def _dispatched(recorder, args, result, trace_before):
    if result:
        recorder.count("runtime.dispatches")
    recorder.count("runtime.trace_records", len(args[0].trace) - trace_before)


def _ops(args):
    return args[0].ops_executed


def _evaluated(recorder, args, result, ops_before):
    if not recorder.inside("exec.eval"):  # nested runs are in the outer count
        recorder.count("exec.ops", args[0].ops_executed - ops_before)


def _misses(args):
    return lowering_cache_stats()["misses"]


def _lowered(recorder, args, result, misses_before):
    missed = lowering_cache_stats()["misses"] > misses_before
    recorder.count("exec.lower_cache.misses" if missed
                   else "exec.lower_cache.hits")


def _emitted(recorder, args, result, token):
    recorder.count("mda.artifact_lines",
                   sum(text.count("\n") for text in result.values()))


def _looked_up(recorder, args, result, token):
    recorder.count("build.store.hits" if result is not None
                   else "build.store.misses")


def _compiled(recorder, args, result, token):
    stats = args[0].last_stats
    recorder.count("build.classes_compiled", stats.classes_compiled)
    recorder.count("build.classes_reused", stats.classes_reused)


def _case_run(recorder, args, result, token):
    recorder.count("verify.cases")
    if not result.passed:
        recorder.count("verify.failed")


def _cosim_ran(recorder, args, result, token):
    recorder.count("cosim.dispatches", result)


def _granted(recorder, args, result, token):
    if result is not None:
        recorder.count("cosim.bus.messages")


def _linted(recorder, args, result, token):
    recorder.count("analysis.runs", result.runs_executed)


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("repro.runtime.simulator:Simulation.step", "runtime.step",
             _trace_length, _dispatched),
    *(Boundary(f"repro.runtime.scheduler:{name}.choose", "runtime.choose")
      for name in ("SynchronousScheduler", "RoundRobinScheduler",
                   "InterleavedScheduler", "PriorityScheduler")),
    Boundary("repro.runtime.simulator:Simulation.instance",
             "runtime.instance_lookup"),
    Boundary("repro.runtime.simulator:Simulation.instances_of",
             "runtime.instance_lookup"),
    Boundary("repro.exec.evaluator:IRExecutor.run", "exec.eval",
             _ops, _evaluated),
    Boundary("repro.exec.cache:lower_component", "exec.lower",
             _misses, _lowered),
    Boundary("repro.oal.parser:parse_activity", "oal.parse"),
    Boundary("repro.oal.analyzer:analyze_activity", "oal.analyze"),
    Boundary("repro.mda.compiler:ModelCompiler.compile", "mda.compile"),
    Boundary("repro.mda.compiler:emit_class_artifacts", "mda.emit_class",
             after=_emitted),
    Boundary("repro.mda.compiler:emit_interface_artifacts",
             "mda.emit_interface", after=_emitted),
    Boundary("repro.build.fingerprint:model_fingerprint",
             "build.fingerprint"),
    Boundary("repro.build.store:ArtifactStore.get", "build.store.get",
             after=_looked_up),
    Boundary("repro.build.store:ArtifactStore.put", "build.store.put"),
    Boundary("repro.build.incremental:IncrementalCompiler.compile",
             "build.compile", after=_compiled),
    Boundary("repro.mda.csim:CSoftwareMachine.run_to_quiescence", "mda.csim"),
    Boundary("repro.mda.csim:CSoftwareMachine.run_until", "mda.csim"),
    Boundary("repro.mda.vsim:VHardwareMachine.run_to_quiescence", "mda.vsim"),
    Boundary("repro.mda.vsim:VHardwareMachine.run_until", "mda.vsim"),
    Boundary("repro.mda.vsim:VHardwareMachine.run_cycles", "mda.vsim"),
    Boundary("repro.mda.archrt:TargetMachine.dispatch",
             "mda.archrt_dispatch"),
    Boundary("repro.verify.runner:run_case", "verify.run_case",
             after=_case_run),
    Boundary("repro.cosim.engine:CoSimMachine.run", "cosim.run",
             after=_cosim_ran),
    Boundary("repro.cosim.bus:Bus.grant", "cosim.bus.grant", after=_granted),
    Boundary("repro.mda.interfacegen:InterfaceCodec.pack",
             "cosim.codec.pack"),
    Boundary("repro.mda.interfacegen:InterfaceCodec.unpack",
             "cosim.codec.unpack"),
    Boundary("repro.analysis.signalflow:build_graph", "analysis.graph"),
    Boundary("repro.analysis.witness:run_scenario", "analysis.explore"),
    Boundary("repro.analysis.report:lint_model", "analysis.lint",
             after=_linted),
    Boundary("repro.obs.export:dump_jsonl", "obs.dump_jsonl"),
)


def layer_values(summary, counts) -> dict[str, float]:
    """Every span and count metric of ``LAYER_MAP`` for one traced pass."""
    values: dict[str, float] = {}
    for metric in LAYER_MAP:
        if metric.name.startswith("bench."):
            continue
        if metric.unit == "s":
            values[metric.name] = summary.get(
                metric.name[:-2], {}).get("self_s", 0.0)
        elif metric.unit == "count":
            values[metric.name] = counts.get(metric.name, 0)
    dispatches = values["runtime.dispatches"]
    step_s = summary.get("runtime.step", {}).get("inclusive_s", 0.0)
    values["runtime.ns_per_dispatch"] = (
        step_s / dispatches * 1e9 if dispatches else 0.0)
    ops = values["exec.ops"]
    values["exec.ns_per_op"] = (
        values["exec.eval_s"] / ops * 1e9 if ops else 0.0)
    return values
