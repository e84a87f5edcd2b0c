"""Command-line interface: ``python -m repro <command> ...``.

The tool surface a downstream user drives without writing Python:

* ``export``  — write a catalog model to a JSON model file
* ``info``    — size/stat summary of a model file
* ``check``   — well-formedness report (exit 1 on errors)
* ``lint``    — whole-model signal-flow lint: races, lost signals,
  stall cycles and partition-protocol checks with replayable
  interleaving witnesses (E11)
* ``compile`` — run the model compiler against a marking file and
  materialize the generated C/VHDL artifacts
* ``verify``  — run a catalog model's formal suite on all platforms
* ``sweep``   — co-simulate candidate partitions of the packet SoC
* ``chaos``   — replay a formal suite under injected bus faults (E8)
* ``batch``   — compile the catalog × mark-variant matrix in parallel
  against the content-addressed build cache (E9)
* ``trace``   — export a run's execution trace as versioned JSONL (or
  load/verify one), with optional critical-path analysis (E10)
* ``metrics`` — run a model through the runtime, the co-simulation and
  the build cache with the metrics registry active and report it

Model files are the JSON format of :mod:`repro.xuml.serialize`; marking
files are the sticky-note format of :class:`repro.marks.MarkSet`.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.marks import MarkError, MarkSet, validate_marks
from repro.mda import ModelCompiler
from repro.xuml import Severity, check_model, model_from_json, model_to_json


def _load_model(path: str):
    return model_from_json(pathlib.Path(path).read_text())


def _load_marks(path: str | None) -> MarkSet:
    if path is None:
        return MarkSet()
    return MarkSet.loads(pathlib.Path(path).read_text())


def cmd_export(args) -> int:
    from repro.models import build_model

    model = build_model(args.name)
    text = model_to_json(model)
    if args.output == "-":
        print(text)
    else:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    return 0


def cmd_info(args) -> int:
    model = _load_model(args.model)
    print(f"model {model.name}: {model.description or '(no description)'}")
    for key, value in model.stats().items():
        print(f"  {key:13s} {value}")
    for component in model.components:
        print(f"component {component.name}:")
        for klass in component.classes:
            machine = klass.statemachine
            shape = (f"{len(machine.states)} states, "
                     f"{len(machine.transitions)} transitions"
                     if not machine.is_empty() else "passive")
            print(f"  {klass.key_letters:4s} {klass.name:24s} {shape}")
    return 0


def cmd_check(args) -> int:
    model = _load_model(args.model)
    violations = sorted(check_model(model),
                        key=lambda v: (v.element, v.message))
    errors = [v for v in violations if v.severity is Severity.ERROR]
    warnings = [v for v in violations if v.severity is Severity.WARNING]
    for violation in violations:
        print(violation)
    print(f"{len(errors)} error(s), {len(warnings)} warning(s)")
    from repro.exec import CORE_NAME

    print(f"execution core: {CORE_NAME} (lowered action IR)")
    if errors:
        return 1
    return 1 if warnings and args.strict_warnings else 0


def _load_model_or_catalog(name: str):
    """A model JSON file path, or a catalog model name."""
    path = pathlib.Path(name)
    if path.suffix == ".json" or path.exists():
        return _load_model(name)
    from repro.models import build_model

    return build_model(name)


def cmd_lint(args) -> int:
    import json

    from repro.analysis.report import (
        lint_model,
        load_baseline,
        write_baseline,
    )

    try:
        baseline = (load_baseline(args.baseline)
                    if args.baseline else frozenset())
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    try:
        marks = _load_marks(args.marks) if args.marks else None
    except (MarkError, OSError) as exc:
        print(f"lint: {args.marks}: {exc}", file=sys.stderr)
        return 2

    reports = []
    for name in args.models:
        try:
            model = _load_model_or_catalog(name)
        except (KeyError, OSError, ValueError) as exc:
            reason = exc.args[0] if exc.args else exc
            print(f"lint: {name}: {reason}", file=sys.stderr)
            return 2
        try:
            reports.append(lint_model(
                model,
                component=args.component,
                marks=marks,
                baseline=baseline,
                explore=not args.no_witness,
                schedules=args.schedules,
                seed=args.seed,
                max_steps=args.max_steps,
            ))
        except KeyError as exc:
            print(f"lint: {name}: {exc.args[0]}", file=sys.stderr)
            return 2

    if args.json:
        print(json.dumps([r.to_json() for r in reports],
                         indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render())

    if args.write_baseline:
        count = write_baseline(args.write_baseline, reports)
        print(f"wrote {args.write_baseline} ({count} suppression keys)",
              file=sys.stderr)
        return 0
    return max((r.exit_code(args.fail_on) for r in reports), default=0)


def cmd_compile(args) -> int:
    model = _load_model(args.model)
    try:
        marks = _load_marks(args.marks)
    except (MarkError, OSError) as exc:
        print(f"compile: {args.marks}: {exc}", file=sys.stderr)
        return 1
    mark_problems = validate_marks(marks, model)
    for problem in mark_problems:
        print(f"mark: {problem}", file=sys.stderr)
    if mark_problems:
        return 1
    compiler = ModelCompiler(model, component=args.component)
    build = compiler.compile(marks)
    print(build.partition.describe())
    findings = build.lint()
    for finding in findings:
        print(f"lint: {finding}", file=sys.stderr)
    written = build.write_to(args.output)
    print(f"wrote {len(written)} artifacts "
          f"({build.total_lines()} lines) to {args.output}")
    return 1 if findings else 0


def cmd_verify(args) -> int:
    from repro.models import build_model
    from repro.verify import check_conformance, suite_for

    model = build_model(args.name)
    report = check_conformance(model, suite_for(args.name))
    print(report.render())
    return 0 if report.conformant else 1


def cmd_export_suite(args) -> int:
    from repro.verify import suite_for, suite_to_json

    text = suite_to_json(suite_for(args.name))
    if args.output == "-":
        print(text)
    else:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    return 0


def cmd_run_suite(args) -> int:
    from repro.verify import check_conformance, suite_from_json

    model = _load_model(args.model)
    cases = suite_from_json(pathlib.Path(args.suite).read_text())
    report = check_conformance(model, cases)
    print(report.render())
    return 0 if report.conformant else 1


def cmd_sweep(args) -> int:
    from repro.cosim import (
        best_partition,
        poisson_packets,
        render_table,
        sweep_partitions,
        write_csv,
    )
    from repro.models import build_packetproc_model

    model = build_packetproc_model()
    candidates = [(), ("CE",), ("D",), ("CE", "D"), ("CE", "CL", "D")]
    packets = poisson_packets(args.packets, rate_per_ms=args.rate,
                              seed=args.seed)
    rows = sweep_partitions(model, candidates, packets)
    print(render_table(rows))
    print(f"winner: {best_partition(rows).label}")
    if args.csv:
        print(f"wrote {write_csv(rows, args.csv)}")
    return 0


def cmd_batch(args) -> int:
    from repro.build import (
        ArtifactStore,
        StoreError,
        catalog_matrix,
        render_batch_table,
        render_cache_summary,
        run_batch,
        write_batch_csv,
    )

    if args.jobs < 1:
        print(f"batch: --jobs must be >= 1, got {args.jobs}",
              file=sys.stderr)
        return 1
    if args.min_hit_rate is not None and not 0.0 <= args.min_hit_rate <= 1.0:
        print(f"batch: --min-hit-rate must be within 0..1, got "
              f"{args.min_hit_rate}", file=sys.stderr)
        return 1
    try:
        matrix = catalog_matrix(tuple(args.models) or None)
    except KeyError as exc:
        print(f"batch: {exc.args[0]}", file=sys.stderr)
        return 1
    cache_dir = None if args.no_cache else args.cache_dir
    if cache_dir is not None:
        try:
            store = ArtifactStore(cache_dir)
            probe = store.root / ".write-probe"
            probe.write_text("")
            probe.unlink()
        except (StoreError, OSError) as exc:
            print(f"batch: cache directory {cache_dir!r} is not "
                  f"writable: {exc}", file=sys.stderr)
            return 1
    report = run_batch(matrix, jobs=args.jobs, cache_dir=cache_dir,
                       gc_bytes=args.gc_bytes)
    print(render_batch_table(report))
    print(render_cache_summary(report))
    if args.csv:
        print(f"wrote {write_batch_csv(report, args.csv)}")
    for result in report.failed:
        print(f"batch: {result.job.label} failed: {result.error}",
              file=sys.stderr)
    if (args.min_hit_rate is not None
            and report.hit_rate < args.min_hit_rate):
        print(f"batch: cache hit rate {report.hit_rate * 100:.1f}% is "
              f"below the required {args.min_hit_rate * 100:.0f}%",
              file=sys.stderr)
        return 1
    return 1 if report.failed else 0


def cmd_chaos(args) -> int:
    from repro.models import build_model
    from repro.verify import chaos_sweep

    try:
        rates = tuple(float(r) for r in args.rates.split(","))
    except ValueError:
        print(f"chaos: --rates must be a comma-separated list of "
              f"numbers, got {args.rates!r}", file=sys.stderr)
        return 1
    if any(not 0.0 <= r <= 1.0 for r in rates):
        print(f"chaos: fault rates must be within 0..1, got "
              f"{args.rates!r}", file=sys.stderr)
        return 1
    hardware = tuple(args.hardware.split(",")) if args.hardware else None
    if hardware:
        known = set(build_model(args.name).components[0].class_keys)
        unknown = [key for key in hardware if key not in known]
        if unknown:
            print(f"chaos: no class {'/'.join(unknown)} in {args.name} "
                  f"(have {'/'.join(sorted(known))})", file=sys.stderr)
            return 1
    protected = chaos_sweep(args.name, hardware=hardware, rates=rates,
                            seed=args.seed, protected=True)
    unprotected = chaos_sweep(args.name, hardware=hardware, rates=rates,
                              seed=args.seed, protected=False)
    print(protected.render())
    print()
    print(unprotected.render())
    base = unprotected.points[0]
    prot = protected.points[0]
    if base.bus_bytes:
        overhead = prot.bus_bytes / base.bus_bytes - 1.0
        print(f"\nframing overhead at rate 0: "
              f"{overhead * 100:.0f}% bus bytes "
              f"({prot.bus_bytes} vs {base.bus_bytes})")
    if args.csv:
        _write_chaos_csv(args.csv, protected, unprotected)
        print(f"wrote {args.csv}")
    # protected must conform; unprotected may fail cases but never crash
    return 0 if protected.conformant and not unprotected.crashed else 1


def _write_chaos_csv(path: str, *reports) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([
            "model", "protected", "rate", "cases_clean", "cases_total",
            "causality", "injected", "detected", "retransmissions",
            "recovered", "lost", "delivered_corrupted", "bus_bytes",
            "mean_makespan_ns",
        ])
        for report in reports:
            for point in report.points:
                stats = point.fault_stats
                writer.writerow([
                    report.model, int(report.protected), point.rate,
                    sum(1 for c in point.cases if c.clean),
                    len(point.cases), point.causality_violations,
                    stats.injected, stats.detected, stats.retransmissions,
                    stats.recovered, stats.lost, stats.delivered_corrupted,
                    point.bus_bytes, f"{point.mean_makespan_ns:.0f}",
                ])


def cmd_trace(args) -> int:
    from repro.obs import (
        TraceSchemaError,
        critical_path,
        dump_jsonl,
        load_jsonl,
    )

    if args.load is not None:
        source = pathlib.Path(args.load)
        try:
            text = source.read_text()
        except OSError as exc:
            print(f"trace: cannot read {args.load!r}: {exc}",
                  file=sys.stderr)
            return 1
        try:
            trace = load_jsonl(text)
        except TraceSchemaError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 1
        if args.check:
            if dump_jsonl(trace) != text:
                print("trace: round-trip is not byte-identical",
                      file=sys.stderr)
                return 1
            print(f"{args.load}: valid {len(trace)}-event trace, "
                  f"round-trips byte-identically")
    else:
        from repro.models import build_model
        from repro.runtime import Simulation
        from repro.verify import run_case, suite_for

        if args.name is None:
            print("trace: a catalog model name (or --load FILE) is "
                  "required", file=sys.stderr)
            return 1
        try:
            suite = suite_for(args.name)
        except KeyError as exc:
            print(f"trace: {exc.args[0]}", file=sys.stderr)
            return 1
        if args.case is None:
            case = suite[0]
        else:
            matches = [c for c in suite if c.name == args.case]
            if not matches:
                print(f"trace: no case {args.case!r} in the {args.name} "
                      f"suite (have "
                      f"{'/'.join(c.name for c in suite)})",
                      file=sys.stderr)
                return 1
            case = matches[0]
        sim = Simulation(build_model(args.name))
        result = run_case(case, sim)
        if result.error:
            print(f"trace: case {case.name} errored: {result.error}",
                  file=sys.stderr)
            return 1
        trace = sim.trace

    if args.output:
        pathlib.Path(args.output).write_text(dump_jsonl(trace))
        print(f"wrote {args.output} ({len(trace)} events)")
    if args.critical:
        print(critical_path(trace).render())
    if not args.output and not args.critical and args.load is None:
        sys.stdout.write(dump_jsonl(trace))
    return 0


#: Metric-name prefixes ``repro metrics --require`` insists on seeing.
_METRIC_GROUPS = ("runtime.", "cosim.", "build.")


def cmd_metrics(args) -> int:
    import json
    import tempfile

    from repro.build import BatchJob, run_batch
    from repro.cosim import CoSimMachine
    from repro.exec import lowering_cache_stats
    from repro.models import build_model
    from repro.obs import observe
    from repro.runtime import Simulation
    from repro.verify import chaos_build, run_case, suite_for

    try:
        suite = suite_for(args.name)
    except KeyError as exc:
        print(f"metrics: {exc.args[0]}", file=sys.stderr)
        return 1
    cache_before = lowering_cache_stats()
    with observe() as registry:
        # runtime: the formal suite on the abstract model
        for case in suite:
            run_case(case, Simulation(build_model(args.name)))
        # co-sim + bus: one case across the default boundary partition
        cosim = CoSimMachine(chaos_build(args.name))
        run_case(suite[0], cosim)
        # build cache: the same job twice — a cold miss, then a warm hit
        with tempfile.TemporaryDirectory() as tmp:
            job = BatchJob(args.name, "sw-only", ())
            report = run_batch([job, job], jobs=1, cache_dir=tmp)
    cache_after = lowering_cache_stats()
    # the hooks above record per-event samples only; every count has one
    # owner, the object that did the work, and is read from it here
    store = report.store
    counts = {
        "build.jobs_ok": len(report.results) - len(report.failed),
        "build.jobs_failed": len(report.failed),
        "build.worker_failures": report.worker_failures,
        "build.store.hits": store.hits,
        "build.store.misses": store.misses,
        "build.store.puts": store.puts,
        "build.store.evictions": store.evictions,
        "cosim.bus.messages": cosim.bus.stats.messages,
        "cosim.bus.bytes_moved": cosim.bus.stats.bytes_moved,
        "cosim.bus.busy_ns": cosim.bus.stats.busy_ns,
        "cosim.retransmissions": cosim.fault_stats.retransmissions,
        "cosim.signals_routed": cosim.signals_routed,
        "exec.lower_cache.hits": cache_after["hits"] - cache_before["hits"],
        "exec.lower_cache.misses":
            cache_after["misses"] - cache_before["misses"],
    }
    for name, value in counts.items():
        registry.counter(name).inc(value)
    for name, value in cosim.utilization_report().items():
        registry.gauge(f"cosim.occupancy.{name}").set(value)
    wall = registry.histogram("build.job_wall_ms")
    for result in report.results:
        wall.observe(result.elapsed_s * 1_000)

    if args.json:
        print(json.dumps(registry.as_dict(), indent=2, sort_keys=True))
    else:
        print(registry.render_table())
    if args.require:
        quiet = [
            group for group in _METRIC_GROUPS
            if not any(c.value for c in registry.counters
                       if c.name.startswith(group))
            and not any(h.count for h in registry.histograms
                        if h.name.startswith(group))
        ]
        if quiet:
            print(f"metrics: no activity recorded under "
                  f"{'/'.join(quiet)}", file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable/Translatable UML toolchain for SoC",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    export = commands.add_parser(
        "export", help="write a catalog model to a JSON model file")
    export.add_argument("name", help="catalog model name (e.g. microwave)")
    export.add_argument("-o", "--output", default="-",
                        help="output path ('-' for stdout)")
    export.set_defaults(func=cmd_export)

    info = commands.add_parser("info", help="summarize a model file")
    info.add_argument("model", help="model JSON file")
    info.set_defaults(func=cmd_info)

    check = commands.add_parser(
        "check", help="well-formedness report (exit 1 on errors)")
    check.add_argument("model", help="model JSON file")
    check.add_argument("--strict-warnings", action="store_true",
                       help="also exit 1 when the report contains warnings")
    check.set_defaults(func=cmd_check)

    lint = commands.add_parser(
        "lint",
        help="whole-model signal-flow lint with interleaving witnesses "
             "(E11)")
    lint.add_argument("models", nargs="+",
                      help="catalog model names or model JSON files")
    lint.add_argument("--marks", help="marking (.mks) file — enables the "
                                      "partition-protocol checks")
    lint.add_argument("--component", help="component name (defaults to "
                                          "the model's first component)")
    lint.add_argument("--json", action="store_true",
                      help="print the reports as a JSON array")
    lint.add_argument("--fail-on", choices=("error", "warning"),
                      default="error",
                      help="severity that makes the exit code non-zero "
                           "(default: error)")
    lint.add_argument("--baseline", metavar="FILE",
                      help="suppress findings recorded in this baseline "
                           "file")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="record every current finding as accepted and "
                           "exit 0")
    lint.add_argument("--no-witness", action="store_true",
                      help="static analysis only; skip the bounded "
                           "interleaving explorer")
    lint.add_argument("--seed", type=int, default=0,
                      help="explorer seed (witness search reproduces "
                           "exactly; default 0)")
    lint.add_argument("--schedules", type=int, default=24,
                      help="explored schedules per scenario (default 24)")
    lint.add_argument("--max-steps", type=int, default=1000,
                      help="dispatch budget per explored run (default 1000)")
    lint.set_defaults(func=cmd_lint)

    compile_cmd = commands.add_parser(
        "compile", help="translate a model against a marking file")
    compile_cmd.add_argument("model", help="model JSON file")
    compile_cmd.add_argument("--marks", help="marking (.mks) file")
    compile_cmd.add_argument("--component", help="component name "
                             "(defaults to the model's only component)")
    compile_cmd.add_argument("-o", "--output", default="generated",
                             help="artifact output directory")
    compile_cmd.set_defaults(func=cmd_compile)

    verify = commands.add_parser(
        "verify", help="run a catalog model's formal suite on all platforms")
    verify.add_argument("name", help="catalog model name")
    verify.set_defaults(func=cmd_verify)

    export_suite = commands.add_parser(
        "export-suite", help="write a catalog model's formal suite to JSON")
    export_suite.add_argument("name", help="catalog model name")
    export_suite.add_argument("-o", "--output", default="-",
                              help="output path ('-' for stdout)")
    export_suite.set_defaults(func=cmd_export_suite)

    run_suite = commands.add_parser(
        "run-suite",
        help="run a suite file against a model file on all platforms")
    run_suite.add_argument("model", help="model JSON file")
    run_suite.add_argument("suite", help="suite JSON file")
    run_suite.set_defaults(func=cmd_run_suite)

    sweep = commands.add_parser(
        "sweep", help="co-simulate candidate partitions of the packet SoC")
    sweep.add_argument("--rate", type=float, default=150.0,
                       help="offered load, packets per millisecond")
    sweep.add_argument("--packets", type=int, default=200,
                       help="number of packets to inject")
    sweep.add_argument("--seed", type=int, default=7, help="workload seed")
    sweep.add_argument("--csv", help="also write results to this CSV file")
    sweep.set_defaults(func=cmd_sweep)

    batch = commands.add_parser(
        "batch",
        help="compile the catalog x mark-variant matrix against the "
             "build cache (E9)")
    batch.add_argument("models", nargs="*",
                       help="catalog model names (default: all)")
    batch.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes (>= 1; default 1)")
    batch.add_argument("--cache-dir", default=".repro-cache",
                       help="content-addressed artifact cache directory")
    batch.add_argument("--no-cache", action="store_true",
                       help="compile everything from scratch (no store)")
    batch.add_argument("--gc-bytes", type=int, default=None,
                       help="evict least-recently-used cache objects "
                            "beyond this byte budget")
    batch.add_argument("--min-hit-rate", type=float, default=None,
                       help="exit 1 unless the cache hit rate reaches "
                            "this fraction (CI smoke)")
    batch.add_argument("--csv",
                       help="also write per-job results to this CSV file")
    batch.set_defaults(func=cmd_batch)

    chaos = commands.add_parser(
        "chaos",
        help="replay a model's formal suite under injected bus faults (E8)")
    chaos.add_argument("name", help="catalog model name")
    chaos.add_argument("--hardware",
                       help="comma-separated hardware class keys "
                            "(default: receiver of the first boundary flow)")
    chaos.add_argument("--rates", default="0.0,0.01,0.02,0.05",
                       help="comma-separated fault rates to sweep")
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-injection seed (runs reproduce exactly)")
    chaos.add_argument("--csv", help="also write both sweeps to this CSV file")
    chaos.set_defaults(func=cmd_chaos)

    trace = commands.add_parser(
        "trace",
        help="export a run's trace as versioned JSONL, or load/verify "
             "one (E10)")
    trace.add_argument("name", nargs="?",
                       help="catalog model name to run and trace")
    trace.add_argument("--case",
                       help="suite case to run (default: the first)")
    trace.add_argument("--load", metavar="FILE",
                       help="load an existing JSONL trace instead of "
                            "running a model")
    trace.add_argument("--check", action="store_true",
                       help="with --load: exit 1 unless the stream "
                            "round-trips byte-identically")
    trace.add_argument("--critical", action="store_true",
                       help="print the trace's critical path")
    trace.add_argument("-o", "--output",
                       help="write the JSONL stream to this file")
    trace.set_defaults(func=cmd_trace)

    metrics = commands.add_parser(
        "metrics",
        help="exercise a model across the runtime, the co-sim and the "
             "build cache and report the metrics registry")
    metrics.add_argument("name", help="catalog model name")
    metrics.add_argument("--json", action="store_true",
                         help="print the registry snapshot as JSON")
    metrics.add_argument("--require", action="store_true",
                         help="exit 1 unless runtime/cosim/build metrics "
                              "all recorded activity (CI smoke)")
    metrics.set_defaults(func=cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
