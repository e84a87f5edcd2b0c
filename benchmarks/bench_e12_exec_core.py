"""E12 — one execution core: the unification is free (and usually wins).

The refactor collapsed three OAL executors — the abstract runtime's AST
tree-walker, the architecture runtime's IR evaluator, and the signal-flow
analyzer's private walk — onto one lowered-IR evaluator in
:mod:`repro.exec`.  Two shapes to reproduce:

* **Equivalence** — every catalog model x its golden verify suite
  produces *byte-identical* exported traces on the pinned pre-refactor
  AST path and the live IR path.  The refactor is a code-shape change,
  not a semantics change.
* **Throughput** — the catalog-wide suite sweep on the IR path is no
  slower than 1.05x the AST baseline (sanity bound for CI); in practice
  it is faster, because each model's activities are parsed, analyzed
  and lowered once into the fingerprint-keyed cache instead of being
  re-analyzed on every simulation construction and tree-walked node by
  node thereafter.

The AST baseline executes through a pinned verbatim copy of the retired
interpreter (``tests/exec/pinned_ast_interpreter.py``) so the
comparison stays honest after the original file is long gone.
"""

from __future__ import annotations

import importlib.util
import pathlib
import statistics
import time

from repro.exec import clear_lowering_cache, lowering_cache_stats
from repro.models import build_model
from repro.models.catalog import CATALOG
from repro.obs import dump_jsonl
from repro.runtime import Simulation
from repro.verify import run_case, suite_for

from conftest import print_table

ROUNDS = 5
SLOWDOWN_BOUND = 1.05


def _load_pinned_simulation():
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "tests" / "exec" / "pinned_ast_interpreter.py")
    spec = importlib.util.spec_from_file_location(
        "pinned_ast_interpreter", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PinnedAstSimulation


def _sweep(sim_factory) -> None:
    """One catalog-wide pass: fresh engine per case, full suite each."""
    for entry in CATALOG:
        for case in suite_for(entry.name):
            run_case(case, sim_factory(build_model(entry.name)))


def _median_time(fn, rounds: int = ROUNDS) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_experiment():
    pinned_cls = _load_pinned_simulation()

    # --- equivalence: byte-identical traces, case by case --------------
    mismatches = []
    cases_swept = 0
    for entry in CATALOG:
        for case in suite_for(entry.name):
            pinned = pinned_cls(build_model(entry.name))
            live = Simulation(build_model(entry.name))
            run_case(case, pinned)
            run_case(case, live)
            if dump_jsonl(live.trace) != dump_jsonl(pinned.trace):
                mismatches.append((entry.name, case.name))
            cases_swept += 1

    # --- throughput: catalog-wide sweep on each path --------------------
    clear_lowering_cache()
    ast_s = _median_time(lambda: _sweep(pinned_cls))
    clear_lowering_cache()
    ir_s = _median_time(lambda: _sweep(Simulation))
    cache = lowering_cache_stats()

    return {
        "cases": cases_swept,
        "mismatches": mismatches,
        "ast_s": ast_s,
        "ir_s": ir_s,
        "cache": cache,
    }


def test_e12_exec_core(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    ast_ms = results["ast_s"] * 1000
    ir_ms = results["ir_s"] * 1000
    ratio = results["ir_s"] / results["ast_s"]
    print_table(
        "E12: one execution core (catalog x golden suites)",
        f"{'path':<28}{'sweep ms':>12}{'vs AST':>10}",
        [
            f"{'AST tree-walker (pinned)':<28}{ast_ms:>12.1f}{'1.00x':>10}",
            f"{'lowered-IR core (live)':<28}{ir_ms:>12.1f}"
            f"{ratio:>9.2f}x",
        ],
    )
    print(f"equivalence: {results['cases']} suite cases, "
          f"{len(results['mismatches'])} trace mismatch(es)")
    print(f"lowering cache after IR sweep: {results['cache']['entries']} "
          f"entrie(s), {results['cache']['hits']} hit(s), "
          f"{results['cache']['misses']} miss(es)")

    # shape: the refactor changed nothing observable
    assert results["mismatches"] == [], results["mismatches"]
    assert results["cases"] >= 20

    # shape: the unified core costs at most 5% — and the cache proves the
    # per-model lowering was paid once, not once per construction
    assert results["ir_s"] <= SLOWDOWN_BOUND * results["ast_s"], (
        f"IR path {ir_ms:.1f}ms is more than {SLOWDOWN_BOUND}x the "
        f"AST baseline {ast_ms:.1f}ms")
    assert results["cache"]["misses"] == len(CATALOG)
    assert results["cache"]["hits"] > results["cache"]["misses"]

    benchmark.extra_info["ast_ms"] = round(ast_ms, 2)
    benchmark.extra_info["ir_ms"] = round(ir_ms, 2)
    benchmark.extra_info["ir_vs_ast"] = round(ratio, 3)
    benchmark.extra_info["cases"] = results["cases"]
