"""The trace's cause-and-effect readers, pinned over 330 traces.

Every catalog suite case (22) runs on fifteen executors: the abstract
runtime under its synchronous, eager-dispatch and interleaved schedulers,
csim on the all-software build, vsim on the all-hardware build, the
fault-free co-simulation on both builds, and the chaos co-simulation
(protected and unprotected builds, fault rates 0.02 and 0.05, seeds 7
and 1).  The digest covers what ``check_causality``,
``check_receiver_fifo`` and ``critical_path`` report on each trace; it
was recorded before those readers came to share one causal index.
"""

from __future__ import annotations

import hashlib

from repro.cosim import CoSimMachine, FaultPlan
from repro.marks.partition import marks_for_partition
from repro.mda.compiler import ModelCompiler
from repro.mda.csim import CSoftwareMachine
from repro.mda.vsim import VHardwareMachine
from repro.models import build_model
from repro.models.catalog import CATALOG
from repro.obs import critical_path
from repro.runtime import (
    InterleavedScheduler,
    Simulation,
    check_causality,
    check_receiver_fifo,
)
from repro.verify import run_case, suite_for
from repro.verify.chaos import case_seed, chaos_build

FAULTED = tuple(
    (protected, rate, seed)
    for protected in (True, False)
    for rate in (0.02, 0.05)
    for seed in (7, 1)
)

#: sha256 of :func:`reader_report`, recorded before the shared index
READERS_DIGEST = (
    "da4520a03588f578455f6732df2a39f84550eece0c905b621ad47346b56e9ff0")


def executor_factories(model_name: str) -> dict:
    """Executor name -> factory(case name) for one catalog model."""
    model = build_model(model_name)
    component = model.components[0]
    compiler = ModelCompiler(model)
    sw_build = compiler.compile(marks_for_partition(component, ()))
    hw_build = compiler.compile(
        marks_for_partition(component, tuple(component.class_keys)))
    factories = {
        "abstract": lambda case: Simulation(build_model(model_name)),
        "eager": lambda case: Simulation(
            build_model(model_name), eager_dispatch=True),
        "interleaved": lambda case: Simulation(
            build_model(model_name), scheduler=InterleavedScheduler(1)),
        "csim": lambda case: CSoftwareMachine(sw_build.manifest),
        "vsim": lambda case: VHardwareMachine(hw_build.manifest),
        "cosim-sw": lambda case: CoSimMachine(sw_build),
        "cosim-hw": lambda case: CoSimMachine(hw_build),
    }
    chaos = {protected: chaos_build(model_name, protected=protected)
             for protected in (True, False)}
    for protected, rate, seed in FAULTED:
        name = (f"chaos-{'p' if protected else 'u'}-{rate}-{seed}")
        factories[name] = (
            lambda case, build=chaos[protected], rate=rate, seed=seed:
            CoSimMachine(build, None, FaultPlan.uniform(
                case_seed(seed, rate, case), rate)))
    return factories


def traces():
    """Yield ``((model, case, executor), trace)`` over all 330 runs."""
    for entry in CATALOG:
        factories = executor_factories(entry.name)
        for case in suite_for(entry.name):
            for name, factory in factories.items():
                machine = factory(case.name)
                run_case(case, machine)
                yield (entry.name, case.name, name), machine.trace


def reader_report() -> tuple[int, int, int, str]:
    """(runs, traces with causality violations, traces with FIFO
    violations, the readers' rendered output over every run)."""
    lines: list[str] = []
    runs = causal = fifo = 0
    for key, trace in traces():
        runs += 1
        violations = check_causality(trace)
        reorderings = check_receiver_fifo(trace)
        causal += bool(violations)
        fifo += bool(reorderings)
        lines.append("== " + " / ".join(key))
        lines.extend(f"causality: {v}" for v in violations)
        lines.extend(f"fifo: {v}" for v in reorderings)
        lines.append(critical_path(trace).render())
    return runs, causal, fifo, "\n".join(lines)


def test_readers_match_the_recorded_digest():
    runs, causal, fifo, text = reader_report()
    assert (runs, causal, fifo) == (330, 19, 4)
    assert hashlib.sha256(text.encode()).hexdigest() == READERS_DIGEST
