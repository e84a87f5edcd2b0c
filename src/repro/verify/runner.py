"""Test-case runner.

Executes a :class:`~repro.verify.testcase.TestCase` on one executor --
:class:`~repro.runtime.Simulation`, csim, vsim or the co-simulation, all
of which share the :class:`~repro.runtime.dispatcher.Dispatcher` run
surface -- collecting every assertion failure (a verification tool
reports all of them, not just the first).
"""

from __future__ import annotations

from .testcase import (
    AdvanceStep,
    CreateStep,
    CreationEventStep,
    ExpectAttr,
    ExpectAttrOnOnly,
    ExpectCount,
    ExpectState,
    Failure,
    InjectStep,
    RelateStep,
    RunStep,
    TestCase,
    TestResult,
)


def run_case(case: TestCase, target) -> TestResult:
    """Run *case* on executor *target*; never raises for assertion failures."""
    result = TestResult(case.name, target.name)
    bindings: dict[str, int] = {}
    try:
        for index, step in enumerate(case.steps):
            _run_step(step, index, target, bindings, result)
    except Exception as exc:                          # noqa: BLE001
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def _resolve(bindings: dict[str, int], name: str) -> int:
    try:
        return bindings[name]
    except KeyError:
        raise KeyError(f"test case never created an instance named {name!r}") \
            from None


def _run_step(step, index: int, target,
              bindings: dict[str, int], result: TestResult) -> None:
    if isinstance(step, CreateStep):
        bindings[step.name] = target.create_instance(
            step.class_key, **step.attributes)
    elif isinstance(step, RelateStep):
        target.relate(
            _resolve(bindings, step.left), _resolve(bindings, step.right),
            step.association, step.phrase)
    elif isinstance(step, InjectStep):
        target.inject(_resolve(bindings, step.name), step.label,
                      dict(step.params), delay=step.delay_us)
    elif isinstance(step, CreationEventStep):
        target.send_creation(step.class_key, step.label, dict(step.params))
    elif isinstance(step, RunStep):
        target.run_to_quiescence(step.max_steps)
    elif isinstance(step, AdvanceStep):
        target.run_until(step.time_us)
    elif isinstance(step, ExpectState):
        actual = target.state_of(_resolve(bindings, step.name))
        if actual != step.state:
            result.failures.append(Failure(
                index, f"{step.name}: expected state {step.state!r}, "
                       f"got {actual!r}"))
    elif isinstance(step, ExpectAttr):
        actual = target.read_attribute(
            _resolve(bindings, step.name), step.attribute)
        if actual != step.value:
            result.failures.append(Failure(
                index, f"{step.name}.{step.attribute}: expected "
                       f"{step.value!r}, got {actual!r}"))
    elif isinstance(step, ExpectCount):
        actual = len(target.instances_of(step.class_key))
        if actual != step.count:
            result.failures.append(Failure(
                index, f"population of {step.class_key}: expected "
                       f"{step.count}, got {actual}"))
    elif isinstance(step, ExpectAttrOnOnly):
        handles = target.instances_of(step.class_key)
        if len(handles) != 1:
            result.failures.append(Failure(
                index, f"expected exactly one {step.class_key}, "
                       f"got {len(handles)}"))
        else:
            actual = target.read_attribute(handles[0], step.attribute)
            if actual != step.value:
                result.failures.append(Failure(
                    index, f"only {step.class_key}.{step.attribute}: "
                           f"expected {step.value!r}, got {actual!r}"))
    else:
        raise TypeError(f"unknown step {type(step).__name__}")

