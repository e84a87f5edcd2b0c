"""Bounded interleaving exploration with replayable witnesses.

The detectors in :mod:`repro.analysis.detectors` work on state tables
and the signal-flow graph, which makes them fast and complete but
necessarily approximate: a drop site that *exists* in the table may be
unreachable under the dispatch rules (self-events-first quietly
protects a lot of CANT_HAPPEN rows), and a race candidate may collapse
to one outcome under every legal schedule.

This module closes the loop against the repo's own executable
semantics.  It extracts stimulus :class:`Scenario` s from the model's
formal verify suite, drives :class:`repro.runtime.Simulation` over them
under the synchronous baseline plus a budget of seeded adversarial
schedules, and — when a run actually exhibits the suspect drop or a
schedule-dependent outcome — packages the recorded dispatch choices as
a :class:`Witness` that :func:`replay_witness` can re-execute
deterministically.  A finding with a witness is a defect; a suspect no
schedule in budget could realize gets downgraded, not reported as
ERROR.  That asymmetry is the acceptance bar: zero false ERRORs.

Most seeded schedules repeat one already run: a scenario with few real
choice points (or none, like a timer cycle) gives the same schedule
under every seed.  Each scenario's runs therefore go into a
:class:`ChoiceTree` keyed by their choice paths, the sorted ready
sources and the source picked at each dispatch.  A run is a
deterministic function of its choices, and a seeded run draws each one
with :meth:`InterleavedScheduler.pick` over the ready sources.  Drawing
with the seed's generator over the recorded options therefore follows
the exact path that seed's run would take; when the walk reaches a
recorded run, that record *is* the seed's record and the run is not
executed again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from repro.runtime.scheduler import (
    InterleavedScheduler,
    Scheduler,
    SynchronousScheduler,
)
from repro.runtime.simulator import Simulation
from repro.runtime.tracing import TraceKind
from repro.verify.runner import apply_stimulus
from repro.verify.testcase import (
    CreateStep,
    CreationEventStep,
    InjectStep,
    RelateStep,
)
from repro.xuml.model import Model

#: Marker state for signals whose target died before delivery.
DELETED = "(deleted)"


@dataclass(frozen=True)
class Scenario:
    """A setup-and-stimulus script distilled from one formal test case.

    Only population-building and stimulus steps survive the
    distillation — expectations belong to conformance, not exploration.
    The ``+concurrent`` variant of a case strips inject delays so that
    stimuli the suite spaces out in time genuinely contend.
    """

    name: str
    steps: tuple = ()
    source_case: str = ""

    def describe_steps(self) -> list[str]:
        out = []
        for step in self.steps:
            if isinstance(step, CreateStep):
                out.append(f"create {step.name}: {step.class_key}")
            elif isinstance(step, RelateStep):
                out.append(f"relate {step.left} {step.right} {step.association}")
            elif isinstance(step, InjectStep):
                delay = f" delay {step.delay_us}us" if step.delay_us else ""
                out.append(f"inject {step.label} to {step.name}{delay}")
            elif isinstance(step, CreationEventStep):
                out.append(f"creation {step.label}:{step.class_key}")
        return out


_STIMULUS_STEPS = (CreateStep, RelateStep, InjectStep, CreationEventStep)


def scenarios_from_cases(cases) -> tuple[Scenario, ...]:
    """Distill exploration scenarios from formal test cases.

    Each case yields its as-written scenario plus, when it has delayed
    injects, a ``+concurrent`` variant with the delays stripped —
    suites deliberately separate stimuli in time to pin down one
    outcome, which is exactly the separation a race needs removed.
    """
    scenarios: list[Scenario] = []
    seen: set[tuple] = set()

    def add(name: str, steps: tuple, source: str) -> None:
        key = tuple(
            (type(s).__name__, getattr(s, "name", getattr(s, "class_key", "")),
             getattr(s, "label", ""), str(sorted(getattr(s, "params", getattr(s, "attributes", {})).items())),
             getattr(s, "delay_us", 0))
            for s in steps
        )
        if key in seen:
            return
        seen.add(key)
        scenarios.append(Scenario(name, steps, source))

    for case in cases:
        steps = tuple(s for s in case.steps if isinstance(s, _STIMULUS_STEPS))
        if not any(isinstance(s, (InjectStep, CreationEventStep)) for s in steps):
            continue
        add(case.name, steps, case.name)
        if any(isinstance(s, InjectStep) and s.delay_us for s in steps):
            stripped = tuple(
                InjectStep(s.name, s.label, s.params, 0)
                if isinstance(s, InjectStep) else s
                for s in steps
            )
            add(f"{case.name}+concurrent", stripped, case.name)
    return tuple(scenarios)


def scenarios_for_model(model_name: str) -> tuple[Scenario, ...]:
    """Scenarios for a catalog model, from its formal verify suite."""
    from repro.verify.suites import SUITES

    wanted = model_name.lower()
    builder = SUITES.get(wanted)
    if builder is None:
        # tolerate model-name/catalog-name drift (PacketProcessor vs packetproc)
        for key, candidate in SUITES.items():
            if wanted.startswith(key) or key.startswith(wanted):
                builder = candidate
                break
    if builder is None:
        return ()
    return scenarios_from_cases(builder())


def stimuli_from_scenarios(scenarios) -> dict[str, frozenset[str]]:
    """Which labels the environment injects into which class.

    Feeds :class:`repro.analysis.signalflow.SignalFlowGraph` so that
    injected events count as "can arrive anywhere" and as generated for
    send-aware reachability.
    """
    by_class: dict[str, set[str]] = {}
    for scenario in scenarios:
        names: dict[str, str] = {}
        for step in scenario.steps:
            if isinstance(step, CreateStep):
                names[step.name] = step.class_key
            elif isinstance(step, InjectStep):
                class_key = names.get(step.name)
                if class_key is not None:
                    by_class.setdefault(class_key, set()).add(step.label)
            elif isinstance(step, CreationEventStep):
                by_class.setdefault(step.class_key, set()).add(step.label)
    return {key: frozenset(labels) for key, labels in by_class.items()}


# --------------------------------------------------------------------------
# schedulers
# --------------------------------------------------------------------------


class RecordingScheduler(Scheduler):
    """Wrap any scheduler; remember every dispatch choice it makes and
    the sorted ready sources it chose among, built once per dispatch and
    handed to the wrapped scheduler."""

    name = "recording"

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.choices: list[int] = []
        self.options: list[tuple[int, ...]] = []

    def choose(self, pool, sources=None):
        # the dispatcher asks only when a source is ready: an idle step
        # never gets here and builds no sources
        if sources is None:
            sources = self._sources(pool)
        choice = self.inner.choose(pool, sources)
        if choice is not None:
            self.choices.append(choice)
            self.options.append(sources)
        return choice


class ReplayScheduler(Scheduler):
    """Re-issue a recorded choice list; deterministic fallback after it.

    Replays are exact in practice — instance handles are assigned in
    creation order, so the same prefix of choices reproduces the same
    pool — but a recorded choice that is not currently ready (possible
    if the caller replays against a different scenario) falls back to
    the synchronous rule instead of crashing.
    """

    name = "replay"

    def __init__(self, choices):
        self._choices = list(choices)
        self._index = 0
        self.diverged = False

    def choose(self, pool, sources=None):
        if self._index < len(self._choices):
            if sources is None:
                sources = self._sources(pool)
            if not sources:
                return None
            choice = self._choices[self._index]
            self._index += 1
            if choice in sources:
                return choice
            self.diverged = True
        return pool.oldest_source()


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    """Everything observable about one bounded run of one scenario.

    ``fingerprint`` is handle-independent (per class: the sorted
    multiset of live states), so two runs compare equal exactly when no
    external observer could tell them apart by final state.  ``drops``
    and ``consumed`` are (class, label, state-at-arrival) multisets
    reconstructed from the trace — the drop sites the static detectors
    predict, as actually exercised.
    """

    scheduler_name: str
    seed: int | None
    schedule: tuple[int, ...]
    fingerprint: tuple
    drops: tuple
    consumed: tuple
    cant_happen_count: int
    steps: int
    truncated: bool
    drop_first_step: tuple = ()

    def has_drop(self, class_key: str, label: str, state: str, reason: str) -> bool:
        return any(
            entry == (class_key, label, state, reason) for entry, _ in self.drops
        )

    def drop_step(self, class_key: str, label: str, state: str,
                  reason: str) -> int | None:
        """1-based dispatch index of the first such drop, if any."""
        for entry, step in self.drop_first_step:
            if entry == (class_key, label, state, reason):
                return step
        return None

    def signal_profile(self, class_key: str, label: str) -> tuple:
        """How (class, label) fared in this run: consumed + dropped rows."""
        return (
            tuple((e, n) for e, n in self.consumed
                  if e[0] == class_key and e[1] == label),
            tuple((e, n) for e, n in self.drops
                  if e[0] == class_key and e[1] == label),
        )


def _fingerprint(sim: Simulation) -> tuple:
    print_ = []
    for klass in sim.component.classes:
        handles = sim.instances_of(klass.key_letters)
        states = tuple(sorted(sim.state_of(h) or "" for h in handles))
        print_.append((klass.key_letters, len(handles), states))
    return tuple(print_)


def _arrival_multisets(sim: Simulation):
    """Reconstruct (class, label, state-at-arrival) multisets from the trace.

    The trace does not record the receiver's state on SIGNAL_IGNORED, so
    this tracks every handle's class and current state by replaying the
    INSTANCE_CREATED / TRANSITION records in order.  Each dispatched
    signal logs exactly one SIGNAL_CONSUMED or SIGNAL_IGNORED, so
    counting them recovers the dispatch index of every drop — which is
    what lets a witness carry only the schedule prefix that matters.
    """
    klass_of: dict[int, str] = {}
    state_of: dict[int, str | None] = {}
    drops: Counter = Counter()
    consumed: Counter = Counter()
    drop_first_step: dict[tuple, int] = {}
    dispatch_index = 0
    # members bound to locals, tested most frequent first
    consumed_kind = TraceKind.SIGNAL_CONSUMED
    transition = TraceKind.TRANSITION
    ignored = TraceKind.SIGNAL_IGNORED
    created = TraceKind.INSTANCE_CREATED
    for _, kind, values in sim.trace.records():
        if kind is consumed_kind:
            dispatch_index += 1
        elif kind is transition:
            handle, class_key, from_state, to_state, label = values
            klass_of[handle] = class_key
            if from_state is not None:
                consumed[(class_key, label, from_state)] += 1
            state_of[handle] = to_state
        elif kind is ignored:
            dispatch_index += 1
            _, label, target, reason = values
            if reason == "target deleted":
                entry = (klass_of.get(target, "?"), label,
                         DELETED, "target deleted")
            else:
                entry = (klass_of[target], label,
                         state_of[target] or "", reason)
            drops[entry] += 1
            drop_first_step.setdefault(entry, dispatch_index)
        elif kind is created:
            handle, class_key, state = values
            klass_of[handle] = class_key
            state_of[handle] = state
    return drops, consumed, drop_first_step


class _Node:
    __slots__ = ("options", "children", "record")

    def __init__(self):
        self.options: tuple[int, ...] = ()
        self.children: dict[int, _Node] = {}
        self.record: RunRecord | None = None


class ChoiceTree:
    """The executed runs of one scenario, keyed by their choice paths.

    A path is the run's ``(options, choice)`` steps.  Only the path up
    to its last real choice (two or more options) is stored: the node
    there holds the run's record, because the rest of the path is forced
    and a forced node can never gain a second child.
    """

    def __init__(self):
        self._root = _Node()

    def insert(self, steps, record: RunRecord) -> None:
        steps = list(steps)
        last = max((i for i, (options, _) in enumerate(steps)
                    if len(options) > 1), default=-1)
        node = self._root
        for options, choice in steps[:last + 1]:
            node.options = options
            node = node.children.setdefault(choice, _Node())
        node.record = record

    def lookup(self, scheduler: InterleavedScheduler) -> RunRecord | None:
        """The record of the run *scheduler* would make, if one is stored.

        Walks from the root drawing with ``scheduler.pick`` over each
        node's recorded options; None once the walk leaves the tree.
        The tree must hold at least one run.
        """
        node = self._root
        while node.record is None:
            node = node.children.get(scheduler.pick(node.options))
            if node is None:
                return None
        return node.record


def run_scenario(
    model: Model,
    scenario: Scenario,
    scheduler: Scheduler,
    component: str | None = None,
    max_steps: int = 1_000,
    seed: int | None = None,
    tree: ChoiceTree | None = None,
) -> RunRecord:
    """One bounded run: apply the scenario, dispatch to quiescence.

    The run is the executors' shared time-advance loop
    (:meth:`~repro.runtime.dispatcher.Dispatcher.advance`): time jumps
    forward to the next due signal whenever the pool is idle (delays
    included in the exploration, not waited out), and the run is
    truncated — never raised — at *max_steps* so a livelocking schedule
    still yields a comparable record.  The finished run goes into
    *tree* when one is given.
    """
    recorder = RecordingScheduler(scheduler)
    sim = Simulation(model, component=component, scheduler=recorder,
                     cant_happen="record")
    names: dict[str, int] = {}
    for step in scenario.steps:
        apply_stimulus(step, sim, names)
    steps = sim.advance(max_steps=max_steps)
    drops, consumed, drop_first_step = _arrival_multisets(sim)
    record = RunRecord(
        scheduler_name=scheduler.name,
        seed=seed,
        schedule=tuple(recorder.choices),
        fingerprint=_fingerprint(sim),
        drops=tuple(sorted(drops.items())),
        consumed=tuple(sorted(consumed.items())),
        cant_happen_count=sim.cant_happen_count,
        steps=steps,
        truncated=steps >= max_steps,
        drop_first_step=tuple(sorted(drop_first_step.items())),
    )
    if tree is not None:
        tree.insert(zip(recorder.options, recorder.choices), record)
    return record


# --------------------------------------------------------------------------
# witnesses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A concrete, replayable demonstration of a finding.

    ``schedule`` is the full dispatch-choice list of the exhibiting run
    (instance handles, with -1 meaning "pop the oldest creation
    event"); for races ``baseline_schedule`` is the run it diverges
    from.  ``observed`` is the JSON-ready description of what the run
    showed.
    """

    kind: str                      # "drop" or "race"
    scenario: Scenario
    seed: int | None
    schedule: tuple[int, ...]
    baseline_schedule: tuple[int, ...] = ()
    observed: dict = field(default_factory=dict, hash=False, compare=False)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "scenario": self.scenario.name,
            "source_case": self.scenario.source_case,
            "steps": self.scenario.describe_steps(),
            "seed": self.seed,
            "schedule": list(self.schedule),
            "baseline_schedule": list(self.baseline_schedule),
            "observed": dict(self.observed),
        }


def replay_witness(model: Model, witness: Witness,
                   component: str | None = None,
                   max_steps: int = 1_000) -> bool:
    """Re-execute a witness's schedule; True iff the claim reproduces."""
    record = run_scenario(model, witness.scenario, ReplayScheduler(witness.schedule),
                          component=component, max_steps=max_steps)
    if witness.kind == "drop":
        ob = witness.observed
        return record.has_drop(ob["class"], ob["label"], ob["state"], ob["reason"])
    if witness.kind == "race":
        baseline = run_scenario(
            model, witness.scenario, ReplayScheduler(witness.baseline_schedule),
            component=component, max_steps=max_steps)
        return record.fingerprint != baseline.fingerprint
    raise ValueError(f"unknown witness kind {witness.kind!r}")


class WitnessSearch:
    """Seeded, budgeted exploration over a model's scenarios.

    One search object serves every detector query for a model: runs are
    cached per (scenario, schedule), so asking about ten drop sites
    costs one sweep, not ten.

    Each scenario's sweep keeps a :class:`ChoiceTree` of the runs it has
    executed, the synchronous baseline first.  Before running seed *s*,
    the sweep walks the tree with ``InterleavedScheduler(s).pick``; a
    walk that reaches a recorded run reuses its record, relabelled with
    the seed, which is exactly the record executing the run would give.
    ``runs_executed`` counts only the runs actually executed: the
    distinct schedules.
    """

    def __init__(
        self,
        model: Model,
        scenarios,
        component: str | None = None,
        schedules: int = 24,
        max_steps: int = 1_000,
        seed: int = 0,
    ):
        self.model = model
        self.component = component
        self.scenarios = tuple(scenarios)
        self.schedules = schedules
        self.max_steps = max_steps
        self.seed = seed
        self._records: dict[str, list[RunRecord]] = {}
        self.runs_executed = 0

    def records_for(self, scenario: Scenario) -> list[RunRecord]:
        """Baseline + seeded adversarial runs of one scenario (cached)."""
        cached = self._records.get(scenario.name)
        if cached is not None:
            return cached
        tree = ChoiceTree()
        records = [self._execute(scenario, SynchronousScheduler(), tree)]
        for offset in range(self.schedules):
            run_seed = self.seed + offset
            record = tree.lookup(InterleavedScheduler(run_seed))
            if record is None:
                record = self._execute(scenario, InterleavedScheduler(run_seed),
                                       tree, seed=run_seed)
            else:
                record = replace(record, scheduler_name=InterleavedScheduler.name,
                                 seed=run_seed)
            records.append(record)
        self._records[scenario.name] = records
        return records

    def _execute(self, scenario: Scenario, scheduler: Scheduler,
                 tree: ChoiceTree, seed: int | None = None) -> RunRecord:
        self.runs_executed += 1
        return run_scenario(
            self.model, scenario, scheduler, component=self.component,
            max_steps=self.max_steps, seed=seed, tree=tree)

    def find_drop(self, class_key: str, label: str, state: str,
                  reason: str) -> Witness | None:
        """A schedule on which (class, label) is dropped in *state*.

        The witness carries only the dispatch prefix up to the first
        occurrence of the drop — replay is exact for a prefix, so the
        tail (often thousands of ticks in a non-quiescing model) adds
        nothing.
        """
        for scenario in self.scenarios:
            for record in self.records_for(scenario):
                if record.has_drop(class_key, label, state, reason):
                    first = record.drop_step(class_key, label, state, reason)
                    schedule = (record.schedule if first is None
                                else record.schedule[:first])
                    return Witness(
                        kind="drop",
                        scenario=scenario,
                        seed=record.seed,
                        schedule=schedule,
                        observed={
                            "class": class_key, "label": label,
                            "state": state, "reason": reason,
                            "scheduler": record.scheduler_name,
                        },
                    )
        return None

    def find_race(self, class_key: str, label: str) -> Witness | None:
        """Two schedules with different final states, attributable to
        (class, label) faring differently between them."""
        for scenario in self.scenarios:
            records = self.records_for(scenario)
            baseline = records[0]
            if baseline.truncated:
                continue  # mid-flight snapshots are not comparable outcomes
            for record in records[1:]:
                if record.truncated:
                    continue
                if record.fingerprint == baseline.fingerprint:
                    continue
                if (record.signal_profile(class_key, label)
                        == baseline.signal_profile(class_key, label)):
                    continue
                return Witness(
                    kind="race",
                    scenario=scenario,
                    seed=record.seed,
                    schedule=record.schedule,
                    baseline_schedule=baseline.schedule,
                    observed={
                        "class": class_key, "label": label,
                        "baseline_fingerprint": _render_fingerprint(
                            baseline.fingerprint),
                        "divergent_fingerprint": _render_fingerprint(
                            record.fingerprint),
                    },
                )
        return None


def _render_fingerprint(fingerprint: tuple) -> dict:
    return {
        class_key: {"count": count, "states": list(states)}
        for class_key, count, states in fingerprint
    }
