"""The schedulers' source contract: the ready sources are sorted once.

``Scheduler._sources`` returns them as a sorted tuple with CREATION (-1)
first, so no scheduler sorts them again.  ``reference_sources`` is the
rule the schedulers applied before: list the ready handles, append
CREATION, sort.  Every scheduler that reads the sources must choose and
record exactly what it did under that rule.
"""

import random

import pytest

from repro.analysis.witness import RecordingScheduler, scenarios_for_model
from repro.models import CATALOG, build_model
from repro.runtime import (
    CREATION,
    EventPool,
    InterleavedScheduler,
    RoundRobinScheduler,
    Scheduler,
    SignalInstance,
    Simulation,
)
from repro.verify.runner import apply_stimulus


def reference_sources(pool):
    sources = list(pool.ready_handles())
    if pool.has_ready_creation():
        sources.append(CREATION)
    return sorted(sources)


def _signal(sequence, target):
    return SignalInstance(
        sequence=sequence, label="EV", class_key="W",
        target_handle=None if target == CREATION else target,
        is_creation=target == CREATION)


def _random_pool(rng, sequence):
    pool = EventPool()
    for _ in range(rng.randint(0, 8)):
        sequence += 1
        pool.push_ready(_signal(sequence, rng.choice((CREATION, 1, 2, 5, 9))))
    return pool, sequence


def test_sources_are_a_sorted_tuple_with_creation_first():
    pool = EventPool()
    for sequence, target in enumerate((9, CREATION, 3, 5), start=1):
        pool.push_ready(_signal(sequence, target))
    assert Scheduler()._sources(pool) == (CREATION, 3, 5, 9)
    pool.pop(CREATION)
    assert Scheduler()._sources(pool) == (3, 5, 9)
    assert Scheduler()._sources(EventPool()) == ()


@pytest.mark.parametrize("seed", range(5))
def test_sources_match_the_reference_over_random_pools(seed):
    rng, sequence = random.Random(seed), 0
    for _ in range(50):
        pool, sequence = _random_pool(rng, sequence)
        sources = Scheduler()._sources(pool)
        assert isinstance(sources, tuple)
        assert list(sources) == reference_sources(pool)


@pytest.mark.parametrize("seed", range(5))
def test_interleaved_draws_what_the_reference_draws(seed):
    scheduler, reference = InterleavedScheduler(seed), random.Random(seed)
    rng, sequence = random.Random(1000 + seed), 0
    for _ in range(40):
        pool, sequence = _random_pool(rng, sequence)
        while True:
            options = reference_sources(pool)
            choice = scheduler.choose(pool)
            if not options:
                assert choice is None
                break
            assert choice == reference.choice(options)
            pool.pop(choice)


def test_round_robin_rotates_as_before():
    scheduler, rng, sequence = RoundRobinScheduler(), random.Random(3), 0
    last = None
    for _ in range(40):
        pool, sequence = _random_pool(rng, sequence)
        while (options := reference_sources(pool)):
            later = [s for s in options if last is not None and s > last]
            expected = later[0] if later else options[0]
            assert scheduler.choose(pool) == expected
            last = expected
            pool.pop(expected)


class ReferenceRecording(RecordingScheduler):
    """The recorder's rule before: re-read and sort the sources."""

    def choose(self, pool):
        choice = self.inner.choose(pool)
        if choice is not None:
            self.choices.append(choice)
            self.options.append(tuple(reference_sources(pool)))
        return choice


def _record(recorder_type, model, scenario, seed):
    recorder = recorder_type(InterleavedScheduler(seed))
    sim = Simulation(model, scheduler=recorder, cant_happen="record")
    names = {}
    for step in scenario.steps:
        apply_stimulus(step, sim, names)
    sim.advance(max_steps=300)
    return recorder.choices, recorder.options


@pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
def test_recorded_options_are_unchanged(name):
    model = build_model(name)
    for scenario in scenarios_for_model(name)[:4]:
        for seed in range(3):
            choices, options = _record(RecordingScheduler, model, scenario,
                                       seed)
            assert (choices, options) == _record(
                ReferenceRecording, model, scenario, seed)
            assert all(isinstance(o, tuple) for o in options)


def test_a_recorded_creation_source_comes_first():
    pool = EventPool()
    pool.push_ready(_signal(1, 4))
    pool.push_ready(_signal(2, CREATION))
    recorder = RecordingScheduler(InterleavedScheduler(0))
    recorder.choose(pool)
    assert recorder.options == [(CREATION, 4)]
