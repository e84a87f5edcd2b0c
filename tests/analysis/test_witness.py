"""Unit tests for scenario distillation and the interleaving explorer."""

from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.witness import (
    ReplayScheduler,
    WitnessSearch,
    replay_witness,
    run_scenario,
    scenarios_for_model,
    scenarios_from_cases,
    stimuli_from_scenarios,
)
from repro.models import (
    CATALOG,
    build_elevator_model,
    build_microwave_model,
    build_model,
)
from repro.runtime.scheduler import (
    InterleavedScheduler,
    Scheduler,
    SynchronousScheduler,
)
from repro.verify import suite_for
from repro.verify.testcase import ExpectState, InjectStep, RunStep


@pytest.fixture(scope="module")
def microwave():
    return build_microwave_model()


@pytest.fixture(scope="module")
def microwave_scenarios():
    return scenarios_for_model("Microwave")


@pytest.fixture(scope="module")
def microwave_search(microwave, microwave_scenarios):
    return WitnessSearch(microwave, microwave_scenarios,
                         component="control", schedules=8)


class TestScenarioDistillation:
    def test_every_scenario_has_a_stimulus(self, microwave_scenarios):
        assert microwave_scenarios
        for scenario in microwave_scenarios:
            assert any(isinstance(s, InjectStep) for s in scenario.steps)

    def test_expectations_are_stripped(self, microwave_scenarios):
        for scenario in microwave_scenarios:
            assert not any(isinstance(s, (ExpectState, RunStep))
                           for s in scenario.steps)

    def test_concurrent_variant_strips_delays(self):
        # the elevator suite spaces calls out with inject delays, so it
        # must also yield +concurrent variants with the delays removed
        scenarios = scenarios_for_model("Elevator")
        concurrent = [s for s in scenarios if s.name.endswith("+concurrent")]
        assert concurrent
        for scenario in concurrent:
            assert all(s.delay_us == 0 for s in scenario.steps
                       if isinstance(s, InjectStep))

    def test_model_name_drift_tolerated(self):
        # the catalog key is "packetproc"; the model names itself
        # "PacketProcessor" — both must resolve to the same suite
        assert scenarios_for_model("PacketProcessor")
        assert scenarios_for_model("packetproc")

    def test_unknown_model_yields_no_scenarios(self):
        assert scenarios_for_model("NoSuchModel") == ()

    def test_distillation_dedupes(self):
        cases = suite_for("microwave")
        once = scenarios_from_cases(cases)
        twice = scenarios_from_cases(list(cases) + list(cases))
        assert [s.name for s in once] == [s.name for s in twice]

    def test_stimuli_map(self, microwave_scenarios):
        stimuli = stimuli_from_scenarios(microwave_scenarios)
        assert "MO1" in stimuli["MO"]


class TestRunAndReplay:
    def test_synchronous_run_reaches_quiescence(self, microwave,
                                                microwave_scenarios):
        record = run_scenario(microwave, microwave_scenarios[0],
                              SynchronousScheduler(), component="control")
        assert not record.truncated
        assert record.steps == len(record.schedule)
        assert any(key == "MO" for key, _, _ in record.fingerprint)

    def test_replay_reproduces_fingerprint(self, microwave,
                                           microwave_scenarios):
        scenario = microwave_scenarios[-1]
        original = run_scenario(microwave, scenario,
                                InterleavedScheduler(5), component="control")
        replayer = ReplayScheduler(original.schedule)
        again = run_scenario(microwave, scenario, replayer,
                             component="control")
        assert again.fingerprint == original.fingerprint
        assert again.drops == original.drops
        assert not replayer.diverged

    def test_max_steps_truncates_instead_of_raising(self, microwave,
                                                    microwave_scenarios):
        record = run_scenario(microwave, microwave_scenarios[0],
                              SynchronousScheduler(), component="control",
                              max_steps=2)
        assert record.truncated
        assert record.steps == 2

    def test_a_run_that_reaches_max_steps_is_truncated(self, microwave,
                                                       microwave_scenarios):
        full = run_scenario(microwave, microwave_scenarios[0],
                            SynchronousScheduler(), component="control")
        capped = run_scenario(microwave, microwave_scenarios[0],
                              SynchronousScheduler(), component="control",
                              max_steps=full.steps)
        assert not full.truncated
        assert capped == replace(full, truncated=True)


    def test_each_explored_dispatch_builds_its_sources_once(
            self, microwave, microwave_scenarios, monkeypatch):
        built = []
        sources = Scheduler._sources
        monkeypatch.setattr(Scheduler, "_sources", lambda self, pool: (
            built.append(1), sources(self, pool))[1])
        for scenario in microwave_scenarios:
            built.clear()
            record = run_scenario(microwave, scenario,
                                  InterleavedScheduler(5),
                                  component="control")
            assert record.schedule
            assert len(built) == len(record.schedule)


class TestWitnessSearch:
    def test_finds_delayed_tick_drop(self, microwave, microwave_search):
        witness = microwave_search.find_drop("MO", "MO4", "Paused", "ignored")
        assert witness is not None
        assert witness.kind == "drop"
        assert replay_witness(microwave, witness, component="control")

    def test_drop_witness_is_trimmed_to_first_occurrence(self,
                                                         microwave_search):
        witness = microwave_search.find_drop("MO", "MO4", "Paused", "ignored")
        for record in microwave_search.records_for(witness.scenario):
            if record.seed == witness.seed:
                first = record.drop_step("MO", "MO4", "Paused", "ignored")
                assert len(witness.schedule) == first
                break
        else:  # pragma: no cover - the witness came from these records
            pytest.fail("witness record not found")

    def test_unrealizable_drop_returns_none(self, microwave_search):
        # MO5 is pinned to its generating state; no schedule can drop it
        assert microwave_search.find_drop(
            "MO", "MO5", "Idle", "ignored") is None

    def test_run_cache_counts_each_run_once(self, microwave,
                                            microwave_scenarios):
        search = WitnessSearch(microwave, microwave_scenarios[:1],
                               component="control", schedules=3)
        records = search.records_for(microwave_scenarios[0])
        after_first = search.runs_executed
        search.records_for(microwave_scenarios[0])
        assert len(records) == 4  # baseline + 3
        # each distinct schedule is executed once, and only once
        assert after_first == len({record.schedule for record in records})
        assert search.runs_executed == after_first

    def test_witness_json_is_self_describing(self, microwave_search):
        witness = microwave_search.find_drop("MO", "MO4", "Paused", "ignored")
        payload = witness.to_json()
        assert payload["kind"] == "drop"
        assert payload["observed"]["label"] == "MO4"
        assert payload["steps"]  # human-readable scenario script


class TestRaceWitness:
    def test_elevator_call_dispatch_races(self):
        model = build_elevator_model()
        search = WitnessSearch(model, scenarios_for_model("Elevator"),
                               schedules=8)
        witness = search.find_race("E", "E1")
        assert witness is not None
        assert witness.kind == "race"
        assert witness.baseline_schedule != witness.schedule
        assert replay_witness(model, witness)

    def test_pinned_signal_never_races(self, microwave_search):
        assert microwave_search.find_race("MO", "MO5") is None


@cache
def _catalog_model(name):
    return build_model(name)


def _executed_one_by_one(model, scenario, seed, schedules, max_steps):
    """The explorer's records, each run executed: the oracle for reuse."""
    records = [run_scenario(model, scenario, SynchronousScheduler(),
                            max_steps=max_steps)]
    for run_seed in range(seed, seed + schedules):
        records.append(run_scenario(
            model, scenario, InterleavedScheduler(run_seed),
            max_steps=max_steps, seed=run_seed))
    return records


class TestChoiceTreeReuse:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from([entry.name for entry in CATALOG]),
           index=st.integers(min_value=0),
           seed=st.integers(min_value=0, max_value=100),
           schedules=st.integers(min_value=0, max_value=30),
           max_steps=st.sampled_from([5, 50, 1000]))
    def test_reused_records_equal_executed_ones(self, name, index, seed,
                                                schedules, max_steps):
        model = _catalog_model(name)
        scenarios = scenarios_for_model(model.name)
        scenario = scenarios[index % len(scenarios)]
        search = WitnessSearch(model, (scenario,), schedules=schedules,
                               max_steps=max_steps, seed=seed)
        records = search.records_for(scenario)
        assert records == _executed_one_by_one(
            model, scenario, seed, schedules, max_steps)
        assert search.runs_executed == len({r.schedule for r in records})

    def _search(self, name, scenario_name):
        model = _catalog_model(name)
        scenario = next(s for s in scenarios_for_model(model.name)
                        if s.name == scenario_name)
        search = WitnessSearch(model, (scenario,))
        records = search.records_for(scenario)
        assert records == _executed_one_by_one(model, scenario, 0, 24, 1000)
        return search, records

    def test_forced_timer_cycle_executes_once(self):
        # every trafficlight choice is forced: 25 records, one run
        search, records = self._search("trafficlight", "phases-cycle")
        assert len(records) == 25
        assert search.runs_executed == 1

    def test_distinct_schedules_all_execute(self):
        # every seed of this packetproc scenario takes its own path
        search, records = self._search("packetproc", "one-crypto-packet")
        assert len(records) == 25
        assert search.runs_executed == 25
