"""Behavioural tests of the model executor (run-to-completion et al.)."""

import pytest

from repro.runtime import (
    CantHappenError,
    Simulation,
    SimulationError,
    TraceKind,
)
from repro.xuml import ModelBuilder


def counter_model():
    """A counter driven by self events, plus a spawner using creation."""
    builder = ModelBuilder("M")
    component = builder.component("c")

    counter = component.klass("Counter", "CN")
    counter.attr("cn_id", "unique_id")
    counter.attr("value", "integer")
    counter.attr("limit", "integer")
    counter.event("CN1", "start", params=[("limit", "integer")])
    counter.event("CN2", "step")
    counter.event("CN3", "done")
    counter.state("Idle", 1)
    counter.state("Arming", 2, activity="""
        self.limit = param.limit;
        generate CN2:CN() to self;
    """)
    counter.state("Counting", 3, activity="""
        if (self.value < self.limit)
            self.value = self.value + 1;
            generate CN2:CN() to self;
        else
            generate CN3:CN() to self;
        end if;
    """)
    counter.state("Done", 4)
    counter.trans("Idle", "CN1", "Arming")
    counter.trans("Arming", "CN2", "Counting")
    counter.trans("Counting", "CN2", "Counting")
    counter.trans("Counting", "CN3", "Done")
    counter.ignore("Done", "CN2")

    spawn = component.klass("Spawner", "SP")
    spawn.attr("sp_id", "unique_id")
    spawn.event("SP0", "spawn", creation=True, params=[("tag", "integer")])
    spawn.attr("tag", "integer")
    spawn.state("Alive", 1, activity="""
        self.tag = param.tag;
    """)
    spawn.creation("SP0", "Alive")

    return builder.build()


@pytest.fixture
def sim():
    return Simulation(counter_model())


class TestRunToCompletion:
    def test_counter_counts_to_limit(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        sim.inject(counter, "CN1", {"limit": 5})
        steps = sim.run_to_quiescence()
        assert sim.read_attribute(counter, "value") == 5
        assert sim.state_of(counter) == "Done"
        assert steps == 1 + 1 + 5 + 1   # CN1, first CN2, 5 steps, CN3

    def test_one_step_consumes_one_signal(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        sim.inject(counter, "CN1", {"limit": 2})
        assert sim.step() is True
        assert sim.state_of(counter) == "Arming"
        assert sim.step() is True
        assert sim.state_of(counter) == "Counting"

    def test_step_on_idle_pool_returns_false(self, sim):
        assert sim.step() is False

    def test_inject_copies_the_callers_params(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        params = {"limit": 2}
        signal = sim.inject(counter, "CN1", params)
        params["limit"] = 1000
        params["extra"] = 1
        assert signal.params == {"limit": 2}
        assert signal.params is not params
        sim.run_to_quiescence()
        assert sim.read_attribute(counter, "value") == 2

    def test_quiescence_guard(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        sim.inject(counter, "CN1", {"limit": 1000})
        with pytest.raises(SimulationError):
            sim.run_to_quiescence(max_steps=5)


class TestTableResponses:
    def test_ignored_event_is_dropped_with_trace(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        sim.inject(counter, "CN1", {"limit": 1})
        sim.run_to_quiescence()
        sim.inject(counter, "CN2")         # ignored in Done
        sim.run_to_quiescence()
        ignored = sim.trace.of_kind(TraceKind.SIGNAL_IGNORED)
        assert any(e.data["reason"] == "ignored" for e in ignored)
        assert sim.state_of(counter) == "Done"

    def test_cant_happen_raises_by_default(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        sim.inject(counter, "CN3")         # no entry in Idle
        with pytest.raises(CantHappenError):
            sim.run_to_quiescence()

    def test_cant_happen_record_policy(self):
        sim = Simulation(counter_model(), cant_happen="record")
        counter = sim.create_instance("CN", cn_id=1)
        sim.inject(counter, "CN3")
        sim.run_to_quiescence()
        assert sim.cant_happen_count == 1
        assert sim.state_of(counter) == "Idle"


class TestCreationEvents:
    def test_creation_event_births_instance(self, sim):
        sim.send_creation("SP", "SP0", {"tag": 42})
        assert sim.instances_of("SP") == ()
        sim.run_to_quiescence()
        handles = sim.instances_of("SP")
        assert len(handles) == 1
        assert sim.read_attribute(handles[0], "tag") == 42
        assert sim.state_of(handles[0]) == "Alive"

    def test_non_creation_event_rejected_as_creation(self, sim):
        with pytest.raises(SimulationError):
            sim.send_creation("CN", "CN2")

    def test_multiple_creations_fifo(self, sim):
        sim.send_creation("SP", "SP0", {"tag": 1})
        sim.send_creation("SP", "SP0", {"tag": 2})
        sim.run_to_quiescence()
        tags = [sim.read_attribute(h, "tag") for h in sim.instances_of("SP")]
        assert tags == [1, 2]


class TestTimeAndTimers:
    def test_delayed_event_advances_clock(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        sim.inject(counter, "CN1", {"limit": 1}, delay=500)
        sim.run_to_quiescence()
        assert sim.now == 500
        assert sim.state_of(counter) == "Done"

    def test_run_until_does_not_pass_time(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        sim.inject(counter, "CN1", {"limit": 1}, delay=1000)
        sim.run_until(999)
        assert sim.state_of(counter) == "Idle"
        assert sim.now == 999
        sim.run_until(1000)
        assert sim.state_of(counter) == "Done"

    def test_run_backwards_rejected(self, sim):
        sim.run_until(10)
        with pytest.raises(SimulationError):
            sim.run_until(5)

    def test_timer_start_and_cancel(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        sim.send_signal(counter, "CN", "CN1", sender=counter, delay=100)
        cancelled = sim.cancel_timer(counter, "CN1")
        assert cancelled == 1
        sim.run_until(200)
        assert sim.state_of(counter) == "Idle"


class TestDeletionSemantics:
    def test_signals_to_deleted_instance_dropped(self, sim):
        counter = sim.create_instance("CN", cn_id=1)
        sim.inject(counter, "CN1", {"limit": 1})
        sim.delete_instance(counter)
        sim.run_to_quiescence()    # must not raise
        dropped = [
            e for e in sim.trace.of_kind(TraceKind.SIGNAL_IGNORED)
            if e.data.get("reason") == "target deleted"
        ]
        # the pending CN1 was purged at delete time (counted in the
        # INSTANCE_DELETED record) or dropped at dispatch
        deleted = sim.trace.of_kind(TraceKind.INSTANCE_DELETED)
        assert deleted[0].data["pending_dropped"] == 1 or dropped

    def test_handles_are_never_reused(self, sim):
        first = sim.create_instance("CN", cn_id=1)
        sim.delete_instance(first)
        second = sim.create_instance("CN", cn_id=2)
        assert second != first


class TestMultiComponentSelection:
    def test_unnamed_component_requires_single(self):
        builder = ModelBuilder("Two")
        builder.component("a")
        builder.component("b")
        model = builder.build(check=False)
        with pytest.raises(SimulationError):
            Simulation(model)
        assert Simulation(model, component="a").component.name == "a"
