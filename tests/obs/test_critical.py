"""Critical-path analysis over synthetic and real traces."""

from repro.models.catalog import build_model
from repro.obs import critical_path
from repro.runtime import Simulation
from repro.runtime.tracing import Trace, TraceKind
from repro.verify import run_case, standard_targets, suite_for


def send(trace, time, sequence, activity=0, label="S"):
    trace.record(time, TraceKind.SIGNAL_SENT,
                 sequence=sequence, label=label, target=1, activity=activity)


def consume(trace, time, sequence, activity, label="S"):
    trace.record(time, TraceKind.SIGNAL_CONSUMED,
                 sequence=sequence, label=label, target=1)
    trace.record(time, TraceKind.ACTIVITY_START,
                 activity=activity, consumed_sequence=sequence)


class TestSyntheticChains:
    def test_empty_trace(self):
        path = critical_path(Trace())
        assert path.length == 0
        assert path.span == 0
        assert "empty" in path.render()

    def test_linear_chain(self):
        # 1 consumed by activity 10 sends 2; 2 consumed by 20 sends 3
        trace = Trace()
        send(trace, 0, 1, activity=0, label="A")
        consume(trace, 5, 1, activity=10, label="A")
        send(trace, 6, 2, activity=10, label="B")
        consume(trace, 9, 2, activity=20, label="B")
        send(trace, 10, 3, activity=20, label="C")
        consume(trace, 15, 3, activity=30, label="C")
        trace.record(18, TraceKind.ACTIVITY_END, activity=30)
        path = critical_path(trace)
        assert path.labels() == ("A", "B", "C")
        assert [step.sequence for step in path.steps] == [1, 2, 3]
        assert path.start_time == 0
        assert path.end_time == 18   # through the final activity's end
        assert path.span == 18

    def test_branching_picks_the_longer_arm(self):
        # activity 10 sends 2 (dead end) and 3 (extends one more hop)
        trace = Trace()
        send(trace, 0, 1, activity=0)
        consume(trace, 1, 1, activity=10)
        send(trace, 2, 2, activity=10, label="short")
        send(trace, 2, 3, activity=10, label="long")
        consume(trace, 3, 2, activity=20, label="short")
        consume(trace, 3, 3, activity=30, label="long")
        send(trace, 4, 4, activity=30, label="tail")
        consume(trace, 6, 4, activity=40, label="tail")
        path = critical_path(trace)
        assert path.labels() == ("S", "long", "tail")

    def test_equal_arms_tie_toward_lower_sequence(self):
        trace = Trace()
        send(trace, 0, 1, activity=0)
        consume(trace, 1, 1, activity=10)
        send(trace, 2, 2, activity=10, label="left")
        send(trace, 2, 3, activity=10, label="right")
        consume(trace, 3, 2, activity=20, label="left")
        consume(trace, 3, 3, activity=30, label="right")
        path = critical_path(trace)
        assert path.labels() == ("S", "left")
        # and the run is deterministic
        assert critical_path(trace).labels() == path.labels()

    def test_independent_roots_pick_longest_chain(self):
        trace = Trace()
        send(trace, 0, 1, activity=0, label="lone")
        consume(trace, 1, 1, activity=10, label="lone")
        send(trace, 0, 2, activity=0, label="head")
        consume(trace, 1, 2, activity=20, label="head")
        send(trace, 2, 3, activity=20, label="next")
        consume(trace, 3, 3, activity=30, label="next")
        path = critical_path(trace)
        assert path.labels() == ("head", "next")

    def test_trace_without_activities_yields_single_link(self):
        # bus-level co-sim recordings carry no activity events
        trace = Trace()
        trace.record(0, TraceKind.SIGNAL_SENT, sequence=1, label="X", target=2)
        trace.record(7, TraceKind.SIGNAL_CONSUMED,
                     sequence=1, label="X", target=2)
        path = critical_path(trace)
        assert path.length == 1
        assert path.steps[0].sent_time == 0
        assert path.steps[0].consumed_time == 7


class TestRealTraces:
    def test_microwave_run_has_a_multi_hop_path(self):
        sim = Simulation(build_model("microwave"))
        result = run_case(suite_for("microwave")[0], sim)
        assert not result.error
        path = critical_path(sim.trace)
        assert path.length >= 2
        # every link is consumed no earlier than it was sent, and links
        # are causally ordered
        for step in path.steps:
            assert step.consumed_time >= step.sent_time
        times = [step.consumed_time for step in path.steps]
        assert times == sorted(times)
        sequences = [step.sequence for step in path.steps]
        assert sequences == sorted(sequences)
        assert path.render().count("\n") == path.length

    def test_timer_chain_is_the_same_path_on_every_executor(self):
        # TIM::timer_start is a traced send on every executor, so the
        # trafficlight's T1 ticks chain into one path everywhere
        case = next(case for case in suite_for("trafficlight")
                    if case.name == "two-full-cycles")
        paths = []
        for executor in standard_targets(build_model("trafficlight")):
            assert not run_case(case, executor).error
            paths.append(critical_path(executor.trace).labels())
        assert paths[0] == ("T1",) * 13
        assert paths[1] == paths[0] and paths[2] == paths[0]
