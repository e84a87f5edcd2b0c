"""The causal index: one pass over a trace's send/consume/activity edges."""

from repro.runtime import CausalIndex, Trace, TraceKind


def send(trace, time, sequence, activity, target=1, delay=0, label="S"):
    # sequence, label, target, sender, activity, delay
    trace.record(time, TraceKind.SIGNAL_SENT,
                 sequence, label, target, None, activity, delay)


def consume(trace, time, sequence, activity, handle=1, label="S"):
    # sequence, label, target, sender, sent_activity
    trace.record(time, TraceKind.SIGNAL_CONSUMED,
                 sequence, label, handle, None, 0)
    # activity, handle, class_key, state, consumed_sequence
    trace.record(time, TraceKind.ACTIVITY_START,
                 activity, handle, "C", "S", sequence)
    trace.record(time, TraceKind.ACTIVITY_END, activity, handle, "C", "S")


def chain() -> Trace:
    """1 (environment) starts activity 10 on instance 1, which sends 2 to
    instance 2; 3 (environment, delayed) starts activity 20 on instance
    2; then 2 starts activity 30 on instance 2, which sends 4."""
    trace = Trace()
    send(trace, 0, 1, activity=0)
    send(trace, 0, 3, activity=0, target=2, delay=5)
    consume(trace, 1, 1, activity=10)
    send(trace, 1, 2, activity=10, target=2)
    consume(trace, 5, 3, activity=20, handle=2)
    consume(trace, 6, 2, activity=30, handle=2)
    send(trace, 6, 4, activity=30, target=3)
    return trace


class TestIndex:
    def test_edges(self):
        index = CausalIndex(chain())
        assert index.sent[3] == (1, 0, "S", 0, 5)
        assert index.sent[2][3] == 10
        assert index.started_by == {10: 1, 20: 3, 30: 2}
        assert index.ended[30] == (index.starts[2][0] + 1, 6)
        assert [c[2] for c in index.consumptions] == [1, 3, 2]
        assert [s[1:] for s in index.starts] == \
            [(10, 1, 1), (20, 2, 3), (30, 2, 2)]

    def test_duplicate_consumptions_are_all_listed(self):
        trace = chain()
        consume(trace, 9, 4, activity=40, handle=3)
        consume(trace, 9, 4, activity=41, handle=3)
        index = CausalIndex(trace)
        assert [c[2] for c in index.consumptions] == [1, 3, 2, 4, 4]
        assert index.started_by[41] == 4

    def test_root_follows_sending_activities(self):
        index = CausalIndex(chain())
        assert index.root_of(4) == 1
        assert index.root_of(3) == 3
        assert index.root_of(99) is None

    def test_ancestors_include_earlier_activities_on_the_instance(self):
        index = CausalIndex(chain())
        # 4 was sent by activity 30 (started by 2, sent by 10, started by
        # 1); activity 20 ran on instance 2 before 30 did
        assert index.ancestors(4, 3) == {4, 2, 1, 3}
        # activity 20 is the first on instance 2: nothing earlier shaped it
        assert index.ancestors(3, None) == {3}
        # a signal to instance 2 inherits everything that ran there
        assert index.ancestors(5, 2) == {5, 3, 2, 1}
