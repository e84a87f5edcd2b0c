"""An empty state activity skips the evaluator, not the trace.

``Dispatcher._run_state_activity`` records ``ACTIVITY_START`` and
``ACTIVITY_END`` for an empty activity and gives it a fresh activity id,
but calls no evaluator and pushes nothing on the activity stack: an
empty block runs nothing and sends nothing.  Every packetproc stage
returns to an empty ``Idle``/``Ready`` state after each packet, so the
pinned oracles, which run every activity, must still see the same trace
and op count.
"""

from repro.exec import IRExecutor
from repro.models import build_packetproc_model, packetproc
from repro.obs import dump_jsonl
from repro.oal.errors import OALRuntimeError
from repro.runtime import SelectionError, Simulation, TraceKind

from . import pinned_ir_interpreter as walker
from .pinned_ast_interpreter import PinnedAstSimulation


class WalkedSimulation(Simulation):
    """The live simulator with the pinned IR walker as its evaluator and
    the activity runner as it was before empty activities were skipped."""

    def __init__(self, model):
        super().__init__(model)
        self.executor = walker.IRExecutor(
            self, error=OALRuntimeError, selection_error=SelectionError)

    def _run_state_activity(self, instance, state, signal):
        activity_id = self._next_activity
        self._next_activity += 1
        handle, class_key = instance.handle, instance.class_key
        self.trace.record(self.now, TraceKind.ACTIVITY_START,
                          activity_id, handle, class_key, state,
                          signal.sequence)
        self._activity_stack.append(activity_id)
        try:
            self.executor.run(self._activities[class_key, state], handle,
                              signal.params)
        finally:
            self._activity_stack.pop()
            self.trace.record(self.now, TraceKind.ACTIVITY_END,
                              activity_id, handle, class_key, state)


def _empty_starts(sim):
    """(trace index, values) of each ``ACTIVITY_START``, and of those
    whose activity is empty."""
    starts = [(index, record[2:]) for index, record
              in enumerate(sim.trace.records())
              if record[1] == TraceKind.ACTIVITY_START.value]
    return starts, [(index, values) for index, values in starts
                    if not sim._activities[values[2], values[3]]]


def _run(factory):
    sim = factory(build_packetproc_model())
    handles = packetproc.populate(sim)
    packetproc.inject_packets(sim, handles["M"], 6, length=300, spacing=40)
    sim.run_to_quiescence()
    return sim


def test_empty_activity_is_traced_with_a_fresh_id():
    sim = _run(Simulation)
    records = sim.trace.records()
    starts, empty = _empty_starts(sim)
    assert {values[2] for _, values in empty} == {"M", "CL", "CE", "D", "ST"}
    # ids are issued in order, one per activity, empty or not
    assert [values[0] for _, values in starts] == list(
        range(1, len(starts) + 1))
    for index, values in empty:
        # START, then at once its END: nothing ran and nothing was sent
        end = records[index + 1]
        assert end[1] == TraceKind.ACTIVITY_END.value
        assert end[2:] == values[:4]


def test_empty_activity_skips_the_evaluator():
    runs = []

    class Counting(IRExecutor):
        __slots__ = ()

        def run(self, host, block, self_handle, params):
            runs.append(block)
            return super().run(host, block, self_handle, params)

    class CountingSimulation(Simulation):
        def __init__(self, model):
            super().__init__(model)
            self.executor = Counting(error=OALRuntimeError,
                                     selection_error=SelectionError)

    sim = _run(CountingSimulation)
    starts, empty = _empty_starts(sim)
    assert empty and all(runs)
    assert len(runs) == len(starts) - len(empty)


def test_trace_and_op_count_equal_the_oracles_that_run_every_activity():
    live = _run(Simulation)
    walked = _run(WalkedSimulation)
    oracle = _run(PinnedAstSimulation)
    assert dump_jsonl(live.trace) == dump_jsonl(oracle.trace)
    assert dump_jsonl(live.trace) == dump_jsonl(walked.trace)
    assert live.ops_executed == walked.ops_executed > 0
