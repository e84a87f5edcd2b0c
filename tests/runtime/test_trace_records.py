"""Trace records: every executor writes ``(time, kind, values)`` records
whose values match the kind's ``FIELDS`` entry, and the events built from
them read exactly as they did when each record carried its own dict."""

from __future__ import annotations

import pytest

from repro.cosim import CoSimMachine
from repro.models.catalog import CATALOG, build_model
from repro.runtime import Simulation
from repro.runtime.tracing import FIELDS, Trace, TraceKind
from repro.verify import chaos_build, run_case, standard_targets, suite_for


def catalog_traces(name: str):
    """(case, executor, trace) for every suite case of catalog model
    *name*, on the abstract runtime, csim, vsim and the co-sim."""
    model = build_model(name)
    build = chaos_build(name)
    for case in suite_for(name):
        for executor in standard_targets(model) + [CoSimMachine(build)]:
            run_case(case, executor)
            yield case.name, type(executor).__name__, executor.trace


def test_fields_cover_every_kind():
    assert set(FIELDS) == set(TraceKind)
    assert [kind for kind, fields in FIELDS.items()
            if fields is None] == [TraceKind.LOG]


@pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
def test_every_record_matches_its_kind_arity(name):
    seen = set()
    for case_name, executor, trace in catalog_traces(name):
        for index, (time, kind, values) in enumerate(trace.records()):
            where = f"{case_name} on {executor}, record {index}"
            assert isinstance(time, int), where
            assert isinstance(values, tuple), where
            fields = FIELDS[kind]
            if fields is None:
                assert len(values) == 1 and isinstance(values[0], dict), where
            else:
                assert len(values) == len(fields), where
            seen.add(kind)
    # every model's run sends, consumes, transitions and runs activities
    assert {TraceKind.INSTANCE_CREATED, TraceKind.SIGNAL_SENT,
            TraceKind.SIGNAL_CONSUMED, TraceKind.TRANSITION,
            TraceKind.ACTIVITY_START, TraceKind.ACTIVITY_END} <= seen


def first_case_trace(name: str, case_name: str) -> Trace:
    case = next(case for case in suite_for(name) if case.name == case_name)
    sim = Simulation(build_model(name))
    assert not run_case(case, sim).error
    return sim.trace


def test_event_text_keeps_the_recorded_field_order():
    # the lines the per-record keyword dicts printed, before records
    # became positional tuples
    events = first_case_trace("microwave", "cook-runs-to-complete").events
    assert [str(event) for event in events[:10]] == [
        "[    0 t=       0] instance_created: handle=1, class_key=MO, "
        "state=Idle",
        "[    1 t=       0] instance_created: handle=2, class_key=PT, "
        "state=Off",
        "[    2 t=       0] signal_sent: sequence=1, label=MO1, target=1, "
        "sender=None, activity=0, delay=0",
        "[    3 t=       0] signal_consumed: sequence=1, label=MO1, "
        "target=1, sender=None, sent_activity=0",
        "[    4 t=       0] transition: handle=1, class_key=MO, "
        "from_state=Idle, to_state=Preparing, label=MO1",
        "[    5 t=       0] activity_start: activity=1, handle=1, "
        "class_key=MO, state=Preparing, consumed_sequence=1",
        "[    6 t=       0] signal_sent: sequence=2, label=MO5, target=1, "
        "sender=1, activity=1, delay=0",
        "[    7 t=       0] activity_end: activity=1, handle=1, "
        "class_key=MO, state=Preparing",
        "[    8 t=       0] signal_consumed: sequence=2, label=MO5, "
        "target=1, sender=1, sent_activity=1",
        "[    9 t=       0] transition: handle=1, class_key=MO, "
        "from_state=Preparing, to_state=Cooking, label=MO5",
    ]
    first_of = {}
    for event in events:
        first_of.setdefault(event.kind, event)
    assert [str(first_of[kind]) for kind in (
        TraceKind.SIGNAL_IGNORED, TraceKind.BRIDGE_CALL, TraceKind.LOG)] == [
        "[   24 t= 1000000] signal_ignored: sequence=5, label=PT1, "
        "target=2, reason=ignored",
        "[   43 t= 3000000] bridge_call: entity=LOG, operation=info, "
        "handle=1",
        "[   44 t= 3000000] log: message=ding",
    ]


def test_deletion_event_text_keeps_the_recorded_field_order():
    trace = first_case_trace("elevator", "single-call-served")
    (first, *_) = trace.of_kind(TraceKind.INSTANCE_DELETED)
    assert str(first) == ("[   47 t= 8000000] instance_deleted: handle=3, "
                          "class_key=CA, pending_dropped=0")


def test_events_are_built_from_records_on_read():
    trace = Trace()
    trace.record(3, TraceKind.BRIDGE_CALL, "LOG", "info", 7)
    trace.record(4, TraceKind.LOG, {"message": "hi"})
    assert trace.records() == [
        (3, TraceKind.BRIDGE_CALL, ("LOG", "info", 7)),
        (4, TraceKind.LOG, ({"message": "hi"},)),
    ]
    call, log = trace.events
    assert (call.index, call.time, call.kind) == (0, 3, TraceKind.BRIDGE_CALL)
    assert call.data == {"entity": "LOG", "operation": "info", "handle": 7}
    assert (log.index, log.data) == (1, {"message": "hi"})
    assert trace.of_kind(TraceKind.LOG) == (log,)
