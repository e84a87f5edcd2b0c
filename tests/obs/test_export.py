"""JSONL trace export: golden round-trips, schema guards, zero overhead."""

import pytest

from repro.models.catalog import CATALOG, build_model
from repro.obs import (
    SCHEMA_VERSION,
    TraceSchemaError,
    dump_jsonl,
    load_jsonl,
)
from repro.obs.metrics import active_registry
from repro.runtime.simulator import Simulation
from repro.runtime.tracing import Trace, TraceKind
from repro.cosim import CoSimMachine
from repro.verify import chaos_build, run_case, suite_for


def traced_run(name: str) -> Trace:
    """Run the first suite case of a catalog model on the abstract runtime."""
    sim = Simulation(build_model(name))
    result = run_case(suite_for(name)[0], sim)
    assert not result.error
    return sim.trace


class TestRoundTrip:
    @pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
    def test_catalog_golden_round_trip(self, name):
        trace = traced_run(name)
        assert len(trace) > 0
        text = dump_jsonl(trace)
        loaded = load_jsonl(text)
        # byte identity: the format is canonical, so dump∘load == id
        assert dump_jsonl(loaded) == text
        # behavioural identity: the loaded trace tells the same story
        assert loaded.behavioural_summary() == trace.behavioural_summary()
        assert len(loaded) == len(trace)
        assert [e.kind for e in loaded] == [e.kind for e in trace]

    def test_empty_trace_round_trips(self):
        text = dump_jsonl(Trace())
        assert len(load_jsonl(text)) == 0
        assert dump_jsonl(load_jsonl(text)) == text

    def test_stream_shape(self):
        trace = Trace()
        trace.record(5, TraceKind.LOG, {"note": "hello"})
        text = dump_jsonl(trace)
        assert text.endswith("\n")
        header, line = text.splitlines()
        assert header == '{"schema":"repro.trace","version":1}'
        assert line == '{"data":{"note":"hello"},"index":0,"kind":"log","time":5}'


class TestSchemaGuards:
    def test_rejects_future_version(self):
        text = dump_jsonl(Trace()).replace(
            f'"version":{SCHEMA_VERSION}', f'"version":{SCHEMA_VERSION + 1}')
        with pytest.raises(TraceSchemaError, match="version"):
            load_jsonl(text)

    def test_rejects_foreign_schema(self):
        with pytest.raises(TraceSchemaError, match="schema"):
            load_jsonl('{"schema":"other.format","version":1}\n')

    def test_rejects_empty_stream(self):
        with pytest.raises(TraceSchemaError):
            load_jsonl("")

    def test_rejects_malformed_line(self):
        text = dump_jsonl(Trace()) + "not json\n"
        with pytest.raises(TraceSchemaError, match="line 2"):
            load_jsonl(text)

    def test_rejects_unknown_kind(self):
        text = (dump_jsonl(Trace())
                + '{"data":{},"index":0,"kind":"warp_drive","time":0}\n')
        with pytest.raises(TraceSchemaError, match="warp_drive"):
            load_jsonl(text)

    def test_rejects_missing_field(self):
        text = dump_jsonl(Trace()) + '{"data":{},"kind":"log","time":0}\n'
        with pytest.raises(TraceSchemaError, match="index"):
            load_jsonl(text)

    def test_rejects_index_gap(self):
        text = (dump_jsonl(Trace())
                + '{"data":{},"index":3,"kind":"log","time":0}\n')
        with pytest.raises(TraceSchemaError, match="append-only"):
            load_jsonl(text)

    def test_rejects_data_keys_other_than_the_kinds_fields(self):
        header = dump_jsonl(Trace())
        call = ('{"data":{"entity":"LOG","handle":1,"operation":"info"},'
                '"index":0,"kind":"bridge_call","time":0}\n')
        assert len(load_jsonl(header + call)) == 1
        missing = call.replace('"handle":1,', "")
        with pytest.raises(TraceSchemaError, match="line 2: bridge_call"):
            load_jsonl(header + missing)
        extra = call.replace('"handle":1,', '"handle":1,"note":"x",')
        second = extra.replace('"index":0', '"index":1')
        with pytest.raises(TraceSchemaError, match="line 3: bridge_call"):
            load_jsonl(header + call + second)

    def test_rejects_non_object_data(self):
        text = (dump_jsonl(Trace())
                + '{"data":[1],"index":0,"kind":"log","time":0}\n')
        with pytest.raises(TraceSchemaError, match="object"):
            load_jsonl(text)


class TestDisabledOverhead:
    def test_disabled_hooks_add_no_events_and_no_metrics(self):
        # no registry active: a run must produce exactly the same trace
        # as the seed and touch no metric state
        assert active_registry() is None
        simulation = Simulation(build_model("microwave"))
        assert simulation._metric_dispatches is None
        machine = CoSimMachine(chaos_build("microwave"))
        assert machine._m_latency is None
        assert machine.bus._m_wait is None

    def test_abstract_run_trace_identical_with_and_without_registry(self):
        baseline = traced_run("trafficlight")
        from repro.obs import observe

        with observe() as registry:
            observed = traced_run("trafficlight")
        assert dump_jsonl(observed) == dump_jsonl(baseline)
        assert registry.counter("runtime.dispatches").value > 0
