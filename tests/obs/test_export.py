"""JSONL trace export: golden round-trips, schema guards, zero overhead."""

import pytest

from repro.models.catalog import CATALOG, build_model
from repro.obs import (
    SCHEMA_VERSION,
    TraceSchemaError,
    batch_report_trace,
    dump_jsonl,
    load_jsonl,
    read_jsonl,
    write_jsonl,
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

    def test_file_round_trip(self, tmp_path):
        trace = traced_run("microwave")
        path = tmp_path / "run.jsonl"
        write_jsonl(trace, path)
        loaded = read_jsonl(path)
        assert dump_jsonl(loaded) == path.read_text()

    def test_empty_trace_round_trips(self):
        text = dump_jsonl(Trace())
        assert len(load_jsonl(text)) == 0
        assert dump_jsonl(load_jsonl(text)) == text

    def test_stream_shape(self):
        trace = Trace()
        trace.record(5, TraceKind.LOG, note="hello")
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

    def test_rejects_non_object_data(self):
        text = (dump_jsonl(Trace())
                + '{"data":[1],"index":0,"kind":"log","time":0}\n')
        with pytest.raises(TraceSchemaError, match="object"):
            load_jsonl(text)


class TestSubsystemLifting:
    def test_batch_report_trace(self, tmp_path):
        from repro.build import BatchJob, run_batch

        report = run_batch([BatchJob("microwave", "sw-only", ())],
                           jobs=1, cache_dir=str(tmp_path))
        trace = batch_report_trace(report)
        assert len(trace) == 1
        event = trace.events[0]
        assert event.kind is TraceKind.LOG
        assert event.data["job"] == "microwave:sw-only"
        assert event.data["ok"] is True
        assert dump_jsonl(load_jsonl(dump_jsonl(trace))) == dump_jsonl(trace)


class TestDisabledOverhead:
    def test_disabled_hooks_add_no_events_and_no_metrics(self):
        # no registry active, no observers attached: a run must produce
        # exactly the same trace as the seed and touch no metric state
        assert active_registry() is None
        simulation = Simulation(build_model("microwave"))
        assert simulation._metric_dispatches is None
        machine = CoSimMachine(chaos_build("microwave"))
        assert machine._m_routed is None
        assert machine.bus._m_messages is None
        assert machine.on_sent == [] and machine.on_consumed == []

    def test_abstract_run_trace_identical_with_and_without_registry(self):
        baseline = traced_run("trafficlight")
        from repro.obs import observe

        with observe() as registry:
            observed = traced_run("trafficlight")
        assert dump_jsonl(observed) == dump_jsonl(baseline)
        assert registry.counter("runtime.dispatches").value > 0
