"""Tracer tests: sinks, exporters, and the disabled fast path."""

import json

import pytest

from repro.config import SimConfig
from repro.bench.runner import run_named
from repro.errors import ReproError
from repro.obs import (EventKind, JsonlStreamSink, MemorySink, NULL_SINK,
                       NullSink, TraceEvent, build_report,
                       chrome_trace_events, export_chrome_trace, iter_jsonl,
                       read_jsonl, write_jsonl)
from repro.workloads.tpcc import make_tpcc_factory

FAST = SimConfig(n_workers=2, duration=1500.0, warmup=0.0, seed=7)

#: how `repro report` names a line whose attrs hold a wrong-typed value
ATTRS_VALUE = "wrong-typed attrs value"


def tpcc():
    return make_tpcc_factory(n_warehouses=1, seed=7)


def sample_events():
    return [
        TraceEvent(10.0, EventKind.TX_START, 0, 1, "neworder",
                   {"attempt": 0}),
        TraceEvent(20.0, EventKind.ACCESS, 0, 1, "neworder",
                   {"access_id": 3, "table": "stock", "op": "ReadOp"}),
        TraceEvent(30.0, EventKind.WAIT_BEGIN, 0, 1, "neworder",
                   {"wait_kind": "lock", "n_deps": 1}),
        TraceEvent(45.0, EventKind.WAIT_END, 0, 1, "neworder",
                   {"wait_kind": "lock", "waited": 15.0,
                    "outcome": "satisfied"}),
        TraceEvent(50.0, EventKind.ABORT, 0, 1, "neworder",
                   {"reason": "validation", "attempt": 0}),
        TraceEvent(55.0, EventKind.BACKOFF, 0, None, "neworder",
                   {"pause": 8.0, "level": 8.0}),
        TraceEvent(70.0, EventKind.TX_START, 0, 2, "neworder",
                   {"attempt": 1}),
        TraceEvent(90.0, EventKind.COMMIT, 0, 2, "neworder",
                   {"attempts": 2, "latency": 80.0}),
    ]


class TestEvent:
    def test_dict_round_trip(self):
        for event in sample_events():
            assert TraceEvent.from_dict(event.to_dict()) == event

    def test_minimal_event_omits_empty_fields(self):
        data = TraceEvent(1.0, EventKind.TX_START, 3).to_dict()
        assert data == {"ts": 1.0, "kind": "tx_start", "worker": 3}

    def test_all_kinds_enumerated(self):
        assert EventKind.TX_START in EventKind.ALL
        assert len(set(EventKind.ALL)) == len(EventKind.ALL)


class TestSinks:
    def test_null_sink_is_disabled(self):
        assert not NULL_SINK.enabled
        assert isinstance(NULL_SINK, NullSink)

    def test_memory_sink_collects(self):
        sink = MemorySink()
        assert sink.enabled
        for event in sample_events():
            sink.emit(event)
        assert len(sink) == len(sample_events())

    def test_jsonl_stream_sink(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with open(path, "w") as fh:
            sink = JsonlStreamSink(fh)
            for event in sample_events():
                sink.emit(event)
        assert read_jsonl(str(path)) == sample_events()


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        events = sample_events()
        assert write_jsonl(events, path) == len(events)
        assert read_jsonl(path) == events

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"ts": 1.0, "kind": "commit", "worker": 0}\n\n')
        assert len(read_jsonl(str(path))) == 1

    def test_iter_yields_what_read_returns(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(sample_events(), path)
        events = iter_jsonl(path)
        assert next(events) == sample_events()[0]
        assert list(events) == sample_events()[1:]

    @pytest.mark.parametrize("line, detail", [
        ("[1, 2]", "not a JSON object"),
        ('"access"', "not a JSON object"),
        ('{"kind": "access"}', "lacks field 'ts'"),
        ('{"ts": 1.0, "worker": 0}', "lacks field 'kind'"),
        ('{"ts": "x", "kind": "access"}', "malformed trace event"),
        ('{"ts": 1.0, "kind": "access", "worker": "w"}',
         "malformed trace event"),
        ('{"ts": 1.0, "kind": "access", "worker": null}',
         "malformed trace event"),
        ('{"ts": 1.0, "kind": "access", "attrs": [1, 2]}',
         "'attrs' must be an object"),
        ('{"ts": 1.0, "kind": "wait_end", "attrs": "x"}',
         "'attrs' must be an object"),
        ('{"ts": 1.0, "kind": "access", "type": ["x"]}',
         "'type' must be a string"),
        # the decoder's own message, after the file's line number
        ('{"ts": 1.0, "kind": "access", "type": "neworder',
         "not a JSONL trace: Unterminated string"),
        ('{"ts": 1.0, "kind": "commit"} {"ts": 2.0, "kind": "commit"}',
         "not a JSONL trace: Extra data"),
        ("NaN", "not a JSON object"),
        # attrs values are checked by the report's folds, not the reader
        ('{"ts": 1.0, "kind": "access", "worker": 0, "type": "t", '
         '"attrs": {"access_id": [1]}}', ATTRS_VALUE),
        ('{"ts": 1.0, "kind": "wait_end", "worker": 0, '
         '"attrs": {"wait_kind": ["progress"]}}', ATTRS_VALUE),
    ])
    def test_malformed_event_names_its_line(self, tmp_path, line, detail):
        path = tmp_path / "bad.jsonl"
        header = json.dumps({"schema": "repro.trace", "version": 1})
        good = json.dumps({"ts": 1.0, "kind": "commit", "worker": 0})
        path.write_text(f"{header}\n{good}\n\n{line}\n")
        loaders = [lambda p: build_report(trace_path=p)]
        if detail != ATTRS_VALUE:
            loaders.append(read_jsonl)
        for load in loaders:
            with pytest.raises(ReproError) as info:
                load(str(path))
            assert f"{path}:4:" in str(info.value)
            assert detail in str(info.value)


class TestChromeExport:
    def test_slices_balance(self):
        chrome = chrome_trace_events(sample_events())
        begins = sum(1 for e in chrome if e["ph"] == "B")
        ends = sum(1 for e in chrome if e["ph"] == "E")
        assert begins == ends > 0

    def test_metadata_names_workers(self):
        chrome = chrome_trace_events(sample_events())
        meta = [e for e in chrome if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "repro simulation" in names
        assert "worker 0" in names

    def test_unbalanced_trace_closed_at_end(self):
        # an attempt still in flight when the trace stops
        chrome = chrome_trace_events([
            TraceEvent(5.0, EventKind.TX_START, 1, 9, "payment", {}),
            TraceEvent(8.0, EventKind.WAIT_BEGIN, 1, 9, "payment",
                       {"wait_kind": "lock"}),
        ])
        begins = [e for e in chrome if e["ph"] == "B"]
        ends = [e for e in chrome if e["ph"] == "E"]
        assert len(begins) == len(ends) == 2
        assert all(e["ts"] == 8.0 for e in ends)

    def test_export_writes_valid_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        count = export_chrome_trace(sample_events(), path)
        with open(path) as fh:
            document = json.load(fh)
        assert len(document["traceEvents"]) == count
        assert document["displayTimeUnit"] == "ms"


class TestEndToEnd:
    def test_seeded_run_emits_events(self):
        sink = MemorySink()
        run_named(tpcc(), "silo", FAST, trace_sink=sink)
        kinds = {event.kind for event in sink.events}
        assert EventKind.TX_START in kinds
        assert EventKind.COMMIT in kinds
        assert all(event.kind in EventKind.ALL for event in sink.events)
        timestamps = [event.ts for event in sink.events]
        assert timestamps == sorted(timestamps)
        assert all(0.0 <= ts <= FAST.duration for ts in timestamps)

    def test_disabled_path_emits_nothing(self):
        class ExplodingSink(MemorySink):
            enabled = False

            def emit(self, event):  # pragma: no cover - must never run
                raise AssertionError("disabled sink received an event")

        sink = ExplodingSink()
        result = run_named(tpcc(), "silo", FAST, trace_sink=sink)
        assert len(sink) == 0
        assert result.stats.total_commits > 0

    def test_disabled_run_matches_traced_run(self):
        traced = run_named(tpcc(), "silo", FAST, trace_sink=MemorySink())
        plain = run_named(tpcc(), "silo", FAST)
        assert traced.stats.total_commits == plain.stats.total_commits
        assert traced.stats.abort_reasons == plain.stats.abort_reasons

    @pytest.mark.parametrize("cc", ["silo", "2pl", "ic3"])
    def test_protocol_trace_exports_cleanly(self, cc, tmp_path):
        sink = MemorySink()
        run_named(tpcc(), cc, FAST, trace_sink=sink)
        assert len(sink) > 0
        path = str(tmp_path / "t.jsonl")
        write_jsonl(sink.events, path)
        assert read_jsonl(path) == sink.events
        export_chrome_trace(sink.events, str(tmp_path / "t.json"))
        with open(tmp_path / "t.json") as fh:
            assert json.load(fh)["traceEvents"]
