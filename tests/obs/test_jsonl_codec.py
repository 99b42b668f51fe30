"""The JSONL trace codec: every line ``write_jsonl`` writes is exactly
``json.dumps(event.to_dict())``.

The slotted per-access events (ACCESS and both VALIDATE shapes, ~90 % of
a policy-executor trace) format their line directly instead of going
through ``json.dumps``; any field of a type the emit sites never pass
takes the ``json.dumps`` path.  ``json.dumps(event.to_dict())`` stays the
reference here, checked line by line on seeded traces of every protocol
and every opt-in layer that adds event kinds, and on hand-built events
whose fields leave the fast path.
"""

import io
import json
import math
import os

import pytest

from repro.bench.runner import run_named
from repro.config import DurabilityConfig, FrontendConfig, SimConfig
from repro.core.backoff import BackoffPolicy
from repro.core.policy import CCPolicy
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.obs import (EventKind, JsonlStreamSink, MemorySink, TraceEvent,
                       read_jsonl, write_jsonl)
from repro.obs.tracing import (AccessEvent, EarlyValidateEvent,
                               FinalValidateEvent)
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "harness", "fixtures")
SEED = 5


def wh1_policy():
    return (CCPolicy.load(tpcc_spec(), os.path.join(
                FIXTURES, "policy_tpcc_wh1_quick.json")),
            BackoffPolicy.load(os.path.join(
                FIXTURES, "backoff_tpcc_wh1_quick.json")))


def tpcc_trace(cc_name, **config):
    """A seeded 1-warehouse TPC-C trace; polyjuice runs the wh1 policy."""
    settings = dict(n_workers=8, duration=3_000.0, warmup=0.0, seed=SEED)
    settings.update(config)
    policy, backoff = wh1_policy() if cc_name == "polyjuice" else (None,
                                                                   None)
    fault_plan = settings.pop("fault_plan", None)
    sink = MemorySink()
    run_named(make_tpcc_factory(n_warehouses=1, seed=SEED), cc_name,
              SimConfig(**settings), policy=policy, backoff_policy=backoff,
              trace_sink=sink, fault_plan=fault_plan)
    return sink.events


#: name -> (protocol, SimConfig overrides, kinds the trace must hold)
RUNS = {
    "silo": ("silo", {}, {EventKind.COMMIT}),
    "2pl": ("2pl", {}, {EventKind.COMMIT}),
    "ic3": ("ic3", {}, {EventKind.ACCESS, EventKind.VALIDATE}),
    "polyjuice": ("polyjuice", {}, {EventKind.ACCESS, EventKind.VALIDATE}),
    "durable": ("polyjuice", {"durability": DurabilityConfig()},
                {EventKind.EPOCH}),
    "open_loop_shedding": ("polyjuice", {"frontend": FrontendConfig(
        arrival_rate=200_000.0, queue_cap=8, deadline=500.0,
        retry_budget=1)}, {EventKind.ARRIVAL, EventKind.SHED}),
    "scripted_faults": ("polyjuice", {"fault_plan": FaultPlan(events=[
        ScriptedFault(time=700.0, kind="abort", worker=2),
        ScriptedFault(time=1_300.0, kind="stall", worker=4, ticks=90.0),
        ScriptedFault(time=2_100.0, kind="crash", worker=1,
                      downtime=150.0)])}, {EventKind.FAULT}),
}


def written(events) -> str:
    out = io.StringIO()
    assert write_jsonl(events, out) == len(events)
    return out.getvalue()


def assert_encodes_like_json_dumps(events) -> None:
    text = written(events)
    header, *lines, tail = text.split("\n")
    assert json.loads(header)["schema"] == "repro.trace"
    assert tail == "" and len(lines) == len(events)
    for event, line in zip(events, lines):
        assert line == json.dumps(event.to_dict()), event.to_dict()
    # the streaming sink writes the same bytes
    stream = io.StringIO()
    sink = JsonlStreamSink(stream)
    for event in events:
        sink.emit(event)
    assert stream.getvalue() == text


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_trace_lines_equal_json_dumps(name):
    cc_name, config, kinds = RUNS[name]
    events = tpcc_trace(cc_name, **config)
    assert kinds <= {event.kind for event in events}
    assert_encodes_like_json_dumps(events)


#: fields the emit sites never pass, each of which must leave the direct
#: formatter for json.dumps (or format the same bytes)
ODD_EVENTS = [
    AccessEvent(1.5, 0, None, "neworder", 1, "STOCK", (1, 2), "ReadOp"),
    AccessEvent(1.5, 0, 3, None, 1, "STOCK", (1, 2), "ReadOp"),
    AccessEvent(2.0, 1, 4, "delivery", 0, "NEW_ORDER", None, "ScanOp"),
    AccessEvent(2.0, 1, 4, "delivery", 0, "NEW_ORDER", (), "ScanOp"),
    AccessEvent(2.5, 1, 4, "trade", 3, "TRADE", (7, "abc"), "ReadOp"),
    AccessEvent(2.5, 1, 4, "trade", 3, "TRADE", (True, 2), "ReadOp"),
    AccessEvent(2.5, 1, 4, "trade", 3, "TRADE", [7, 8], "ReadOp"),
    AccessEvent(2.5, 1, 4, "trade", 3, "TRADE", (1.5,), "ReadOp"),
    AccessEvent(3, 2, 5, "payment", 0, "WAREHOUSE", (1,), "UpdateOp"),
    AccessEvent(-0.0, 2, 5, "payment", 0, "WAREHOUSE", (1,), "UpdateOp"),
    AccessEvent(1e16, 2, 5, "payment", 0, "WAREHOUSE", (1,), "UpdateOp"),
    AccessEvent(5e-324, 2, 5, "payment", 0, "WAREHOUSE", (-1,), "UpdateOp"),
    AccessEvent(0.1 + 0.2, 2, 2 ** 70, "payment", 0, "WAREHOUSE", (1,),
                "UpdateOp"),
    AccessEvent(math.nan, 2, 5, "payment", 0, "WAREHOUSE", (1,), "ReadOp"),
    AccessEvent(math.inf, 2, 5, "payment", 0, "WAREHOUSE", (1,), "ReadOp"),
    AccessEvent(4.0, True, 5, "payment", 0, "WAREHOUSE", (1,), "ReadOp"),
    AccessEvent(4.0, 2, 5, "payment", True, "WAREHOUSE", (1,), "ReadOp"),
    AccessEvent(4.0, 2, 5, "nouvelle-commandeé", 0, "ENTREPÔT",
                (1,), "ReadOp"),
    AccessEvent(4.0, 2, 5, 'quo"te\\back\nslash\x01', 0, "T", (1,),
                "ReadOp"),
    EarlyValidateEvent(5.0, 0, 9, "payment", 3, True),
    EarlyValidateEvent(5.0, 0, 9, "payment", 0, 1),
    EarlyValidateEvent(5.0, 0, 9, "payment", False, False),
    EarlyValidateEvent(5.0, 0, None, None, 3, True),
    EarlyValidateEvent(6, 0, 9, "新订单", 3, True),
    FinalValidateEvent(7.0, 3, 11, "neworder", 12, 4),
    FinalValidateEvent(7.0, 3, None, None, 5, 2),
    FinalValidateEvent(7.0, 3, 11, "neworder", True, 4),
    FinalValidateEvent(-0.0, 3, 11, "neworder", 0, -4),
    FinalValidateEvent(math.nan, 3, 11, "neworder", 1, 1),
    TraceEvent(8.0, EventKind.COMMIT, 3, 11, "neworder",
               {"attempts": 1, "latency": 20.5}),
    TraceEvent(8, EventKind.TX_START, 3),
]


def test_odd_field_types_encode_like_json_dumps():
    assert_encodes_like_json_dumps(ODD_EVENTS)


def test_odd_field_types_read_back(tmp_path):
    """What the reader rebuilds from those lines equals the event (NaN
    is left out: it never equals itself)."""
    events = [event for event in ODD_EVENTS
              if not (isinstance(event.ts, float) and math.isnan(event.ts))]
    path = str(tmp_path / "odd.jsonl")
    write_jsonl(events, path)
    assert [e.to_dict() for e in read_jsonl(path)] == \
        [json.loads(json.dumps(e.to_dict())) for e in events]
