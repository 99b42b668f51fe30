"""The slotted per-access trace events: same data as a dict-carrying
:class:`TraceEvent`, a fraction of the memory.

ACCESS and VALIDATE are ~90 % of a policy-executor trace, and ``repro run
--trace`` buffers every event until the run ends.  These classes keep
their attrs values as slots and build the dict only on read; the tests
pin that every reader sees what a dict-carrying event gave, that the
events survive copy and pickle, and what one buffered event costs.
"""

import copy
import gc
import os
import pickle
import tracemalloc

import pytest

from repro.bench.runner import run_named
from repro.config import SimConfig
from repro.core.backoff import BackoffPolicy
from repro.core.policy import CCPolicy
from repro.obs import (EventKind, MemorySink, TraceEvent, iter_jsonl,
                       write_jsonl)
from repro.obs.tracing import (AccessEvent, EarlyValidateEvent,
                               FinalValidateEvent)
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "harness", "fixtures")
PER_ACCESS_KINDS = (EventKind.ACCESS, EventKind.VALIDATE)
SLOTTED = (AccessEvent, EarlyValidateEvent, FinalValidateEvent)

#: every shape a slotted event takes, next to the dict-carrying event the
#: emit sites built before the slotted classes existed
SHAPES = [
    (AccessEvent(12.5, 3, 41, "neworder", 7, "stock", (1, 2, 3001),
                 "ReadOp"),
     TraceEvent(12.5, EventKind.ACCESS, 3, 41, "neworder",
                {"access_id": 7, "table": "stock", "key": [1, 2, 3001],
                 "op": "ReadOp"})),
    (AccessEvent(13.0, 0, 8, "delivery", 2, "new_order", None, "ScanOp"),
     TraceEvent(13.0, EventKind.ACCESS, 0, 8, "delivery",
                {"access_id": 2, "table": "new_order", "key": None,
                 "op": "ScanOp"})),
    (EarlyValidateEvent(20.0, 1, 9, "payment", 4, True),
     TraceEvent(20.0, EventKind.VALIDATE, 1, 9, "payment",
                {"phase": "early", "entries": 4, "publish": True})),
    (EarlyValidateEvent(21.0, 1, 9, "payment", 0, False),
     TraceEvent(21.0, EventKind.VALIDATE, 1, 9, "payment",
                {"phase": "early", "entries": 0, "publish": False})),
    (FinalValidateEvent(30.0, 2, None, None, 5, 2),
     TraceEvent(30.0, EventKind.VALIDATE, 2, None, None,
                {"phase": "final", "reads": 5, "writes": 2})),
]


def polyjuice_trace(duration=3_000.0):
    """A fixed small TPC-C run under the wh1 policy: every slotted shape
    (reads, writes, scans, early and final validation) appears in it."""
    policy = CCPolicy.load(
        tpcc_spec(), os.path.join(FIXTURES, "policy_tpcc_wh1_quick.json"))
    backoff = BackoffPolicy.load(
        os.path.join(FIXTURES, "backoff_tpcc_wh1_quick.json"))
    sink = MemorySink()
    run_named(make_tpcc_factory(n_warehouses=1, seed=5), "polyjuice",
              SimConfig(n_workers=8, duration=duration, warmup=0.0, seed=5),
              policy=policy, backoff_policy=backoff, trace_sink=sink)
    return sink


@pytest.mark.parametrize("event, expected", SHAPES)
class TestShapes:
    def test_to_dict_matches_dict_event(self, event, expected):
        assert event.to_dict() == expected.to_dict()
        # key order is part of the trace's bytes
        assert list(event.to_dict()) == list(expected.to_dict())
        assert list(event.attrs) == list(expected.attrs)
        assert event.kind == expected.kind
        assert event == expected and expected == event

    def test_attrs_built_fresh_on_each_read(self, event, expected):
        event.attrs["scribble"] = 1
        assert event.attrs == expected.attrs

    def test_copy_and_pickle_round_trip(self, event, expected):
        for clone in (copy.copy(event), copy.deepcopy(event),
                      pickle.loads(pickle.dumps(event))):
            assert type(clone) is type(event)
            assert clone == event
            assert clone.to_dict() == expected.to_dict()


def test_run_emits_slotted_events_that_round_trip(tmp_path):
    sink = polyjuice_trace()
    per_access = [e for e in sink.events if e.kind in PER_ACCESS_KINDS]
    assert per_access and all(isinstance(e, SLOTTED) for e in per_access)
    assert {type(e) for e in per_access} == set(SLOTTED)
    ops = {e.op for e in per_access if isinstance(e, AccessEvent)}
    assert {"ReadOp", "ScanOp"} <= ops
    # the key is the operation's own tuple, not a copy
    assert all(isinstance(e.key, tuple) for e in per_access
               if isinstance(e, AccessEvent) and e.op != "ScanOp")
    # every other kind still carries its dict
    assert all(type(e) is TraceEvent for e in sink.events
               if e.kind not in PER_ACCESS_KINDS)

    path = str(tmp_path / "t.jsonl")
    assert write_jsonl(sink.events, path) == len(sink.events)
    read_back = list(iter_jsonl(path))
    assert read_back == sink.events
    assert [e.to_dict() for e in read_back] == \
        [e.to_dict() for e in sink.events]


def test_buffered_per_access_event_bytes():
    """What the MemorySink holds per ACCESS / VALIDATE event.

    Dropping those events from the sink frees their record, the boxed
    ``ts`` and the key tuple (dead with its operation once the attempt
    ends).  Dict-carrying events held ~330 B each here (an ACCESS ~430 B:
    an 80 B record, a 184 B attrs dict and a 72 B list copy of the key);
    slotted ones hold ~160 B."""
    tracemalloc.start()
    try:
        sink = polyjuice_trace()
        kept = [e for e in sink.events if e.kind not in PER_ACCESS_KINDS]
        n_dropped = len(sink.events) - len(kept)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        sink.events = kept
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n_dropped > 5_000
    per_event = freed / n_dropped
    assert per_event < 250, f"{per_event:.0f} B per ACCESS/VALIDATE event"
