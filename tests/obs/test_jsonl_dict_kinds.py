"""The dict-carrying kinds every attempt, commit and wait emits (TX_START,
COMMIT, WAIT_BEGIN, WAIT_END) format their JSONL line directly, like the
per-access kinds: byte for byte ``json.dumps(event.to_dict())``, and
``json.dumps`` itself for any attrs shape the emit sites never write.
"""

import json
import math

import pytest

from repro.config import DurabilityConfig, FrontendConfig
from repro.obs import EventKind, TraceEvent
from repro.obs.tracing import _ATTRS_JSON, _dict_jsonl

from tests.obs.test_jsonl_codec import (assert_encodes_like_json_dumps,
                                        tpcc_trace)

TX_START, COMMIT = EventKind.TX_START, EventKind.COMMIT
WAIT_BEGIN, WAIT_END = EventKind.WAIT_BEGIN, EventKind.WAIT_END

#: the shapes the emit sites write, every optional key present and absent
EMITTED = [
    TraceEvent(1.0, TX_START, 3, txn_type="neworder", attrs={"attempt": 0}),
    TraceEvent(1.0, TX_START, 3, txn_type="新订单", attrs={"attempt": 12}),
    TraceEvent(2.5, COMMIT, 3, txn_type="payment",
               attrs={"attempts": 1, "latency": 20.5}),
    TraceEvent(2.5, COMMIT, 3, txn_type="payment",
               attrs={"attempts": 2, "latency": 0.1 + 0.2,
                      "deadline_met": True}),
    TraceEvent(2.5, COMMIT, 3, txn_type="payment",
               attrs={"attempts": 2, "latency": 1e16,
                      "deadline_met": False, "log_cost": 0.0}),
    TraceEvent(2.5, COMMIT, 3, txn_type="payment",
               attrs={"attempts": 3, "latency": 5e-324, "log_cost": 4.25}),
    TraceEvent(3.0, WAIT_BEGIN, 1, 17, "delivery",
               {"wait_kind": "commit", "n_deps": 0}),
    TraceEvent(3.0, WAIT_BEGIN, 1, 17, "delivery",
               {"wait_kind": "progress", "n_deps": 2,
                "deps": ["neworder", "payment"]}),
    TraceEvent(3.0, WAIT_BEGIN, 1, 17, "delivery",
               {"wait_kind": "lock", "n_deps": 0, "deps": []}),
    TraceEvent(3.0, WAIT_BEGIN, 4, attrs={"wait_kind": "arrival",
                                          "n_deps": 0}),
    TraceEvent(4.0, WAIT_END, 1, 17, "delivery",
               {"wait_kind": "commit", "waited": 12.75,
                "outcome": "satisfied"}),
    TraceEvent(-0.0, WAIT_END, 4, attrs={"wait_kind": "arrival",
                                         "waited": 0.0,
                                         "outcome": 'q"uo\\te'}),
]

#: shapes they never write: each takes json.dumps (or formats its bytes)
ODD = [
    TraceEvent(1, TX_START, 3, attrs={"attempt": 0}),
    TraceEvent(math.nan, TX_START, 3, attrs={"attempt": 0}),
    TraceEvent(1.0, TX_START, True, attrs={"attempt": 0}),
    TraceEvent(1.0, TX_START, 3, "7", attrs={"attempt": 0}),
    TraceEvent(1.0, TX_START, 3, attrs={"attempt": True}),
    TraceEvent(1.0, TX_START, 3, attrs={"attempt": 1.0}),
    TraceEvent(1.0, TX_START, 3, attrs={}),
    TraceEvent(1.0, TX_START, 3),
    TraceEvent(1.0, TX_START, 3, attrs={"attempt": 0, "extra": 1}),
    TraceEvent(2.5, COMMIT, 3, attrs={"latency": 2.0, "attempts": 1}),
    TraceEvent(2.5, COMMIT, 3, attrs={"attempts": 1, "latency": 2}),
    TraceEvent(2.5, COMMIT, 3, attrs={"attempts": 1, "latency": math.inf}),
    TraceEvent(2.5, COMMIT, 3, attrs={"attempts": 1, "latency": 2.0,
                                      "deadline_met": 1}),
    TraceEvent(2.5, COMMIT, 3, attrs={"attempts": 1, "latency": 2.0,
                                      "log_cost": None}),
    TraceEvent(3.0, WAIT_BEGIN, 1, attrs={"wait_kind": "lock",
                                          "n_deps": 1, "deps": ("a",)}),
    TraceEvent(3.0, WAIT_BEGIN, 1, attrs={"wait_kind": "lock",
                                          "n_deps": 1, "deps": [1]}),
    TraceEvent(3.0, WAIT_BEGIN, 1, attrs={"wait_kind": None, "n_deps": 0}),
    TraceEvent(3.0, WAIT_BEGIN, 1, attrs={1: "lock"}),
    TraceEvent(4.0, WAIT_END, 1, attrs={"wait_kind": "lock",
                                        "waited": math.nan,
                                        "outcome": "timeout"}),
    TraceEvent(4.0, WAIT_END, 1, attrs={"wait_kind": "lock", "waited": 1.0,
                                        "outcome": ["timeout"]}),
]


def direct(event):
    return _dict_jsonl(event, _ATTRS_JSON[event.kind])


@pytest.mark.parametrize("index", range(len(EMITTED)))
def test_emitted_shapes_are_formatted_directly(index):
    event = EMITTED[index]
    assert direct(event) == json.dumps(event.to_dict())


def test_every_shape_encodes_like_json_dumps():
    assert_encodes_like_json_dumps(EMITTED + ODD)


def test_a_seeded_trace_takes_the_direct_path():
    """Open loop with deadlines and durability: every optional key occurs,
    and every attempt, commit and wait event is formatted directly."""
    events = tpcc_trace("polyjuice", durability=DurabilityConfig(),
                        frontend=FrontendConfig(
                            arrival_rate=200_000.0, queue_cap=8,
                            deadline=500.0, retry_budget=1))
    mine = [event for event in events if event.kind in _ATTRS_JSON]
    keys = {key for event in mine for key in event.attrs}
    assert {"deps", "deadline_met", "log_cost"} <= keys
    assert {event.kind for event in mine} == set(_ATTRS_JSON)
    for event in mine:
        assert direct(event) == json.dumps(event.to_dict())
