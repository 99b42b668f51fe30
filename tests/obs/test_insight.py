"""Post-run trace analyzers: conflict attribution, the latency critical
path's exact-sum invariant, and the policy audit."""

import pytest

from repro.bench.runner import run_named
from repro.cc.seeds import seed_policy_map
from repro.config import DurabilityConfig, SimConfig
from repro.obs import (MemorySink, conflict_attribution,
                       latency_critical_path, policy_audit, read_jsonl,
                       write_jsonl)
from repro.obs.insight import _ConflictAttribution, _CriticalPath, _PolicyAudit
from repro.obs.tracing import (AccessEvent, EarlyValidateEvent, EventKind,
                               TraceEvent)
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

CCS = ["silo", "2pl", "ic3"]


def traced_run(cc_name, seed=13, policy=None, **overrides):
    defaults = dict(n_workers=4, duration=4_000.0, warmup=0.0, seed=seed)
    defaults.update(overrides)
    config = SimConfig(**defaults)
    sink = MemorySink()
    result = run_named(make_tpcc_factory(n_warehouses=1, seed=seed), cc_name,
                       config, policy=policy, trace_sink=sink)
    return result, sink.events


class TestCriticalPath:
    @pytest.mark.parametrize("cc_name", CCS)
    def test_exact_sum_invariant(self, cc_name):
        """Per type: latency_total == execute + waits + backoff exactly,
        and no transaction had a negative execute residual."""
        result, events = traced_run(cc_name)
        critical = latency_critical_path(events)
        assert critical["residual_violations"] == 0
        assert critical["types"], "a committing run must decompose"
        for type_name, entry in critical["types"].items():
            waits = sum(v for k, v in entry.items() if k.startswith("wait:"))
            total = entry["execute"] + waits + entry["backoff"]
            assert total == pytest.approx(entry["latency_total"], abs=1e-6), \
                f"{cc_name}/{type_name}: components must sum to latency"
            assert entry["execute"] >= 0.0

    def test_commit_counts_match_trace(self):
        result, events = traced_run("ic3")
        critical = latency_critical_path(events)
        commits = sum(e["commits"] for e in critical["types"].values())
        assert commits == sum(1 for e in events
                              if e.kind == EventKind.COMMIT)

    def test_log_buffer_on_durability_runs(self):
        result, events = traced_run(
            "silo", durability=DurabilityConfig(epoch_length=500.0,
                                                log_flush=100.0))
        critical = latency_critical_path(events)
        assert sum(e["log_buffer"] for e in critical["types"].values()) > 0
        # EPOCH ack harvesting: group commit delays acks past install time
        assert any("epoch_flush" in e for e in critical["types"].values())

    def test_survives_jsonl_round_trip(self, tmp_path):
        """Analyzer output is identical on read-back events (attrs must be
        JSON-representable — tuples would silently become lists)."""
        _result, events = traced_run("ic3")
        path = str(tmp_path / "t.jsonl")
        write_jsonl(events, path)
        reread = read_jsonl(path)
        assert latency_critical_path(reread) == latency_critical_path(events)
        assert conflict_attribution(reread) == conflict_attribution(events)


class TestConflictAttribution:
    def test_nonempty_on_contended_run(self):
        _result, events = traced_run("ic3")
        attribution = conflict_attribution(events)
        assert attribution["pairs"], "a contended TPC-C run must attribute"
        top = attribution["pairs"][0]
        assert top["total"] >= attribution["pairs"][-1]["total"]
        for field in ("type", "other", "table", "access_id", "waits",
                      "wait_ticks", "aborts", "dooms", "piece_retries"):
            assert field in top

    def test_hot_keys_capped_at_top_k(self):
        _result, events = traced_run("ic3")
        attribution = conflict_attribution(events, top_k=3)
        assert len(attribution["hot_keys"]) <= 3

    def test_abort_sites_are_keyed(self):
        """Aborts carrying a site land on that table, not on UNKNOWN."""
        _result, events = traced_run("silo")
        aborted = [e for e in events if e.kind == EventKind.ABORT
                   and (e.attrs or {}).get("table")]
        assert aborted, "contended silo must produce sited validation aborts"
        attribution = conflict_attribution(events)
        tables = {p["table"] for p in attribution["pairs"] if p["aborts"]}
        assert tables & {e.attrs["table"] for e in aborted}

    def test_empty_trace(self):
        attribution = conflict_attribution([])
        assert attribution == {"pairs": [], "hot_keys": []}


class TestPolicyAudit:
    def test_joins_policy_actions(self):
        spec = tpcc_spec()
        policy = seed_policy_map(spec)["ic3"]
        _result, events = traced_run("polyjuice", policy=policy)
        audit = policy_audit(events, policy=policy)
        assert audit["states"], "the policy executor emits ACCESS events"
        top = audit["states"][0]
        assert top["hits"] > 0
        assert top["actions"]["read"] in ("dirty", "clean")
        assert top["actions"]["write"] in ("public", "private")

    def test_no_policy_still_counts_hits(self):
        spec = tpcc_spec()
        policy = seed_policy_map(spec)["ic3"]
        _result, events = traced_run("polyjuice", policy=policy)
        audit = policy_audit(events)
        assert audit["states"] and "actions" not in audit["states"][0]

    def test_bypassing_protocols_audit_empty(self):
        _result, events = traced_run("silo")
        assert policy_audit(events) == {"states": []}


# ---------------------------------------------------------------------- #
# kind routing: ``repro report`` hands each fold only the kinds it declares


def _event(ts, kind, attrs, worker=0, txn=7, txn_type="neworder"):
    return TraceEvent(ts, kind, worker, txn, txn_type, attrs)


#: one plausible event of every kind, all on worker 0 mid-transaction,
#: carrying the attrs their emit sites write
PLAUSIBLE = {
    EventKind.TX_START: _event(50.0, EventKind.TX_START, {"attempt": 0}),
    EventKind.ACCESS: AccessEvent(50.0, 0, 7, "neworder", 4, "STOCK",
                                  (1, 9), "UpdateOp"),
    EventKind.WAIT_BEGIN: _event(50.0, EventKind.WAIT_BEGIN, {
        "wait_kind": "progress", "n_deps": 1, "deps": ["payment"]}),
    EventKind.WAIT_END: _event(50.0, EventKind.WAIT_END, {
        "wait_kind": "commit_deps", "waited": 9.0, "outcome": "satisfied"}),
    EventKind.VALIDATE: EarlyValidateEvent(50.0, 0, 7, "neworder", 3, True),
    EventKind.ABORT: _event(50.0, EventKind.ABORT, {
        "reason": "validation", "attempt": 0, "table": "STOCK",
        "key": [1, 9]}),
    EventKind.COMMIT: _event(50.0, EventKind.COMMIT, {
        "attempts": 1, "latency": 45.0, "log_cost": 2.0}),
    EventKind.BACKOFF: _event(50.0, EventKind.BACKOFF, {
        "pause": 8.0, "level": 8.0}),
    EventKind.PIECE_RETRY: _event(50.0, EventKind.PIECE_RETRY, {
        "retries": 1, "table": "STOCK", "key": [1, 9]}),
    EventKind.DOOM: _event(50.0, EventKind.DOOM, {
        "doomed_txn": 8, "doomed_type": "payment", "reason": "cascade"}),
    EventKind.LOCK: _event(50.0, EventKind.LOCK, {
        "table": "STOCK", "key": "(1, 9)", "mode": "exclusive",
        "outcome": "blocked", "n_holders": 1}),
    EventKind.FAULT: _event(50.0, EventKind.FAULT, {
        "fault": "stall", "origin": "scripted", "ticks": 20.0}),
    EventKind.LIVELOCK: _event(50.0, EventKind.LIVELOCK, {
        "window": 4000.0, "action": "log", "parked": [0],
        "wait_edges": [[0, 1]], "on_cycle": []}, worker=-1, txn=None,
        txn_type=None),
    EventKind.EPOCH: _event(50.0, EventKind.EPOCH, {
        "epoch": 2, "records": 3, "bytes": 400,
        "acks": {"neworder": [2, 120.0]}}, worker=-1, txn=None),
    EventKind.NODE_CRASH: _event(50.0, EventKind.NODE_CRASH, {
        "persistent_epoch": 1, "durable_seqno": 5, "lost_inflight": 2,
        "lost_unflushed": 1, "crash": 1}, worker=-1, txn=None,
        txn_type=None),
    EventKind.SHARD_CRASH: _event(50.0, EventKind.SHARD_CRASH, {
        "shard": 1, "crash": 1, "shard_persistent": 1, "lost_inflight": 2,
        "lost_unflushed": 1}, worker=-1, txn=None, txn_type=None),
    EventKind.RECOVERY: _event(50.0, EventKind.RECOVERY, {
        "checkpoint_seqno": 3, "replayed": 2, "recovery_ticks": 90.0,
        "restart": 140.0}, worker=-1, txn=None, txn_type=None),
    EventKind.ARRIVAL: _event(50.0, EventKind.ARRIVAL, {
        "seq": 11, "admitted": True, "depth": 3}, worker=-1, txn=None),
    EventKind.SHED: _event(50.0, EventKind.SHED, {
        "reason": "queue_full", "seq": 12, "queued": 0.0}, worker=-1,
        txn=None),
}

#: a transaction on worker 0 that every fold reads something of; the
#: event under test lands between its halves
BEFORE = [
    _event(10.0, EventKind.TX_START, {"attempt": 0}),
    AccessEvent(12.0, 0, 7, "neworder", 3, "DISTRICT", (1, 2), "ReadOp"),
    _event(14.0, EventKind.WAIT_BEGIN, {
        "wait_kind": "lock", "n_deps": 1, "deps": ["payment"]}),
    _event(20.0, EventKind.WAIT_END, {
        "wait_kind": "lock", "waited": 6.0, "outcome": "satisfied"}),
    AccessEvent(22.0, 0, 7, "neworder", 5, "ITEM", (40,), "ReadOp"),
    _event(24.0, EventKind.WAIT_BEGIN, {
        "wait_kind": "progress", "n_deps": 1, "deps": ["delivery"]}),
]
AFTER = [
    _event(60.0, EventKind.WAIT_END, {
        "wait_kind": "progress", "waited": 36.0, "outcome": "satisfied"}),
    _event(61.0, EventKind.ABORT, {"reason": "validation", "attempt": 0}),
    _event(62.0, EventKind.BACKOFF, {"pause": 4.0, "level": 4.0}),
    _event(66.0, EventKind.TX_START, {"attempt": 1}),
    AccessEvent(67.0, 0, 9, "neworder", 4, "STOCK", (1, 9), "UpdateOp"),
    _event(70.0, EventKind.COMMIT, {"attempts": 2, "latency": 60.0}),
    _event(71.0, EventKind.EPOCH, {"epoch": 1, "records": 1, "bytes": 90,
                                   "acks": {"neworder": [1, 80.0]}},
           worker=-1, txn=None),
]

FOLDS = {
    "attribution": lambda: _ConflictAttribution(top_k=5),
    "critical_path": _CriticalPath,
    "policy_audit": lambda: _PolicyAudit(seed_policy_map(tpcc_spec())["ic3"]),
}


def test_every_kind_has_a_plausible_event():
    assert set(PLAUSIBLE) == set(EventKind.ALL)
    assert all(event.kind == kind for kind, event in PLAUSIBLE.items())


@pytest.mark.parametrize("name", sorted(FOLDS))
def test_fold_ignores_every_kind_it_does_not_declare(name):
    """Routing skips a fold for an undeclared kind; that is exact only while
    the fold's ``feed`` ignores such an event, which this pins."""
    make = FOLDS[name]
    declared = make().kinds
    assert declared is not None and declared <= set(EventKind.ALL)
    undeclared = [kind for kind in EventKind.ALL if kind not in declared]
    assert undeclared
    for kind in undeclared:
        plain, fed = make(), make()
        for event in BEFORE:
            plain.feed(event)
            fed.feed(event)
        fed.feed(PLAUSIBLE[kind])
        for event in AFTER:
            plain.feed(event)
            fed.feed(event)
        assert fed.result() == plain.result(), f"{name} reads {kind}"


@pytest.mark.parametrize("name", sorted(FOLDS))
def test_fold_reads_what_it_declares(name):
    """The fixture reaches each declared kind: feeding it changes the
    result, so the test above is not vacuous."""
    make = FOLDS[name]
    for kind in make().kinds:
        plain, fed = make(), make()
        for event in BEFORE:
            plain.feed(event)
            fed.feed(event)
        fed.feed(PLAUSIBLE[kind])
        for event in AFTER:
            plain.feed(event)
            fed.feed(event)
        assert fed.result() != plain.result(), f"{name} ignores {kind}"
