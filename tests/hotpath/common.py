"""Shared machinery for the hot-path bit-identity suite.

The hot-path overhaul (precomputed policy tables, slot-indexed storage,
batched dispatch) is pure mechanism: it must never change *what* a seeded
run does, only how fast the simulator gets there.  This module defines a
matrix of seeded runs — every in-tree protocol crossed with closed-loop,
open-loop and durable modes, plus a fault-plan run — and produces a
canonical digest of each: the full stats summary, a SHA-256 over the
structured trace, and a SHA-256 over the metrics snapshot.

``gen_fixtures.py`` records the digests produced by a known-good build into
``data/fixtures.json``; ``test_bit_identity.py`` re-runs the matrix and
compares byte-for-byte.  Any divergence means an optimisation changed
observable behaviour.

The ``CRASH_CELLS`` pin what the 13 original cells never reach: node and
shard crashes, recovery, and the 2-shard 2PC log.  Their digests add
SHA-256s over the durable log, every per-shard log and every recovered
snapshot, plus the crash reports' scalar slots — all hashed from a
canonical ``repr`` of sorted items (never a pickle), so one fixture holds
on every Python version the tier-1 job runs.

The ``ADMISSION_CELLS`` pin per-shard admission on a 2-shard cluster — the
paths the four ``*-open_loop`` cells and ``polyjuice-cluster2-open_loop-
durable`` leave cold: every shed reason under overload, and degraded-mode
shedding while a shard is down.  Their digests add the frontend's
conservation ledger and a SHA-256 over the timeline rows.

The ``BACKOFF_CELLS`` pin what no other cell passes: a learned
:class:`~repro.core.backoff.BackoffPolicy` (§4.5).  Closed loop runs its
table under the policy's ``cap``; open loop retries with the frontend's
exponential backoff under the policy's ``cap`` and ``jitter`` overrides,
including a ``cap`` below ``backoff_initial``, which is clamped up to it.

The ``TPCE_CELLS`` pin TPC-E at Zipf theta 3 under ic3, 2pl and polyjuice
with the learned backoff: many workers reaching a few hot rows in
different orders, so one park can close several wait-for cycles and lock
holders change while waiters are parked.

The ``PARKED_FAULT_CELLS`` pin a scripted ``abort`` and ``crash`` that
find their target parked on a lock wait: the injector aborts it at once,
at its ``WaitFor`` yield, before any other event of that instant.  Each
event's time lies inside one of the target's waits, so the digest lists
the ``fault`` WAIT_END events, which must equal the scripted (time,
worker) pairs.

The ``TIMEOUT_CELLS`` pin the ``wait_timeout`` safety valve, which no
other cell reaches: the Polyjuice TPC-E cell with a timeout short enough
that performance waits give up and proceed and commit-phase waits abort
``wait_timeout``.  Their digests add the scheduler's ``timeout_breaks``,
the (time, worker) of every ``timeout`` WAIT_END and the wait kinds that
timed out.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Optional

from repro.bench.runner import run_named
from repro.cluster.workloads import make_cluster_tpcc_factory
from repro.config import (ClusterConfig, CostModel, DurabilityConfig,
                          FrontendConfig, SimConfig)
from repro.core.backoff import BackoffPolicy
from repro.core.ops import UpdateOp
from repro.core.protocol import TxnInvocation
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TimelineSampler
from repro.obs.tracing import EventKind, MemorySink
from repro.workloads.tpce import make_tpce_factory

from tests.helpers import (CounterWorkload, FRONTEND_LEDGER, counter_spec,
                           tpce_t3_policy)

PROTOCOLS = ["silo", "2pl", "ic3", "polyjuice"]
MODES = ["closed", "open_loop", "durable"]

#: contended enough that every wait/cycle/backoff path fires
N_WORKERS = 8
N_KEYS = 4
N_ACCESSES = 3
DURATION = 20_000.0
WARMUP = 2_000.0
SEED = 11


class OrderedCounterWorkload(CounterWorkload):
    """CounterWorkload with keys accessed in global (sorted) order so the
    2PL baseline's ordered-acquisition assumption holds under contention."""

    def make_invocation(self, type_name: str, rng: random.Random,
                        worker_id: int) -> TxnInvocation:
        invocation = super().make_invocation(type_name, rng, worker_id)
        ops = sorted(invocation.program(), key=lambda op: op.key)

        def program():
            for access_id, op in enumerate(ops):
                yield UpdateOp(op.table, op.key, op.update_fn, access_id)

        return TxnInvocation(invocation.type_index, invocation.type_name,
                             program)


#: cluster cells spread more keys over the two shards, so single-shard
#: and cross-shard (2PC) commits both occur
CLUSTER_KEYS = 16
CLUSTER_ACCESSES = 2

_NODE_CRASH = ScriptedFault(time=9_100.0, kind="node_crash")

#: name -> (protocol, shards, open loop?, durability overrides, scripted
#: faults).  9100 is mid-epoch with the previous epoch's flush still in
#: flight (and, on the cluster, decision messages on the wire).  The last
#: cell's log device is slower than the epoch, so a rejoined shard (fresh
#: device) runs ahead of the survivor: the second shard crash kills a
#: coordinator whose participant's prepares are already flushed (blocked in
#: doubt, presumed abort at rejoin) and the whole-cluster crash finds an
#: epoch flushed on one shard only, plus voided residue to skip on replay.
CRASH_CELLS = {
    "silo-durable-node_crash": ("silo", None, False, {}, [_NODE_CRASH]),
    "polyjuice-durable-node_crash":
        ("polyjuice", None, False, {}, [_NODE_CRASH]),
    "silo-cluster2-durable": ("silo", 2, False, {}, []),
    "silo-cluster2-node_crash": ("silo", 2, False, {}, [_NODE_CRASH]),
    "silo-cluster2-shard_crash": ("silo", 2, False, {}, [
        ScriptedFault(time=9_100.0, kind="shard_crash", worker=1,
                      downtime=1_500.0)]),
    "polyjuice-cluster2-open_loop-durable": ("polyjuice", 2, True, {}, []),
    "silo-cluster2-shard_then_node_crash": (
        "silo", 2, False, dict(epoch_length=500.0, log_flush=520.0), [
            ScriptedFault(time=5_100.0, kind="shard_crash", worker=1,
                          downtime=500.0),
            ScriptedFault(time=9_300.0, kind="shard_crash", worker=0,
                          downtime=500.0),
            ScriptedFault(time=12_650.0, kind="node_crash")]),
}


#: name -> (frontend config, durable?, scripted faults): silo over the
#: 2-shard TPC-C adapter (2 warehouses, half the transactions cross-shard),
#: whose three transaction types give the ``priority`` shed policy someone
#: to evict (payments outrank the rest).  The first offers ~2x what the 8
#: workers can commit into 12-slot queues with a deadline shorter than a
#: full queue's wait, so queue_full, evicted, deadline_queue,
#: deadline_inflight and retry_budget sheds all fire and entries are still
#: queued at the horizon.  The second is lightly loaded until shard 1
#: crashes: its arrivals are shed ``shard_down`` at admission, survivors'
#: remote accesses to it are rejected in flight, and its dequeued
#: invocations are abandoned.
ADMISSION_CELLS = {
    "cluster2-open_loop-overload": (
        FrontendConfig(arrival_rate=120_000.0, queue_cap=12, deadline=300.0,
                       retry_budget=1, shed_policy="priority",
                       priorities=(("payment", 1.0),)),
        False, []),
    "cluster2-shard_down-shed": (
        FrontendConfig(arrival_rate=15_000.0, queue_cap=32, deadline=8_000.0,
                       retry_budget=5),
        True, [ScriptedFault(time=9_100.0, kind="shard_crash", worker=1,
                             downtime=1_500.0)]),
}


#: a learned backoff table for the counter workload's one transaction type:
#: alpha indices per (status committed / aborted, prior-abort bucket)
_BACKOFF_TABLE = [[[1, 2, 3], [4, 3, 5]]]

#: name -> (mode, backoff policy); polyjuice under the OCC seed policy
BACKOFF_CELLS = {
    "polyjuice-closed-learned_backoff":
        ("closed", BackoffPolicy(1, _BACKOFF_TABLE, cap=300.0)),
    "polyjuice-open_loop-learned_backoff":
        ("open_loop", BackoffPolicy(1, _BACKOFF_TABLE, cap=60.0,
                                    jitter=0.4)),
    "polyjuice-open_loop-backoff_cap_below_initial":
        ("open_loop", BackoffPolicy(1, _BACKOFF_TABLE, cap=2.0)),
}


#: TPC-E at Zipf theta 3 — hot-row, multi-key contention, which no counter
#: cell has — under the three protocols that deadlocked there until a park
#: broke every cycle it closed and lock waits read their holders live.
#: Recorded after that change: before it these cells pinned deadlocks.
#: Polyjuice runs the cached learned policy and backoff table.
TPCE_CELLS = ["ic3-tpce_t3", "2pl-tpce_t3",
              "polyjuice-tpce_t3-learned_backoff"]
TPCE_CONFIG = SimConfig(n_workers=16, duration=8_000.0, warmup=1_000.0,
                        seed=42)


#: name -> (protocol, scripted faults): 2PL over the counter workload.  Each
#: time was read from the trace of the run with the earlier events applied:
#: the target is parked on a lock wait and other workers wake at the same
#: instant, so an abort delivered at once (before them) and one deferred to
#: a wake-up scheduled at ``now`` (after them) give different traces.
PARKED_FAULT_CELLS = {
    "2pl-parked_faults": ("2pl", [
        ScriptedFault(time=2_038.5, kind="abort", worker=6),
        ScriptedFault(time=6_012.25, kind="crash", worker=1,
                      downtime=150.0)]),
}


#: name -> wait_timeout: the Polyjuice TPC-E cell with timeouts of a few
#: dozen ticks, so parked progress waits (exempt and proceed) and commit
#: dependency waits (abort ``wait_timeout``) both outlive their timer
TIMEOUT_CELLS = {"polyjuice-tpce_t3-wait_timeout": 20.0}


def cell_names():
    names = [f"{cc}-{mode}" for cc in PROTOCOLS for mode in MODES]
    names.append("polyjuice-faults")
    names.extend(CRASH_CELLS)
    names.extend(ADMISSION_CELLS)
    names.extend(BACKOFF_CELLS)
    names.extend(TPCE_CELLS)
    names.extend(PARKED_FAULT_CELLS)
    names.extend(TIMEOUT_CELLS)
    return names


def _config(mode: str) -> SimConfig:
    kwargs = dict(n_workers=N_WORKERS, duration=DURATION, warmup=WARMUP,
                  seed=SEED)
    if mode == "durable":
        kwargs["durability"] = DurabilityConfig()
    elif mode == "open_loop":
        kwargs["frontend"] = FrontendConfig(arrival_rate=150_000.0,
                                            queue_cap=32, deadline=8_000.0,
                                            retry_budget=5)
    return SimConfig(**kwargs)


def _policy_for(cc_name: str, n_accesses: int = N_ACCESSES):
    if cc_name != "polyjuice":
        return None
    from repro.cc.seeds import occ_policy
    return occ_policy(counter_spec(n_accesses))


def _crash_cell_setup(name: str):
    """(protocol, config, n_keys, n_accesses, fault plan) of a crash cell."""
    cc_name, shards, open_loop, overrides, events = CRASH_CELLS[name]
    durability = dict(checkpoint_interval=3_000.0)
    durability.update(overrides)
    config = dataclasses.replace(
        _config("open_loop" if open_loop else "closed"),
        durability=DurabilityConfig(**durability),
        cluster=None if shards is None else ClusterConfig(
            n_shards=shards, cross_shard_ratio=0.5))
    n_keys, n_accesses = ((N_KEYS, N_ACCESSES) if shards is None
                          else (CLUSTER_KEYS, CLUSTER_ACCESSES))
    plan = FaultPlan(events=list(events)) if events else None
    return cc_name, config, n_keys, n_accesses, plan


def _crash_digest(manager, clustered: bool) -> dict:
    """What a crash cell pins beyond summary / trace / metrics."""
    digest = {
        "durable_log_sha": _log_sha(manager.durable_log),
        "recoveries": [
            [_snapshot_sha(getattr(report, slot))
             if slot == "recovered_snapshot" else getattr(report, slot)
             for slot in type(report).__slots__]
            for report in manager.recoveries],
    }
    if clustered:
        digest["shard_logs_sha"] = [_log_sha(log)
                                    for log in manager.shard_logs]
        digest["shard_crashes"] = [
            [getattr(report, slot) for slot in type(report).__slots__]
            for report in manager.shard_crashes]
    return digest


def run_admission_cell(name: str):
    """Run one ``ADMISSION_CELLS`` entry; returns (digest, result)."""
    frontend, durable, events = ADMISSION_CELLS[name]
    config = dataclasses.replace(
        _config("closed"), frontend=frontend,
        durability=(DurabilityConfig(checkpoint_interval=3_000.0)
                    if durable else None),
        cluster=ClusterConfig(n_shards=2, cross_shard_ratio=0.5))
    sink, metrics = MemorySink(), MetricsRegistry()
    timeline = TimelineSampler(window=1_000.0, n_workers=N_WORKERS)
    result = run_named(
        make_cluster_tpcc_factory(2, N_WORKERS, cross_shard_ratio=0.5,
                                  n_warehouses=2, seed=SEED),
        "silo", config, trace_sink=sink, metrics=metrics, timeline=timeline,
        fault_plan=FaultPlan(events=list(events)) if events else None)
    digest = {
        "summary": result.stats.summary(),
        "trace_sha": _trace_sha(sink),
        "metrics_sha": _metrics_sha(metrics),
        "timeline_sha": _repr_sha([sorted(row.items())
                                   for row in timeline.rows()]),
        "frontend": {field: getattr(result.frontend, field)
                     for field in FRONTEND_LEDGER},
    }
    return digest, result


def run_tpce_cell(name: str):
    """Run one ``TPCE_CELLS`` or ``TIMEOUT_CELLS`` entry; returns (digest,
    result)."""
    policy, backoff = tpce_t3_policy()  # the baselines ignore them
    config = TPCE_CONFIG
    if name in TIMEOUT_CELLS:
        config = dataclasses.replace(
            config, cost=CostModel(wait_timeout=TIMEOUT_CELLS[name]))
    sink, metrics = MemorySink(), MetricsRegistry()
    result = run_named(
        make_tpce_factory(theta=3.0, seed=config.seed),
        name.split("-", 1)[0], config, policy=policy,
        backoff_policy=backoff, trace_sink=sink, metrics=metrics)
    digest = {"summary": result.stats.summary(),
              "trace_sha": _trace_sha(sink),
              "metrics_sha": _metrics_sha(metrics)}
    if name in TIMEOUT_CELLS:
        ends = [event for event in sink.events
                if event.kind == EventKind.WAIT_END
                and event.attrs["outcome"] == "timeout"]
        digest["timeout_breaks"] = _counter_value(metrics,
                                                  "run_timeout_breaks")
        digest["timeout_wait_ends"] = [[event.ts, event.worker]
                                       for event in ends]
        digest["timeout_wait_kinds"] = sorted(
            {event.attrs["wait_kind"] for event in ends})
    return digest, result


def run_cell(name: str, obs: bool = True):
    """Run one matrix cell; returns (digest dict, ExperimentResult)."""
    if name in ADMISSION_CELLS:
        return run_admission_cell(name)
    if name in TPCE_CELLS or name in TIMEOUT_CELLS:
        return run_tpce_cell(name)
    n_keys, n_accesses, fault_plan, backoff = N_KEYS, N_ACCESSES, None, None
    if name in BACKOFF_CELLS:
        mode, backoff = BACKOFF_CELLS[name]
        cc_name, config = "polyjuice", _config(mode)
    elif name in CRASH_CELLS:
        cc_name, config, n_keys, n_accesses, fault_plan = \
            _crash_cell_setup(name)
    elif name in PARKED_FAULT_CELLS:
        cc_name, events = PARKED_FAULT_CELLS[name]
        config = _config("closed")
        fault_plan = FaultPlan(events=list(events))
    elif name == "polyjuice-faults":
        cc_name, config = "polyjuice", _config("closed")
        fault_plan = FaultPlan(rates={"stall": 0.01, "abort": 0.005,
                                      "doom": 0.005})
    else:
        cc_name, mode = name.rsplit("-", 1)
        config = _config(mode)
    sink = MemorySink() if obs else None
    metrics = MetricsRegistry() if obs else None
    result = run_named(
        lambda: OrderedCounterWorkload(n_keys=n_keys, n_accesses=n_accesses),
        cc_name, config, policy=_policy_for(cc_name, n_accesses),
        backoff_policy=backoff, trace_sink=sink, metrics=metrics, fault_plan=fault_plan)
    digest = {"summary": result.stats.summary()}
    if obs:
        digest["trace_sha"] = _trace_sha(sink)
        digest["metrics_sha"] = _metrics_sha(metrics)
    if name in CRASH_CELLS:
        digest.update(_crash_digest(result.durability,
                                    config.cluster is not None))
    if name in PARKED_FAULT_CELLS and obs:
        digest["fault_wait_ends"] = fault_wait_ends(sink)
    return digest, result


def fault_wait_ends(sink: MemorySink) -> list:
    """(time, worker) of every WAIT_END whose outcome is ``fault``."""
    return [[event.ts, event.worker] for event in sink.events
            if event.kind == EventKind.WAIT_END
            and event.attrs["outcome"] == "fault"]


def _counter_value(metrics: MetricsRegistry, name: str) -> float:
    """The value of the one counter called ``name`` in ``metrics``."""
    [value] = [metric["value"] for metric in metrics.snapshot()
               if metric["name"] == name]
    return value


def _trace_sha(sink: MemorySink) -> str:
    payload = json.dumps([event.to_dict() for event in sink.events],
                         sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _metrics_sha(metrics: MetricsRegistry) -> str:
    payload = json.dumps(metrics.snapshot(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _repr_sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _log_sha(records) -> str:
    return _repr_sha([record.digest() + (type(record).__name__,)
                      for record in records])


def _snapshot_sha(snapshot) -> str:
    return _repr_sha([
        (table, [(key, vid, sorted(value.items()))
                 for key, (vid, value) in sorted(rows.items())])
        for table, rows in sorted(snapshot.items())])


def canonical(digest: dict) -> str:
    return json.dumps(digest, sort_keys=True)
