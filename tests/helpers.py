"""Test helpers: a minimal counter workload with a perfect invariant.

``CounterWorkload`` runs transactions that pick ``k`` distinct counters
from a small key space and increment each (read-modify-write).  Because
every committed transaction adds exactly +1 to each of its counters, the
final database state must satisfy::

    sum(counters) == sum over committed txns of k

which makes lost updates, dirty-read anomalies and double-commits
immediately visible — the workhorse oracle for concurrency tests.
"""

from __future__ import annotations

import pathlib
import random
from operator import attrgetter
from typing import List, Optional

from repro.storage.database import Database
from repro.core.executor import PolicyExecutor
from repro.core.ops import UpdateOp
from repro.core.protocol import TxnInvocation
from repro.core.spec import AccessKinds, AccessSpec, TxnTypeSpec, WorkloadSpec
from repro.workloads.base import MixEntry, Workload

TABLE = "COUNTERS"

#: the benches' trained-policy cache (committed for the policies below)
ARTIFACTS = pathlib.Path(__file__).parents[1] / "benchmarks" / "_artifacts"


def _increment(old: Optional[dict]) -> dict:
    if old is None:
        return {"value": 1}
    return {"value": old["value"] + 1}


def counter_spec(n_accesses: int = 3) -> WorkloadSpec:
    accesses = [AccessSpec(i, TABLE, AccessKinds.UPDATE)
                for i in range(n_accesses)]
    return WorkloadSpec([TxnTypeSpec("bump", accesses)])


#: the open-loop frontend's conservation ledger (see
#: ``Frontend.check_invariants``), for tests that pin or compare it
FRONTEND_LEDGER = ("arrivals", "admitted", "rejected_arrivals", "evicted",
                   "expired_queue", "dequeued", "committed",
                   "rejected_inflight", "abandoned", "queued_at_end",
                   "inflight", "depth_max")


class CounterWorkload(Workload):
    """Increment ``n_accesses`` distinct counters out of ``n_keys``."""

    name = "counters"

    def __init__(self, n_keys: int = 8, n_accesses: int = 3) -> None:
        spec = counter_spec(n_accesses)
        super().__init__(spec, [MixEntry("bump", 1.0)])
        self.n_keys = n_keys
        self.n_accesses = n_accesses

    def build_database(self) -> Database:
        db = Database([TABLE])
        for key in range(self.n_keys):
            db.load(TABLE, (key,), {"value": 0})
        self.db = db
        return db

    def make_invocation(self, type_name: str, rng: random.Random,
                        worker_id: int) -> TxnInvocation:
        if self.n_accesses <= self.n_keys:
            keys = rng.sample(range(self.n_keys), self.n_accesses)
        else:
            keys = [rng.randrange(self.n_keys)
                    for _ in range(self.n_accesses)]

        def program():
            for access_id, key in enumerate(keys):
                yield UpdateOp(TABLE, (key,), _increment, access_id)

        return TxnInvocation(0, "bump", program)

    def total_count(self) -> int:
        table = self.db.table(TABLE)
        return sum(table.committed_value(key)["value"] for key in table.keys())

    def check_against_commits(self, committed_txns: int) -> List[str]:
        expected = committed_txns * self.n_accesses
        actual = self.total_count()
        if actual != expected:
            return [f"counter sum {actual} != {expected} "
                    f"({committed_txns} commits x {self.n_accesses})"]
        return []


class OneShotWorkload(Workload):
    """Feeds a fixed queue of invocations to workers, then stops them.

    Lets tests drive exact transaction programs through the full simulator
    stack with one or more workers.
    """

    name = "oneshot"

    def __init__(self, spec: WorkloadSpec, db: Database,
                 invocations: List[TxnInvocation],
                 per_worker: Optional[dict] = None) -> None:
        super().__init__(spec, [MixEntry(spec.types[0].name, 1.0)])
        self._prebuilt_db = db
        self._queue = list(invocations)
        #: worker_id -> list of invocations (overrides the shared queue)
        self._per_worker = per_worker

    def build_database(self) -> Database:
        self.db = self._prebuilt_db
        return self.db

    def make_invocation(self, type_name, rng, worker_id):  # pragma: no cover
        raise AssertionError("OneShotWorkload uses next_invocation directly")

    def next_invocation(self, rng, worker_id):
        if self._per_worker is not None:
            queue = self._per_worker.get(worker_id, [])
            return queue.pop(0) if queue else None
        return self._queue.pop(0) if self._queue else None


def run_counter_experiment(cc, config, n_keys: int = 8, n_accesses: int = 3,
                           recorder=None):
    """Run the counter workload under ``cc`` and return (workload, stats)."""
    from repro.bench.runner import run_protocol
    holder = {}

    def factory():
        workload = CounterWorkload(n_keys=n_keys, n_accesses=n_accesses)
        holder["workload"] = workload
        return workload

    result = run_protocol(factory, cc, config, recorder=recorder,
                          check_invariants=False)
    return holder["workload"], result


def tpce_t3_policy():
    """The cached learned policy and backoff table for TPC-E theta 3."""
    from repro.core.backoff import BackoffPolicy
    from repro.core.policy import CCPolicy
    from repro.workloads.tpce import tpce_spec
    policy = CCPolicy.load(tpce_spec(),
                           str(ARTIFACTS / "policy_tpce_t3.0_quick.json"))
    backoff = BackoffPolicy.from_json(
        (ARTIFACTS / "backoff_tpce_t3.0_quick.json").read_text())
    return policy, backoff


def assert_live(scheduler) -> None:
    """The liveness oracle at a run's horizon, read over the scheduler's
    own live wait-for edges: no parked abort-on-break worker lies on a
    cycle (a park breaks every cycle it closes), and no wait reached the
    ``wait_timeout`` safety valve (with a complete graph only a bug can)."""
    on_cycle = scheduler.parked_on_cycle()
    assert on_cycle == [], f"workers parked on a wait-for cycle: {on_cycle}"
    assert scheduler.timeout_breaks == 0


def run_live(workload, cc, config):
    """Run ``workload`` closed loop under ``cc``, check :func:`assert_live`
    at the horizon (before teardown unparks everyone) and return the
    run's stats."""
    from repro.rng import spawn_rng
    from repro.sim.scheduler import Scheduler
    from repro.sim.stats import RunStats
    from repro.sim.worker import Worker
    db = workload.build_database()
    cc.setup(db, workload.spec, config)
    stats = RunStats(workload.type_names(), warmup_end=config.warmup)
    scheduler = Scheduler(config)
    for worker_id in range(config.n_workers):
        scheduler.add_worker(Worker(worker_id, scheduler, cc, workload, stats,
                                    config, spawn_rng(config.seed, worker_id)))
    scheduler.run(config.duration)
    assert_live(scheduler)
    scheduler.close()
    stats.start_time, stats.end_time = 0.0, config.duration
    return stats


def view_snapshots_at_node_crash(monkeypatch, manager_cls) -> list:
    """Patch ``manager_cls.node_crash`` to also record the durable view's
    merged snapshot right after each recovery (the view keeps folding
    once the run resumes, so the end-of-run view is no witness of what
    the oracle compared).  Returns the list the snapshots land in."""
    snapshots = []
    node_crash = manager_cls.node_crash

    def crash_then_look(self):
        report = node_crash(self)
        snapshots.append(self.durable_view.snapshot())
        return report

    monkeypatch.setattr(manager_cls, "node_crash", crash_then_look)
    return snapshots


_BY_ORDER = attrgetter("order")


class DirtyListCheckingExecutor(PolicyExecutor):
    """``PolicyExecutor`` that checks, wherever early validation reads it,
    that ``ctx.dirty_writes`` holds exactly the write-set entries a scan
    for ``dirty_since_expose`` would find — the scan the list replaced.
    Test-only: the production executor carries no such assert.

    ``seen`` counts the cases a run must reach for the check to mean
    something: piece-retry rollbacks, rollbacks that restore an exposed
    write to clean, exposed writes dirtied again, and lists whose flip
    order is not program order (so ``_publish`` has to sort)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen = {"checks": 0, "rollbacks": 0, "restored_clean": 0,
                     "redirtied": 0, "unsorted": 0}

    def check_dirty_list(self, ctx) -> None:
        scan = [w for w in sorted(ctx.wset.values(), key=_BY_ORDER)
                if w.dirty_since_expose]
        assert sorted(ctx.dirty_writes, key=_BY_ORDER) == scan, \
            (ctx, [w.key for w in ctx.dirty_writes], [w.key for w in scan])
        self.seen["checks"] += 1
        self.seen["redirtied"] += sum(
            w.exposed_vid is not None for w in scan)
        self.seen["unsorted"] += ctx.dirty_writes != scan

    def _early_validate_prelude(self, ctx, crow, publish_writes):
        self.check_dirty_list(ctx)
        return super()._early_validate_prelude(ctx, crow, publish_writes)

    def _publish(self, ctx, publish_writes) -> None:
        self.check_dirty_list(ctx)
        super()._publish(ctx, publish_writes)
        self.check_dirty_list(ctx)

    def _rollback_to_checkpoint(self, ctx) -> None:
        self.seen["rollbacks"] += 1
        self.seen["restored_clean"] += sum(
            entry[0] == "wmod" and entry[3] is False
            for entry in ctx.undo_log)
        super()._rollback_to_checkpoint(ctx)
        self.check_dirty_list(ctx)
