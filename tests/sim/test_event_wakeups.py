"""Event-driven wait wake-ups: subscription mechanics, cycle-victim
wiring, and segmented-run accounting.

What a seeded run does under the subscription scheduler — wake order
included — is pinned by the ``tests/hotpath`` fixture cells, recorded while
the legacy full-poll scheduler was still asserted bit-identical to it.
"""

import json

import pytest

from repro.config import SimConfig
from repro.errors import AbortReason, SchedulerError, TransactionAborted
from repro.obs.profile import TimeAccountant, check_accounting
from repro.sim.events import Cost, WaitFor, WaitKind

from tests.helpers import CounterWorkload
from tests.sim.test_scheduler import build


#: a contended configuration: 8 workers hammering 4 counters parks often
CONTENDED = dict(n_keys=4, n_accesses=3)


class TestSubscriptions:
    def test_wait_without_keys_is_refused(self):
        # a condition over a side flag, with no declared deps or wake keys:
        # nobody could ever notify for it, so it would sleep until its
        # timeout — parking on it is an error that names the wait kind
        def waiter(ctx, sched, log):
            yield WaitFor(lambda: False, WaitKind.PROGRESS)

        scheduler, _, _ = build([waiter], n_txns=[1])
        with pytest.raises(SchedulerError, match=WaitKind.PROGRESS):
            scheduler.run(100.0)
        assert scheduler.parked_count == 0

    def test_subscription_index_cleaned_after_run(self):
        # drive the scripted harness and check the wake maps fully drain
        done = {"n": 0}

        def make(worker_id, other_id, ctxs={}):
            def script(ctx, sched, log):
                ctxs[worker_id] = ctx
                yield Cost(1.0 + worker_id)
                other = ctxs.get(other_id)
                if other is not None:
                    yield WaitFor(lambda: other.is_terminal(),
                                  WaitKind.PROGRESS, [other])
                done["n"] += 1
            return script

        scheduler, cc, _ = build([make(0, 1), make(1, 0)], n_txns=[1, 1])
        scheduler.run(9_000.0)
        assert done["n"] == 2
        assert scheduler._subs == {}
        assert scheduler._sub_keys == {}
        assert scheduler._dirty == set()
        assert scheduler._park_order == {}

    def test_notify_flags_only_subscribers(self):
        ctxs = {}

        def waiter(ctx, sched, log):
            ctxs["waiter"] = ctx
            yield Cost(1.0)
            dep = ctxs["setter"]
            yield WaitFor(lambda: dep.is_terminal(), WaitKind.PROGRESS, [dep])
            log.append("woke")

        def setter(ctx, sched, log):
            ctxs["setter"] = ctx
            yield Cost(5.0)

        def bystander(ctx, sched, log):
            yield Cost(0.5)
            yield WaitFor(lambda: False, WaitKind.PROGRESS,
                          wake_keys=("never notified",))

        scheduler, cc, _ = build([waiter, setter, bystander],
                                 n_txns=[1, 1, 1])
        scheduler.run(3.0)  # waiter parked, setter still running
        dep_ctx = ctxs["setter"]
        assert dep_ctx in scheduler._subs
        subs = scheduler._subs[dep_ctx]
        assert len(subs) == 1  # only the waiter, not the bystander
        scheduler.run(10_000.0)
        assert "woke" in cc.log


class TestCycleVictim:
    def test_youngest_remote_victim_aborts_parker_survives(self):
        """An older transaction parks last and closes a cycle: the
        *younger* peer (already parked) must be the victim, not the
        parker — the previously unreachable youngest-in-cycle policy."""
        ctxs = {}
        aborted = []

        def make(worker_id, other_id, park_delay):
            def script(ctx, sched, log):
                ctxs[worker_id] = ctx
                try:
                    yield Cost(park_delay)
                    # capture the dep once: the condition must read exactly
                    # the ctxs it declares in dep_ctxs
                    other = ctxs.get(other_id)
                    deps = [other] if other is not None else []
                    yield WaitFor(
                        lambda: other is not None and other.is_terminal(),
                        WaitKind.COMMIT_DEPS, deps)
                    log.append(("done", worker_id))
                except TransactionAborted:
                    aborted.append(worker_id)
                    raise
            return script

        # worker 1 (younger txn id) parks at t=1; worker 0 (older) parks
        # at t=2 and closes the cycle
        scheduler, cc, stats = build([make(0, 1, 2.0), make(1, 0, 1.0)],
                                     n_txns=[1, 1])
        scheduler.run(5_000.0)
        assert scheduler.cycle_breaks >= 1
        assert aborted[0] == 1  # the younger, remote, already-parked worker
        assert 0 not in aborted  # the parker survived its wait
        assert ("done", 0) in cc.log and ("done", 1) in cc.log
        assert stats.abort_reasons.get(AbortReason.WAIT_CYCLE, 0) >= 1

    def test_parker_aborts_when_it_is_youngest(self):
        ctxs = {}
        aborted = []

        def make(worker_id, other_id, park_delay):
            def script(ctx, sched, log):
                ctxs[worker_id] = ctx
                try:
                    yield Cost(park_delay)
                    # capture the dep once: the condition must read exactly
                    # the ctxs it declares in dep_ctxs
                    other = ctxs.get(other_id)
                    deps = [other] if other is not None else []
                    yield WaitFor(
                        lambda: other is not None and other.is_terminal(),
                        WaitKind.COMMIT_DEPS, deps)
                    log.append(("done", worker_id))
                except TransactionAborted:
                    aborted.append(worker_id)
                    raise
            return script

        # worker 0 (older) parks first at t=1; worker 1 (younger) parks
        # at t=2 and closes the cycle — and is itself the youngest
        scheduler, cc, stats = build([make(0, 1, 1.0), make(1, 0, 2.0)],
                                     n_txns=[1, 1])
        scheduler.run(5_000.0)
        assert scheduler.cycle_breaks >= 1
        assert aborted[0] == 1
        assert 0 not in aborted


class TestSegmentedAccounting:
    def test_cost_remainder_charged_when_deferred_wake_fires(self):
        """A fully-busy worker must show zero idle even when run() is
        called in segments whose horizons split its cost spans (the old
        clip-and-drop lost the remainder to idle)."""
        def script(ctx, sched, log):
            yield Cost(80.0)
            yield Cost(80.0)
            yield Cost(80.0)

        config = SimConfig(n_workers=1, duration=200.0, seed=1)
        from repro.sim.scheduler import Scheduler
        from repro.sim.stats import RunStats
        from repro.sim.worker import Worker
        from tests.sim.test_scheduler import ScriptedCC, ScriptedWorkload
        import random
        accountant = TimeAccountant(1, 200.0)
        scheduler = Scheduler(config, accountant=accountant)
        cc = ScriptedCC([script])
        stats = RunStats(["scripted"])
        worker = Worker(0, scheduler, cc, ScriptedWorkload([1]), stats,
                        config, random.Random(0))
        scheduler.add_worker(worker)
        for until in (50.0, 120.0, 200.0):
            scheduler.run(until)
        scheduler.finish_accounting()
        row = accountant.breakdown()[0]
        # busy from t=0 to t=200: nothing may leak into idle
        assert row["idle"] == pytest.approx(0.0)
        assert row["useful"] + row["in_flight"] == pytest.approx(200.0)
        assert check_accounting(accountant) is None

    def test_remainder_past_final_horizon_stays_uncharged(self):
        def script(ctx, sched, log):
            yield Cost(300.0)

        config = SimConfig(n_workers=1, duration=200.0, seed=1)
        from repro.sim.scheduler import Scheduler
        from repro.sim.stats import RunStats
        from repro.sim.worker import Worker
        from tests.sim.test_scheduler import ScriptedCC, ScriptedWorkload
        import random
        accountant = TimeAccountant(1, 200.0)
        scheduler = Scheduler(config, accountant=accountant)
        worker = Worker(0, scheduler, ScriptedCC([script]),
                        ScriptedWorkload([1]), RunStats(["scripted"]),
                        config, random.Random(0))
        scheduler.add_worker(worker)
        scheduler.run(200.0)
        scheduler.finish_accounting()
        row = accountant.breakdown()[0]
        # the wake at t=300 never fired: only 200 ticks were simulated
        assert row["in_flight"] == pytest.approx(200.0)
        assert row["idle"] == pytest.approx(0.0)
        assert check_accounting(accountant) is None

    def test_segmented_equals_single_run(self):
        """Seed-for-seed, chopping run() into segments must not change
        stats or the accounting of a real contended workload."""
        def run_with(segments):
            config = SimConfig(n_workers=4, duration=10_000.0, seed=9)
            from repro.bench.runner import run_protocol
            from repro.cc.occ import SiloOCC
            # run_protocol drives a single run(duration); emulate segments
            # manually through the same wiring
            from repro.obs.profile import TimeAccountant
            from repro.rng import spawn_rng
            from repro.sim.scheduler import Scheduler
            from repro.sim.stats import RunStats
            from repro.sim.worker import Worker
            workload = CounterWorkload(**CONTENDED)
            db = workload.build_database()
            cc = SiloOCC()
            cc.setup(db, workload.spec, config)
            stats = RunStats(workload.type_names())
            accountant = TimeAccountant(config.n_workers, config.duration)
            scheduler = Scheduler(config, accountant=accountant)
            for worker_id in range(config.n_workers):
                scheduler.add_worker(Worker(
                    worker_id, scheduler, cc, workload, stats, config,
                    spawn_rng(config.seed, worker_id)))
            for until in segments:
                scheduler.run(until)
            scheduler.finish_accounting()
            stats.end_time = config.duration
            return stats, accountant

        single_stats, single_acct = run_with([10_000.0])
        seg_stats, seg_acct = run_with([1_000.0, 3_333.0, 7_000.0, 10_000.0])
        assert json.dumps(single_stats.summary(), sort_keys=True) == \
            json.dumps(seg_stats.summary(), sort_keys=True)
        for single_row, seg_row in zip(single_acct.breakdown(),
                                       seg_acct.breakdown()):
            for key in single_row:
                assert seg_row[key] == pytest.approx(single_row[key]), key
        assert check_accounting(seg_acct) is None
