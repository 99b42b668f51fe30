"""Event-driven wait wake-ups: subscription mechanics, cycle-victim
wiring, and segmented-run accounting.

What a seeded run does under the subscription scheduler — wake order
included — is pinned by the ``tests/hotpath`` fixture cells, recorded while
the legacy full-poll scheduler was still asserted bit-identical to it.
"""

import json

import pytest

from repro.config import SimConfig
from repro.core.context import TxnStatus
from repro.errors import AbortReason, SchedulerError, TransactionAborted
from repro.obs.profile import TimeAccountant, check_accounting
from repro.obs.tracing import EventKind, MemorySink
from repro.cc.two_pl import TwoPL
from repro.sim.events import Cost, WaitFor, WaitKind
from repro.storage.locks import LockMode, LockTable

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
        assert scheduler._parked == {}
        assert scheduler._subs == {}
        assert scheduler._dirty == set()
        assert scheduler._pending_exc == {}

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


    def test_park_closing_two_cycles_breaks_both(self):
        """The oldest worker parks last on commit deps {B, C} while B and C
        both wait on it: one park closes two cycles.  Aborting only the
        first victim left A <-> C standing until the wait timeout; the
        search must run again from the parker until it lies on no cycle."""
        ctxs = {}
        aborted = []

        def make(worker_id, others, park_delay):
            def script(ctx, sched, log):
                ctxs[worker_id] = ctx
                try:
                    yield Cost(park_delay)
                    deps = [ctxs[other] for other in others]
                    yield WaitFor(
                        lambda: all(dep.is_terminal() for dep in deps),
                        WaitKind.COMMIT_DEPS, deps)
                    log.append(("done", worker_id))
                except TransactionAborted as exc:
                    aborted.append((worker_id, exc.reason))
                    raise
            return script

        # B (1) and C (2) park on A at t=1 and t=2; A (0, the oldest) parks
        # on both at t=3
        scheduler, cc, stats = build(
            [make(0, [1, 2], 3.0), make(1, [0], 1.0), make(2, [0], 2.0)],
            n_txns=[1, 1, 1])
        scheduler.run(5_000.0)
        assert aborted == [(1, AbortReason.WAIT_CYCLE),
                           (2, AbortReason.WAIT_CYCLE)]
        assert scheduler.cycle_breaks == 2
        assert ("done", 0) in cc.log
        assert stats.total_commits == 3
        assert scheduler.timeout_breaks == 0


class TestLiveLockEdges:
    """A lock wait's wait-for edges are the lock's holders when the graph
    is searched, not when the waiter parked (2PL's lock table, driven
    through ``TwoPL._acquire``)."""

    @staticmethod
    def _two_pl():
        two_pl = TwoPL()
        two_pl.locks = LockTable(assume_ordered=True)
        return two_pl

    def _script(self, two_pl, ctxs, steps, worker_id, aborted):
        """One transaction: ``steps`` is a list of ticks to sleep or
        (key, mode) locks to acquire; every lock is released at the end."""
        def script(ctx, sched, log):
            ctxs[worker_id] = ctx
            try:
                for step in steps:
                    if isinstance(step, tuple):
                        key, mode = step
                        yield from two_pl._acquire(ctx, "T", (key,), mode)
                    else:
                        yield Cost(step)
                log.append(("done", worker_id, sched.now))
            except TransactionAborted as exc:
                aborted.append((worker_id, exc.reason, sched.now))
                raise
            finally:
                two_pl._release(ctx)
        return script

    def test_holder_granted_after_the_park_closes_a_cycle(self):
        """W0 holds X on b and parks for X on a, held S by W1.  W2 is then
        granted S on a beside W1, and parks for b: W2 -> W0 -> W2 is a
        cycle only over W0's *live* holders; the frozen set was {W1}."""
        two_pl, ctxs, aborted = self._two_pl(), {}, []
        a, b = ("a", LockMode.SHARED), ("b", LockMode.SHARED)
        x_a, x_b = ("a", LockMode.EXCLUSIVE), ("b", LockMode.EXCLUSIVE)
        scripts = [self._script(two_pl, ctxs, steps, worker_id, aborted)
                   for worker_id, steps in enumerate([
                       [x_b, 2.0, x_a],
                       [a, 10.0],
                       [3.0, a, 1.0, b]])]
        scheduler, cc, stats = build(scripts, n_txns=[1, 1, 1])
        scheduler.run(4.0)
        # the cycle is broken at W2's park: W2 is the youngest
        assert scheduler.cycle_breaks == 1
        assert aborted == [(2, AbortReason.WAIT_CYCLE, 4.0)]
        scheduler.run(5_000.0)
        assert stats.total_commits == 3
        assert scheduler.timeout_breaks == 0

    def test_upgrade_wait_edges_exclude_the_requester(self):
        """W1 holds S on a beside W0 and asks for X: its edges are W0 only.
        With W2 waiting on W1's commit, a self-edge would make the search
        from W1 report the one-worker "cycle" [W1] and abort it."""
        two_pl, ctxs, aborted = self._two_pl(), {}, []
        a, x_a = ("a", LockMode.SHARED), ("a", LockMode.EXCLUSIVE)
        scripts = [self._script(two_pl, ctxs, [a, 10.0], 0, aborted),
                   self._script(two_pl, ctxs, [a, 2.0, x_a], 1, aborted)]

        def waits_on_w1(ctx, sched, log):
            yield Cost(1.0)
            dep = ctxs[1]
            yield WaitFor(dep.is_terminal, WaitKind.COMMIT_DEPS, [dep])

        scheduler, cc, stats = build(scripts + [waits_on_w1],
                                     n_txns=[1, 1, 1])
        scheduler.run(3.0)
        w1 = scheduler._workers[1]
        wait = scheduler._parked[w1].wait
        assert ctxs[1] in wait.dep_ctxs  # park-time holders, for the trace
        assert set(wait.edges()) == {ctxs[0]}
        assert scheduler._successors(w1) == [scheduler._workers[0]]
        assert scheduler.cycle_breaks == 0
        scheduler.run(5_000.0)
        assert aborted == []
        assert stats.total_commits == 3


    def test_parked_on_cycle_reads_live_edges(self):
        """``parked_on_cycle`` asks the live graph: W0 waits on W1's
        commit, W1 waits on a lock that changes hands to W0 while both
        are parked (behind the scheduler's back, which a real lock table
        never does — a grant goes to a running worker)."""
        ctxs, granted = {}, []

        def waits_on_w1(ctx, sched, log):
            ctxs[0] = ctx
            yield Cost(1.0)
            dep = ctxs[1]
            yield WaitFor(dep.is_terminal, WaitKind.COMMIT_DEPS, [dep])

        def lock_waiter(ctx, sched, log):
            ctxs[1] = ctx
            yield Cost(2.0)
            yield WaitFor(lambda: False, WaitKind.LOCK, wake_keys=("lock",),
                          holders=lambda: [ctxs[0]] if granted else [])

        scheduler, _, _ = build([waits_on_w1, lock_waiter], n_txns=[1, 1])
        scheduler.run(3.0)
        assert scheduler.parked_count == 2
        assert scheduler.parked_on_cycle() == []
        granted.append(True)
        assert scheduler.parked_on_cycle() == [0, 1]


class TestAbortVerbs:
    """``interrupt`` (deferred to the worker's next advance) and
    ``abort_parked`` (at once, from a callback)."""

    @staticmethod
    def _parks_once(worker_id):
        """Parks on a wait nothing notifies; the retry just commits."""
        attempts = []

        def script(ctx, sched, log):
            attempts.append(sched.now)
            if len(attempts) > 1:
                return
            try:
                yield Cost(1.0)
                yield WaitFor(lambda: False, WaitKind.LOCK,
                              wake_keys=("never notified",))
            except TransactionAborted as exc:
                log.append(("aborted", worker_id, exc.reason, sched.now))
                raise
        return script

    @staticmethod
    def _sleeps(worker_id, ticks):
        def script(ctx, sched, log):
            try:
                yield Cost(ticks)
            except TransactionAborted as exc:
                log.append(("aborted", worker_id, exc.reason, sched.now))
                raise
            log.append(("slept", worker_id, sched.now))
        return script

    def _run(self, scripts, at, verb):
        """Run ``scripts``, calling ``verb(scheduler, worker 0)`` from a
        callback at ``at`` — scheduled before the run, so it fires first
        at that instant.  Returns (scheduler, log, stats, WAIT_ENDs)."""
        scheduler, cc, stats = build(scripts, n_txns=[1] * len(scripts))
        sink = scheduler.trace = MemorySink()
        worker = scheduler._workers[0]
        scheduler.schedule_callback(at, lambda: verb(scheduler, worker))
        scheduler.run(100.0)
        wait_ends = [(event.ts, event.worker, event.attrs["outcome"])
                     for event in sink.events
                     if event.kind == EventKind.WAIT_END]
        return scheduler, cc.log, stats, wait_ends

    @staticmethod
    def _fault():
        return TransactionAborted(AbortReason.FAULT, "test")

    def test_interrupt_parked_aborts_after_events_queued_for_the_instant(
            self):
        # W1's wake-up at t=5 was queued at t=0; the interrupted W0 is
        # scheduled at now, behind it
        scheduler, log, stats, wait_ends = self._run(
            [self._parks_once(0), self._sleeps(1, 5.0)], 5.0,
            lambda sched, w: sched.interrupt(w, self._fault(), "fault"))
        assert log == [("slept", 1, 5.0),
                       ("aborted", 0, AbortReason.FAULT, 5.0)]
        assert wait_ends == [(5.0, 0, "fault")]
        assert stats.total_commits == 2
        assert scheduler._pending_exc == {}

    def test_abort_parked_aborts_before_events_queued_for_the_instant(self):
        returned = []
        scheduler, log, stats, wait_ends = self._run(
            [self._parks_once(0), self._sleeps(1, 5.0)], 5.0,
            lambda sched, w: returned.append(
                sched.abort_parked(w, self._fault(), "fault")))
        assert returned == [True]
        assert log == [("aborted", 0, AbortReason.FAULT, 5.0),
                       ("slept", 1, 5.0)]
        assert wait_ends == [(5.0, 0, "fault")]

    def test_abort_parked_leaves_a_sleeping_worker_alone(self):
        returned = []
        _, log, stats, wait_ends = self._run(
            [self._sleeps(0, 10.0)], 5.0,
            lambda sched, w: returned.append(
                sched.abort_parked(w, self._fault(), "fault")))
        assert returned == [False]
        assert log == [("slept", 0, 10.0)]
        assert stats.total_aborts == 0

    def test_interrupt_sleeping_aborts_at_its_natural_wake_up(self):
        scheduler, log, stats, wait_ends = self._run(
            [self._sleeps(0, 10.0)], 5.0,
            lambda sched, w: sched.interrupt(w, self._fault(), "fault"))
        assert log[0] == ("aborted", 0, AbortReason.FAULT, 10.0)
        assert wait_ends == []
        assert scheduler._pending_exc == {}

    def test_a_second_interrupt_replaces_the_first(self):
        """One pending abort per worker: the later one is delivered, once,
        and nothing is left over for the retry."""
        def twice(sched, worker):
            sched.interrupt(worker, self._fault(), "fault")
            sched.interrupt(worker, TransactionAborted(
                AbortReason.DEADLINE, "test"), "deadline")

        _, log, stats, _ = self._run([self._sleeps(0, 10.0)], 5.0, twice)
        assert log == [("aborted", 0, AbortReason.DEADLINE, 10.0),
                       ("slept", 0, 20.0)]
        assert stats.total_aborts == 1

    def test_pending_exception_of_a_committed_attempt_is_dropped(self):
        """The deadline rule: the attempt commits, then sleeps (as a
        durable commit's log append does) while the interrupt lands; at
        the wake-up nothing active is left to abort."""
        def commits_then_sleeps(ctx, sched, log):
            yield Cost(1.0)
            ctx.status = TxnStatus.COMMITTED
            sched.notify(ctx)
            yield Cost(10.0)
            log.append(("finished", sched.now))

        scheduler, log, stats, _ = self._run(
            [commits_then_sleeps], 5.0,
            lambda sched, w: sched.interrupt(w, self._fault(), "fault"))
        assert log == [("finished", 11.0)]
        assert stats.total_aborts == 0
        assert stats.total_commits == 1
        assert scheduler._pending_exc == {}


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
