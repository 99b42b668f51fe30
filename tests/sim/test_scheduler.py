"""Discrete-event scheduler mechanics, exercised through a scripted CC.

``ScriptedCC`` lets each test express a worker's behaviour as a list of
directives (costs and waits), giving precise control over interleavings
without a real workload.
"""

import pytest

from repro.config import CostModel, SimConfig
from repro.errors import AbortReason, SchedulerError, TransactionAborted
from repro.sim.events import Cost, WaitFor, WaitKind
from repro.sim.scheduler import Scheduler
from repro.sim.worker import Worker
from repro.core.backoff import NoBackoffManager
from repro.core.context import TxnContext, TxnStatus
from repro.core.protocol import ConcurrencyControl, TxnInvocation


class ScriptedWorkload:
    """Hands each worker its own one-shot script, then ends the worker."""

    def __init__(self, n_txns_per_worker=None):
        self.n_txns = n_txns_per_worker

    def type_names(self):
        return ["scripted"]

    def next_invocation(self, rng, worker_id):
        if self.n_txns is not None:
            if self.n_txns[worker_id] <= 0:
                return None
            self.n_txns[worker_id] -= 1
        return TxnInvocation(0, "scripted", lambda: iter(()))


class ScriptedCC(ConcurrencyControl):
    """Runs a per-worker directive script instead of real transactions."""

    name = "scripted"

    def __init__(self, scripts):
        super().__init__()
        #: worker_id -> callable(ctx) returning a generator of directives
        self.scripts = scripts
        self.log = []

    def make_backoff(self, worker):
        return NoBackoffManager()

    def run_transaction(self, worker, invocation, attempt, first_start):
        ctx = TxnContext(self.ids.next(), 0, "scripted", worker,
                         (first_start, self.ids.next()), worker.scheduler.now)
        worker.current_ctx = ctx
        try:
            yield from self.scripts[worker.worker_id](ctx, worker.scheduler,
                                                      self.log)
            ctx.status = TxnStatus.COMMITTED
        except TransactionAborted:
            ctx.status = TxnStatus.ABORTED
            raise
        finally:
            # real CCs notify via validation.finish; a scripted CC mutates
            # ctx.status directly, so it must uphold the notify contract
            worker.scheduler.notify(ctx)


def build(scripts, n_txns=None, **config_kwargs):
    config = SimConfig(n_workers=len(scripts), duration=10_000.0, seed=1,
                       **config_kwargs)
    from repro.sim.stats import RunStats
    scheduler = Scheduler(config)
    workload = ScriptedWorkload(n_txns)
    cc = ScriptedCC(scripts)
    stats = RunStats(["scripted"])
    import random
    for worker_id in range(len(scripts)):
        worker = Worker(worker_id, scheduler, cc, workload, stats, config,
                        random.Random(worker_id))
        scheduler.add_worker(worker)
    return scheduler, cc, stats


class TestTimeAndOrdering:
    def test_costs_advance_time_in_order(self):
        def script_a(ctx, sched, log):
            yield Cost(10.0)
            log.append(("a", sched.now))

        def script_b(ctx, sched, log):
            yield Cost(5.0)
            log.append(("b", sched.now))

        scheduler, cc, _ = build([script_a, script_b], n_txns=[1, 1])
        scheduler.run(100.0)
        assert cc.log == [("b", 5.0), ("a", 10.0)]

    def test_zero_cost_continues_inline(self):
        def script(ctx, sched, log):
            yield Cost(0.0)
            log.append(sched.now)

        scheduler, cc, _ = build([script], n_txns=[1])
        scheduler.run(10.0)
        assert cc.log == [0.0]

    def test_run_cannot_go_backwards(self):
        scheduler, _, _ = build([lambda c, s, l: iter(())], n_txns=[0])
        scheduler.run(50.0)
        with pytest.raises(SchedulerError):
            scheduler.run(10.0)

    def test_callbacks_fire_at_time(self):
        scheduler, cc, _ = build([lambda c, s, l: iter(())], n_txns=[0])
        fired = []
        scheduler.schedule_callback(25.0, lambda: fired.append(scheduler.now))
        scheduler.run(100.0)
        assert fired == [25.0]

    def test_callback_in_past_rejected(self):
        scheduler, _, _ = build([lambda c, s, l: iter(())], n_txns=[0])
        scheduler.run(50.0)
        with pytest.raises(SchedulerError):
            scheduler.schedule_callback(10.0, lambda: None)


class TestWaiting:
    def test_wait_until_condition(self):
        flag = {"ready": False}

        def waiter(ctx, sched, log):
            yield WaitFor(lambda: flag["ready"], WaitKind.PROGRESS,
                          wake_keys=("flag",))
            log.append(("woke", sched.now))

        def setter(ctx, sched, log):
            yield Cost(30.0)
            flag["ready"] = True
            sched.notify("flag")
            yield Cost(1.0)

        scheduler, cc, _ = build([waiter, setter], n_txns=[1, 1])
        scheduler.run(100.0)
        assert ("woke", 30.0) in cc.log

    def test_satisfied_wait_continues_immediately(self):
        def script(ctx, sched, log):
            yield WaitFor(lambda: True, WaitKind.PROGRESS)
            log.append(sched.now)

        scheduler, cc, _ = build([script], n_txns=[1])
        scheduler.run(10.0)
        assert cc.log == [0.0]

    def test_wait_time_accounted_by_kind(self):
        flag = {"ready": False}

        def waiter(ctx, sched, log):
            yield WaitFor(lambda: flag["ready"], WaitKind.LOCK,
                          wake_keys=("flag",))

        def setter(ctx, sched, log):
            yield Cost(40.0)
            flag["ready"] = True
            sched.notify("flag")
            yield Cost(1.0)

        scheduler, _, _ = build([waiter, setter], n_txns=[1, 1])
        scheduler.run(100.0)
        assert scheduler.wait_time_by_kind[WaitKind.LOCK] == pytest.approx(40.0)


class TestCyclesAndTimeouts:
    def _mutual_wait_scripts(self, kind):
        """Two workers, each waiting for the other's ctx to finish."""
        ctxs = {}

        def make(worker_id, other_id):
            def script(ctx, sched, log):
                ctxs[worker_id] = ctx
                yield Cost(1.0)
                # wait until the other transaction is terminal
                def blocked():
                    other = ctxs.get(other_id)
                    return other is not None and other.is_terminal()
                other = ctxs.get(other_id)
                deps = [other] if other is not None else []
                yield WaitFor(blocked, kind, deps)
                log.append(("done", worker_id))
            return script

        return [make(0, 1), make(1, 0)]

    def test_commit_wait_cycle_aborts_someone(self):
        scripts = self._mutual_wait_scripts(WaitKind.COMMIT_DEPS)
        scheduler, cc, stats = build(scripts, n_txns=[1, 1])
        scheduler.run(5000.0)
        assert scheduler.cycle_breaks >= 1
        assert stats.total_aborts >= 1

    def test_progress_wait_cycle_proceeds(self):
        scripts = self._mutual_wait_scripts(WaitKind.PROGRESS)
        scheduler, cc, stats = build(scripts, n_txns=[1, 1])
        scheduler.run(5000.0)
        assert scheduler.cycle_breaks >= 1
        assert stats.total_aborts == 0
        assert ("done", 0) in cc.log and ("done", 1) in cc.log

    def test_wait_timeout_fires(self):
        def forever(ctx, sched, log):
            yield WaitFor(lambda: False, WaitKind.PROGRESS,
                          wake_keys=("never notified",))
            log.append("survived")

        cost = CostModel(wait_timeout=100.0)
        scheduler, cc, _ = build([forever], n_txns=[1], cost=cost)
        scheduler.run(1000.0)
        assert scheduler.timeout_breaks == 1
        assert "survived" in cc.log

    def test_timeout_of_an_earlier_park_spares_the_next_one(self):
        flag = []

        def waiter(ctx, sched, log):
            yield WaitFor(lambda: bool(flag), WaitKind.PROGRESS,
                          wake_keys=("flag",))
            yield Cost(40.0)
            yield WaitFor(lambda: False, WaitKind.PROGRESS,
                          wake_keys=("never notified",))
            log.append(("survived", sched.now))

        def setter(ctx, sched, log):
            yield Cost(10.0)
            flag.append(True)
            sched.notify("flag")

        cost = CostModel(wait_timeout=100.0)
        scheduler, cc, _ = build([waiter, setter], n_txns=[1, 1], cost=cost)
        # the first park's timer fires at t=100, inside the second park
        scheduler.run(120.0)
        assert scheduler.timeout_breaks == 0
        assert scheduler.parked_count == 1
        scheduler.run(1000.0)
        assert scheduler.timeout_breaks == 1
        assert ("survived", 150.0) in cc.log

    def test_abort_on_timeout_for_correctness_waits(self):
        def forever(ctx, sched, log):
            yield WaitFor(lambda: False, WaitKind.COMMIT_DEPS,
                          wake_keys=("never notified",))

        cost = CostModel(wait_timeout=100.0)
        scheduler, cc, stats = build([forever], n_txns=[1], cost=cost)
        scheduler.run(1000.0)
        assert stats.abort_reasons.get(AbortReason.WAIT_TIMEOUT, 0) >= 1


class TestWorkerLifecycle:
    def test_worker_ends_when_workload_exhausted(self):
        def script(ctx, sched, log):
            log.append("ran")
            yield Cost(1.0)

        scheduler, cc, stats = build([script], n_txns=[3])
        scheduler.run(1000.0)
        assert cc.log.count("ran") == 3
        assert stats.total_commits == 3

    def test_abort_and_retry(self):
        attempts = {"n": 0}

        def script(ctx, sched, log):
            attempts["n"] += 1
            yield Cost(1.0)
            if attempts["n"] < 3:
                raise TransactionAborted(AbortReason.VALIDATION)
            log.append("committed")

        scheduler, cc, stats = build([script], n_txns=[1])
        scheduler.run(1000.0)
        assert cc.log == ["committed"]
        assert stats.total_aborts == 2
        assert stats.total_commits == 1

    def test_max_retries_gives_up(self):
        def script(ctx, sched, log):
            yield Cost(1.0)
            raise TransactionAborted(AbortReason.VALIDATION)

        scheduler, cc, stats = build([script], n_txns=[1], max_retries=2)
        scheduler.run(1000.0)
        assert stats.total_commits == 0
        assert stats.total_aborts == 3  # initial + 2 retries
