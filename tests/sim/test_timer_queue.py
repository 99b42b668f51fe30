"""The event heap holds live state only: one entry per sleeping worker and
pending callback, and at most one wait-timeout timer.

Every park arms a ``wait_timeout`` timer and almost every park ends long
before it is due.  The timers queue in arm order behind one heap entry, so
the heap of a TPC-C run under the learned policy stays at the size of the
worker pool however many parks the run makes.
"""

from repro.cc import make_cc
from repro.config import SimConfig
from repro.core.backoff import BackoffPolicy
from repro.core.policy import CCPolicy
from repro.sim.scheduler import Scheduler
from repro.sim.stats import RunStats
from repro.sim.worker import spawn_workers
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

from tests.helpers import ARTIFACTS


def _is_timer(entry) -> bool:
    payload = entry[3]
    return getattr(payload, "__func__", None) is Scheduler._fire_timeout


def test_heap_holds_at_most_one_timer_in_a_tpcc_polyjuice_run():
    config = SimConfig(n_workers=16, duration=24_000.0, warmup=2_000.0,
                       seed=3)
    workload = make_tpcc_factory(n_warehouses=1, seed=config.seed)()
    cc = make_cc(
        "polyjuice",
        policy=CCPolicy.load(tpcc_spec(),
                             str(ARTIFACTS / "policy_tpcc_wh1_quick.json")),
        backoff_policy=BackoffPolicy.load(
            str(ARTIFACTS / "backoff_tpcc_wh1_quick.json")))
    db = workload.build_database()
    cc.setup(db, workload.spec, config)
    stats = RunStats(workload.type_names(), warmup_end=config.warmup)
    scheduler = Scheduler(config)
    for worker in spawn_workers(scheduler, cc, workload, stats,
                                range(config.n_workers)):
        scheduler.add_worker(worker)
    samples = []
    for tick in range(1_000, 24_001, 1_000):
        scheduler.run(float(tick))
        heap = scheduler._heap
        samples.append((tick, len(heap), sum(map(_is_timer, heap))))
    scheduler.release()
    # the run parks thousands of times, so thousands of timers were armed
    assert sum(scheduler.wait_count_by_kind.values()) > 1_000
    assert stats.total_commits > 0
    for tick, size, timers in samples:
        assert timers <= 1, (tick, timers)
        assert size <= config.n_workers + 4, (tick, size)
