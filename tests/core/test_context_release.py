"""Transaction-context lifecycle: ``validation.finish`` releases the
context as its last step, so a terminated attempt pins nothing and dead
attempts are freed by reference counting alone.  ``Scheduler.release``
does the same for the whole run: once its result is dropped, a finished
run — database and all — is freed without the cyclic collector, which
``run_protocol`` keeps paused from build to release.
"""

import gc
import os
import random
import weakref

import pytest

from repro.analysis import HistoryRecorder
from repro.bench.runner import run_named, run_protocol
from repro.cc import make_cc, occ, two_pl
from repro.config import (ClusterConfig, DurabilityConfig, FrontendConfig,
                          SimConfig)
from repro.core import executor, validation
from repro.core.backoff import BackoffPolicy
from repro.core.context import ReadEntry, TxnContext, TxnStatus, WriteEntry
from repro.core.policy import CCPolicy
from repro.errors import LivelockError
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.obs import MemorySink, MetricsRegistry, TimeAccountant
from repro.obs.timeline import TimelineSampler
from repro.sim.scheduler import Scheduler
from repro.sim.worker import Worker
from repro.storage.access_list import AccessEntry, AccessKind
from repro.storage.record import Record
from repro.training.ea import random_policy
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

from tests import helpers
from tests.helpers import CounterWorkload, counter_spec
from tests.hotpath.common import OrderedCounterWorkload, run_cell

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "harness", "fixtures")

#: everything a live attempt owns and a terminated one must have dropped
CONTAINERS = ("deps", "wait_exempt", "rset", "wset", "dirty_writes",
              "buffer", "undo_log", "readers", "touched_records")


def track_contexts(monkeypatch, sink, weak=False):
    """Record every context the protocols create (weakly if asked: the
    production class has ``__slots__`` without ``__weakref__``)."""

    class Tracked(TxnContext):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            sink.append(weakref.ref(self) if weak else self)

    for module in (executor, occ, two_pl):
        monkeypatch.setattr(module, "TxnContext", Tracked)


def assert_released(ctx):
    for name in CONTAINERS:
        assert not getattr(ctx, name), (name, ctx)


# --------------------------------------------------------------------- #
# (i) every protocol, commit and abort


@pytest.mark.parametrize("cc_name", ["polyjuice", "ic3", "silo", "2pl"])
def test_terminated_contexts_keep_identity_only(cc_name, monkeypatch):
    contexts = []
    track_contexts(monkeypatch, contexts)
    n_accesses = 3
    policy = random_policy(counter_spec(n_accesses), random.Random(5)) \
        if cc_name == "polyjuice" else None
    config = SimConfig(n_workers=6, duration=3_000.0, seed=3)
    result = run_named(
        lambda: CounterWorkload(n_keys=8, n_accesses=n_accesses),
        cc_name, config, policy=policy, check_invariants=False)
    # run_protocol closes the scheduler: every attempt has terminated
    outcomes = {ctx.status for ctx in contexts}
    assert outcomes == {TxnStatus.COMMITTED, TxnStatus.ABORTED}
    assert sum(ctx.status == TxnStatus.COMMITTED for ctx in contexts) \
        >= result.stats.total_commits > 0
    seen_ids = set()
    for ctx in contexts:
        assert_released(ctx)
        assert ctx.txn_id not in seen_ids
        seen_ids.add(ctx.txn_id)
        assert ctx.type_name == "bump" and ctx.type_index == 0
        assert 0 <= ctx.worker.worker_id < config.n_workers
        assert ctx.priority[1] <= ctx.txn_id
        assert ctx.priority[0] <= ctx.start_time <= config.duration
        assert -1 <= ctx.progress < n_accesses
        if ctx.status == TxnStatus.COMMITTED:
            assert ctx.abort_reason is None and not ctx.doomed
            if cc_name in ("polyjuice", "ic3"):
                assert ctx.progress == n_accesses - 1
        else:
            assert ctx.abort_reason is not None


# --------------------------------------------------------------------- #
# (ii) release is the last step of finish


def _loaded_ctx(worker, txn_id=7):
    """A context holding one of everything, as a mid-flight attempt would."""
    ctx = TxnContext(txn_id, 0, "t", worker, (0.0, txn_id), 0.0)
    record = Record((1,), {"v": 0}, (0, 0))
    other = TxnContext(txn_id + 1, 0, "t", None, (0.0, txn_id + 1), 0.0)
    rentry = ReadEntry("T", (1,), record, (0, 0), {"v": 0}, None)
    wentry = WriteEntry("T", (1,), record, {"v": 1}, False, 0)
    wentry.installed_vid = (txn_id, 0)
    ctx.rset[("T", (1,))] = rentry
    ctx.wset[("T", (1,))] = wentry
    ctx.dirty_writes.append(wentry)
    ctx.buffer.append(rentry)
    ctx.undo_log.append(("read", ("T", (1,))))
    ctx.deps.add(other)
    ctx.wait_exempt.add(other)
    ctx.readers[other] = None
    ctx.touched_records.add(record)
    return ctx


class _Seen:
    """Stands in for ``durability.log_commit`` / ``recorder.on_commit``:
    notes what of the context is still there when it is called."""

    def __init__(self, calls, name):
        self.calls, self.name = calls, name

    def log_commit(self, ctx):
        self.calls.append((self.name, len(ctx.rset), len(ctx.wset),
                           [w.installed_vid for w in ctx.wset.values()]))

    on_commit = log_commit


def test_log_commit_and_recorder_see_full_sets_before_release():
    config = SimConfig(n_workers=1)
    scheduler = Scheduler(config)
    worker = Worker(0, scheduler, None, None, None, config, random.Random(0))
    calls = []
    scheduler.durability = _Seen(calls, "durability")
    ctx = _loaded_ctx(worker)
    validation.finish(ctx, TxnStatus.COMMITTED,
                      recorder=_Seen(calls, "recorder"))
    assert calls == [("durability", 1, 1, [(7, 0)]),
                     ("recorder", 1, 1, [(7, 0)])]
    assert_released(ctx)
    assert (ctx.txn_id, ctx.type_name, ctx.worker, ctx.priority,
            ctx.status, ctx.abort_reason) == \
        (7, "t", worker, (0.0, 7), TxnStatus.COMMITTED, None)


def test_abort_releases_after_the_doom_cascade():
    ctx = _loaded_ctx(None)
    reader = next(iter(ctx.readers))
    validation.finish(ctx, TxnStatus.ABORTED, "validation")
    assert reader.doomed  # the cascade read ``readers`` before the release
    assert_released(ctx)
    assert (ctx.status, ctx.abort_reason) == (TxnStatus.ABORTED, "validation")


def test_recorded_history_is_complete_under_release():
    """A whole run: the recorder — called from ``finish`` — captures every
    committed read and write although the contexts are empty afterwards."""
    recorder = HistoryRecorder()
    config = SimConfig(n_workers=4, duration=2_000.0, seed=8)
    result = run_named(lambda: CounterWorkload(n_keys=4, n_accesses=2),
                       "ic3", config, recorder=recorder,
                       check_invariants=False)
    assert len(recorder) >= result.stats.total_commits > 0
    for txn in recorder.committed:
        assert len(txn.reads) == 2 and len(txn.writes) == 2


# --------------------------------------------------------------------- #
# (iii) memory is O(in-flight) with the cyclic collector off


class LoopProbe:
    """Wraps ``Scheduler.run`` to observe the event loop with the cyclic
    collector off: passes that ran inside it (``collections``), tracked
    contexts alive at its exit — before ``close()`` tears the in-flight
    attempts down — and the unreachable cycles it left (``garbage``)."""

    def __init__(self, monkeypatch, refs=()):
        self.collections, self.alive_at_exit, self.garbage = [], [], []
        real_run = Scheduler.run

        def on_collection(phase, info):
            self.collections.append(phase)

        def run(scheduler, until):
            gc.collect()  # what set-up left behind is not the loop's
            gc.callbacks.append(on_collection)
            try:
                real_run(scheduler, until)
            finally:
                gc.callbacks.remove(on_collection)
            self.alive_at_exit.append(sum(ref() is not None for ref in refs))
            self.garbage.append(gc.collect())

        monkeypatch.setattr(Scheduler, "run", run)


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def test_dead_attempts_are_freed_without_the_collector(monkeypatch,
                                                       collector_off):
    refs = []
    track_contexts(monkeypatch, refs, weak=True)
    probe = LoopProbe(monkeypatch, refs)
    n_workers = 16
    policy = CCPolicy.load(
        tpcc_spec(), os.path.join(FIXTURES, "policy_tpcc_wh1_quick.json"))
    backoff = BackoffPolicy.load(
        os.path.join(FIXTURES, "backoff_tpcc_wh1_quick.json"))
    config = SimConfig(n_workers=n_workers, duration=6_000.0, warmup=1_000.0,
                       seed=1010)
    result = run_named(make_tpcc_factory(n_warehouses=1, seed=1010),
                       "polyjuice", config, policy=policy,
                       backoff_policy=backoff)
    assert result.invariant_violations == []
    # no collector pass, automatic or explicit, inside the event loop ...
    assert probe.collections == []
    assert len(refs) > 20 * n_workers  # ... many attempts per worker ...
    # ... yet only the in-flight ones (plus what live readers' ``from_ctx``
    # and un-pruned ``deps`` still name) are alive at its exit
    assert len(probe.alive_at_exit) == 1
    assert probe.alive_at_exit[0] <= 4 * n_workers, \
        (probe.alive_at_exit, len(refs))
    # and nothing was waiting for the collector
    assert probe.garbage == [0]


@pytest.mark.parametrize("cell", [
    "2pl-closed",                    # lock waits, wait-die, cycle search
    "polyjuice-faults",              # injected aborts, stalls, crashes
    "cluster2-open_loop-overload",   # deadline aborts thrown through 2PC
    "silo-cluster2-shard_crash",     # a shard's workers torn down mid-run
])
def test_event_loop_leaves_no_reference_cycles(cell, monkeypatch,
                                               collector_off):
    """The paths that abort from outside — thrown exceptions, teardown —
    free their attempts by reference counting too."""
    probe = LoopProbe(monkeypatch)
    run_cell(cell)
    assert probe.collections == []
    assert probe.garbage and not any(probe.garbage), probe.garbage


# --------------------------------------------------------------------- #
# (iv) a live reader of a released writer gets the same doom verdicts


def _dirty_read_of_released_writer(status, installed):
    record = Record((1,), {"v": 0}, (0, 0))
    writer = _loaded_ctx(None, txn_id=2)
    record.publish_list().append(
        AccessEntry(writer, AccessKind.WRITE, (2, 0), {"v": 5}))
    writer.touched_records.add(record)
    reader = TxnContext(3, 0, "t", None, (0.0, 3), 0.0)
    entry = ReadEntry("T", (1,), record, (2, 0), {"v": 5}, writer,
                      intended_dirty=True)
    reader.rset[("T", (1,))] = entry
    writer.readers[reader] = None
    if installed is not None:
        record.install({"v": 5}, installed, writer)
    validation.finish(writer, status)
    assert_released(writer)
    assert entry.from_ctx is writer
    return reader, entry


def test_reader_of_released_aborted_writer_is_doomed():
    reader, entry = _dirty_read_of_released_writer(TxnStatus.ABORTED, None)
    assert reader.doomed
    assert "aborted" in validation.read_entry_doomed(reader, entry)


def test_reader_of_released_writer_that_committed_another_version():
    reader, entry = _dirty_read_of_released_writer(TxnStatus.COMMITTED,
                                                   (2, 1))
    assert "not the one committed" in \
        validation.read_entry_doomed(reader, entry)


def test_reader_of_released_writer_that_committed_the_same_version():
    reader, entry = _dirty_read_of_released_writer(TxnStatus.COMMITTED,
                                                   (2, 0))
    assert not reader.doomed
    assert validation.read_entry_doomed(reader, entry) is None


# --------------------------------------------------------------------- #
# (v) a finished run is freed by reference counting


def track_databases(monkeypatch):
    """Weak references to every counter database built from now on (the
    production class has ``__slots__`` without ``__weakref__``)."""
    refs = []

    class Tracked(helpers.Database):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(helpers, "Database", Tracked)
    return refs


RUN_DURATION = 4_000.0


def _mode(name):
    """(config overrides, fault events, observability kwargs) of a mode."""
    if name == "open_loop_shedding":
        # far more than the workers commit, into 4-slot queues: every
        # protocol sheds
        return dict(frontend=FrontendConfig(
            arrival_rate=400_000.0, queue_cap=4, deadline=100.0,
            retry_budget=1)), [], {}
    if name == "durable":
        return dict(durability=DurabilityConfig(
            checkpoint_interval=1_500.0)), [], {}
    if name == "cluster2_shard_crash":
        return dict(durability=DurabilityConfig(checkpoint_interval=1_500.0),
                    cluster=ClusterConfig(n_shards=2,
                                          cross_shard_ratio=0.5)), [
            ScriptedFault(time=2_100.0, kind="shard_crash", worker=1,
                          downtime=500.0)], {}
    if name == "scripted_faults":
        return {}, [
            ScriptedFault(time=1_000.0, kind="abort", worker=2),
            ScriptedFault(time=1_500.0, kind="stall", worker=3, ticks=80.0),
            ScriptedFault(time=2_000.0, kind="crash", worker=1,
                          downtime=150.0),
            ScriptedFault(time=2_500.0, kind="doom", worker=0)], {}
    if name == "all_obs":
        return {}, [], dict(
            trace_sink=MemorySink(), metrics=MetricsRegistry(),
            timeline=TimelineSampler(window=500.0, n_workers=8),
            accountant=TimeAccountant(8, RUN_DURATION))
    assert name == "closed"
    return {}, [], {}


def _run_for_release(cc_name, mode):
    overrides, events, obs = _mode(mode)
    n_keys, n_accesses = (16, 2) if "cluster" in overrides else (4, 3)
    config = SimConfig(n_workers=8, duration=RUN_DURATION, warmup=500.0,
                       seed=11, **overrides)
    policy = random_policy(counter_spec(n_accesses), random.Random(5)) \
        if cc_name == "polyjuice" else None
    return run_named(
        lambda: OrderedCounterWorkload(n_keys=n_keys, n_accesses=n_accesses),
        cc_name, config, policy=policy,
        fault_plan=FaultPlan(events=events) if events else None, **obs)


def assert_freed_by_refcount(db_refs):
    assert not gc.isenabled()  # the caller's switch is the caller's
    assert db_refs and all(ref() is None for ref in db_refs), db_refs
    assert gc.collect() == 0


@pytest.mark.parametrize("mode", [
    "closed", "open_loop_shedding", "durable", "cluster2_shard_crash",
    "scripted_faults", "all_obs"])
@pytest.mark.parametrize("cc_name", ["silo", "2pl", "ic3", "polyjuice"])
def test_a_dropped_result_frees_the_run(cc_name, mode, monkeypatch,
                                        collector_off):
    db_refs = track_databases(monkeypatch)
    gc.collect()
    result = _run_for_release(cc_name, mode)
    assert result.invariant_violations == []
    assert result.stats.total_commits > 0
    if mode == "open_loop_shedding":
        assert result.stats.total_shed > 0
    if mode == "durable":
        # the result keeps what it returns, the database among it
        assert result.durability.db is db_refs[0]()
    del result
    assert_freed_by_refcount(db_refs)


def test_a_probed_run_frees_its_probes_and_winner(monkeypatch,
                                                  collector_off):
    db_refs = track_databases(monkeypatch)
    gc.collect()
    result = run_named(lambda: CounterWorkload(n_keys=4, n_accesses=3),
                       "cormcc", SimConfig(n_workers=4, duration=3_000.0,
                                           seed=7))
    assert result.detail.startswith("picked ")
    del result
    assert len(db_refs) == 3  # one per probe, one for the winner
    assert_freed_by_refcount(db_refs)


def test_an_escaping_livelock_error_frees_the_run(monkeypatch,
                                                  collector_off):
    db_refs = track_databases(monkeypatch)
    gc.collect()
    config = SimConfig(n_workers=4, duration=4_000.0, seed=13,
                       watchdog_window=5.0, watchdog_action="raise")
    with pytest.raises(LivelockError):
        run_named(lambda: CounterWorkload(n_keys=2, n_accesses=2), "2pl",
                  config)
    assert_freed_by_refcount(db_refs)


def test_back_to_back_runs_do_not_grow_the_heap(collector_off):
    def one_run():
        result = run_named(lambda: CounterWorkload(n_keys=8, n_accesses=3),
                           "ic3", SimConfig(n_workers=8, duration=1_000.0,
                                            seed=3))
        assert result.stats.total_commits > 0

    one_run()  # first-run caches (compiled code, interned names)
    gc.collect()
    baseline = len(gc.get_objects())
    for _ in range(5):
        one_run()
    assert len(gc.get_objects()) <= baseline


class _BuildMarks(CounterWorkload):
    """Counts as "inside the run" from its build to the scheduler's
    release, for :func:`test_the_collector_sleeps_from_build_to_release`."""

    def __init__(self, inside):
        super().__init__(n_keys=8, n_accesses=3)
        self.inside = inside

    def build_database(self):
        self.inside.append(True)
        return super().build_database()


@pytest.mark.parametrize("caller", ["enabled", "frozen"])
def test_the_collector_sleeps_from_build_to_release(caller, monkeypatch):
    """No collector pass from build to release; afterwards the collector
    is on again with the caller's frozen set kept, and what the run left
    alive sits in the oldest generation, so the next young pass does not
    walk it."""
    passes, inside, kept = [], [], []

    def on_collection(phase, info):
        if phase == "start" and inside:
            passes.append(info["generation"])

    def factory():
        kept.append(_BuildMarks(inside))
        return kept[-1]

    real_release = Scheduler.release

    def release(scheduler):
        real_release(scheduler)
        inside.clear()

    monkeypatch.setattr(Scheduler, "release", release)
    gc.collect()
    threshold = gc.get_threshold()
    if caller == "frozen":
        gc.freeze()
    frozen = gc.get_freeze_count()
    # a low young-generation threshold: set-up alone would trigger passes
    # if the collector were on
    gc.set_threshold(10, *threshold[1:])
    gc.callbacks.append(on_collection)
    try:
        run_protocol(factory, make_cc("silo"),
                     SimConfig(n_workers=4, duration=1_000.0, seed=3))
    finally:
        gc.callbacks.remove(on_collection)
        gc.set_threshold(*threshold)
        state = (gc.isenabled(), gc.get_freeze_count())
        gc.unfreeze()
    assert not inside and passes == []
    assert state == (True, frozen)
    if caller == "enabled":
        db = kept[0].db
        assert any(obj is db for obj in gc.get_objects(generation=2))
