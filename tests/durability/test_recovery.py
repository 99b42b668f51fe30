"""Whole-node crash and recovery: determinism, committed-prefix
consistency, the durability oracle, and time accounting across the crash."""

import pickle

import pytest

from repro.analysis.serializability import HistoryRecorder, SerializabilityChecker
from repro.bench.runner import run_named
from repro.cc.seeds import occ_policy
from repro.config import DurabilityConfig, SimConfig
from repro.durability import LogRecord, WriteImage, apply_record, \
    filter_history
from repro.errors import FaultPlanError
from repro.faults import FaultPlan, ScriptedFault
from repro.obs import TimeAccountant, check_accounting
from repro.storage.database import Database, diff_snapshots

from tests.helpers import CounterWorkload, counter_spec

CCS = ["silo", "2pl", "ic3", "polyjuice"]

CRASH_TIME = 2_750.0  # mid-epoch: unflushed buffers exist at the crash


def crash_plan(time=CRASH_TIME):
    return FaultPlan(events=[ScriptedFault(time=time, kind="node_crash")],
                     name="node_crash")


def make_config(seed=19, duration=6_000.0):
    return SimConfig(n_workers=4, duration=duration, seed=seed, warmup=0.0,
                     durability=DurabilityConfig(epoch_length=400.0,
                                                 checkpoint_interval=1_500.0))


def run_cell(cc_name, config, plan=None, recorder=None, accountant=None):
    policy = occ_policy(counter_spec()) if cc_name == "polyjuice" else None
    return run_named(lambda: CounterWorkload(n_keys=8), cc_name, config,
                     policy=policy, fault_plan=plan, recorder=recorder,
                     accountant=accountant)


@pytest.mark.parametrize("cc_name", CCS)
class TestRecoveryDeterminism:
    def test_recover_twice_byte_identical(self, cc_name):
        reports = []
        for _ in range(2):
            result = run_cell(cc_name, make_config(), crash_plan())
            assert len(result.durability.recoveries) == 1
            reports.append(result.durability.recoveries[0])
        a, b = reports
        assert pickle.dumps(a.recovered_snapshot) == \
            pickle.dumps(b.recovered_snapshot)
        assert (a.durable_seqno, a.persistent_epoch, a.replayed,
                a.lost_inflight, a.lost_unflushed) == \
            (b.durable_seqno, b.persistent_epoch, b.replayed,
             b.lost_inflight, b.lost_unflushed)

    def test_recovered_prefix_matches_uninterrupted_run(self, cc_name):
        crashed = run_cell(cc_name, make_config(), crash_plan()).durability
        # a crash scripted past the horizon never fires, but it makes the
        # uninterrupted run keep the write images replayed below (a
        # crash-free run logs sizes only)
        config = make_config()
        baseline = run_cell(cc_name, config,
                            crash_plan(config.duration + 1.0)).durability
        assert baseline.crash_count == 0
        report = crashed.recoveries[0]
        n = report.durable_seqno
        # pre-crash seqnos are contiguous from 1, so the durable prefix is
        # the first n records — and it must be the same transactions, in
        # the same order, as the uninterrupted run's
        assert [r.digest() for r in crashed.durable_log[:n]] == \
            [r.digest() for r in baseline.durable_log[:n]]
        # replaying that prefix over the initial state reproduces the
        # recovered database exactly
        initial = CounterWorkload(n_keys=8).build_database().snapshot()
        replayed = Database.from_snapshot(initial)
        for record in baseline.durable_log[:n]:
            apply_record(replayed, record)
        assert diff_snapshots(report.recovered_snapshot,
                              replayed.snapshot()) == []

    def test_oracle_and_invariants_clean(self, cc_name):
        recorder = HistoryRecorder()
        config = make_config()
        accountant = TimeAccountant(config.n_workers, config.duration)
        result = run_cell(cc_name, config, crash_plan(), recorder=recorder,
                          accountant=accountant)
        assert result.invariant_violations == []
        assert result.durability.violations == []
        assert check_accounting(accountant) is None
        history = filter_history(recorder, result.durability.lost_txn_ids)
        checker = SerializabilityChecker(history)
        assert checker.check(), checker.errors

    def test_run_continues_after_recovery(self, cc_name):
        result = run_cell(cc_name, make_config(), crash_plan())
        manager = result.durability
        report = manager.recoveries[0]
        # commits were acked after the restart, i.e. the workload resumed
        assert manager.max_acked_seqno > report.durable_seqno
        assert manager.persistent_epoch > report.persistent_epoch
        assert result.stats.total_commits == manager.acked_commits


class TestCrashSemantics:
    def test_lost_work_is_counted_not_acked(self):
        result = run_cell("silo", make_config(), crash_plan())
        manager = result.durability
        report = manager.recoveries[0]
        # a mid-epoch crash loses the open epoch's buffered installs
        assert report.lost_unflushed > 0
        assert manager.lost_txn_ids
        acked = {r.txn_id for r in manager.durable_log}
        assert not (manager.lost_txn_ids & acked)

    def test_recovery_downtime_charged(self):
        config = make_config()
        accountant = TimeAccountant(config.n_workers, config.duration)
        result = run_cell("silo", config, crash_plan(), accountant=accountant)
        report = result.durability.recoveries[0]
        assert report.recovery_ticks > 0
        for row in accountant.breakdown():
            assert row["wait:recovery"] == pytest.approx(
                report.recovery_ticks)

    def test_post_recovery_checkpoint_bounds_second_replay(self):
        plan = FaultPlan(events=[
            ScriptedFault(time=2_750.0, kind="node_crash"),
            ScriptedFault(time=5_000.0, kind="node_crash")],
            name="double_crash")
        result = run_cell("silo", make_config(duration=8_000.0), plan)
        manager = result.durability
        assert len(manager.recoveries) == 2
        assert manager.violations == []
        second = manager.recoveries[1]
        # the checkpoint appended at the first restart covers the first
        # crash's durable prefix, so the second replay starts after it
        assert second.checkpoint_seqno >= manager.recoveries[0].durable_seqno

    def test_node_crash_requires_durability(self):
        config = SimConfig(n_workers=4, duration=2_000.0, seed=19)
        with pytest.raises(FaultPlanError, match="node_crash"):
            run_cell("silo", config, crash_plan(1_000.0))


class TestLogDetachment:
    """The log must own its write images: later in-place mutation of a
    live row dict (or of a restored row) may never reach back into the
    log.  Regression tests for the deepcopy -> dict() copy change."""

    def test_image_detached_from_source_value(self):
        value = {"balance": 100}
        image = WriteImage("accounts", (1,), value, (7, 0))
        value["balance"] = -1  # in-place mutation after logging
        assert image.value == {"balance": 100}

    def test_recovery_restores_logged_value_not_mutated_row(self):
        # install a row, log its image, then mutate the live row's dict in
        # place (no installer does this today, but the log must not care)
        db = Database()
        db.create_table("accounts")
        record = db.load("accounts", (1,), {"balance": 100})
        log_record = LogRecord(
            seqno=1, epoch=0, txn_id=5, worker_id=0, type_name="pay",
            first_start=0.0, commit_time=10.0,
            writes=[WriteImage("accounts", (1,), record.value,
                               record.version_id)])
        record.value["balance"] = 999

        recovered = Database()
        apply_record(recovered, log_record)
        assert recovered.committed_value("accounts", (1,)) == \
            {"balance": 100}

    def test_restored_row_detached_from_image(self):
        # replaying the same record twice must give independent rows —
        # mutating one replay's row may not corrupt the image or the other
        image = WriteImage("accounts", (1,), {"balance": 100}, (7, 0))
        log_record = LogRecord(
            seqno=1, epoch=0, txn_id=5, worker_id=0, type_name="pay",
            first_start=0.0, commit_time=10.0, writes=[image])
        first, second = Database(), Database()
        apply_record(first, log_record)
        apply_record(second, log_record)
        first.committed_value("accounts", (1,))["balance"] = -1
        assert image.value == {"balance": 100}
        assert second.committed_value("accounts", (1,)) == {"balance": 100}

    def test_durable_log_survives_post_run_row_mutation(self):
        # end to end: replaying the durable log reproduces the recovered
        # snapshot even after the crashed run's rows are scribbled over
        result = run_cell("silo", make_config(), crash_plan())
        manager = result.durability
        report = manager.recoveries[0]
        initial = CounterWorkload(n_keys=8).build_database().snapshot()
        replayed = Database.from_snapshot(initial)
        for record in manager.durable_log[:report.durable_seqno]:
            apply_record(replayed, record)
            for image in record.writes:
                if image.value is not None:
                    image_copy = dict(image.value)
                    # mutating the freshly-restored row in place ...
                    restored = replayed.committed_value(image.table,
                                                        image.key)
                    if restored is not None:
                        for field in restored:
                            restored[field] = object()
                        # ... must leave the logged image untouched
                        assert image.value == image_copy
        # re-replay onto a clean database still matches the recovery oracle
        fresh = Database.from_snapshot(initial)
        for record in manager.durable_log[:report.durable_seqno]:
            apply_record(fresh, record)
        assert diff_snapshots(report.recovered_snapshot,
                              fresh.snapshot()) == []
