"""Property-based tests: the paper's correctness theorem, machine-checked.

The strongest test in the repository: drive the policy executor with
*random* policies — arbitrary combinations of waits, dirty reads, exposure
and early validation, far outside the trained region — under a contended
workload, and assert that (a) the committed history is serializable and
(b) no update is ever lost.  This is the Appendix-A theorem ("Polyjuice
only commits serializable histories regardless of the policy") as a
hypothesis property.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.analysis import HistoryRecorder, SerializabilityChecker
from repro.training.ea import random_backoff, random_policy

from tests.helpers import (DirtyListCheckingExecutor as PolicyExecutor,
                           counter_spec, run_counter_experiment)

PROPERTY_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


@given(policy_seed=st.integers(min_value=0, max_value=2 ** 31),
       sim_seed=st.integers(min_value=0, max_value=2 ** 31))
@PROPERTY_SETTINGS
def test_random_policies_commit_only_serializable_histories(policy_seed,
                                                            sim_seed):
    spec = counter_spec(2)
    rng = random.Random(policy_seed)
    policy = random_policy(spec, rng)
    backoff = random_backoff(1, rng)
    cc = PolicyExecutor(policy=policy, backoff_policy=backoff)
    recorder = HistoryRecorder()
    config = SimConfig(n_workers=6, duration=1500.0, seed=sim_seed)
    workload, result = run_counter_experiment(cc, config, n_keys=3,
                                              n_accesses=2,
                                              recorder=recorder)
    checker = SerializabilityChecker(recorder)
    assert checker.check(), (policy.describe(), checker.errors)
    # and no lost updates: the counter accounting must be exact
    assert workload.check_against_commits(result.stats.total_commits) == [], \
        policy.describe()


def _run_rewriting_counters(policy_seed, sim_seed, duration):
    """Three increments over two counters: every transaction writes some
    key twice, so exposed writes are dirtied again and piece retries undo
    ``wmod`` records — the cases the dirty-write list has to track."""
    spec = counter_spec(3)
    rng = random.Random(policy_seed)
    cc = PolicyExecutor(policy=random_policy(spec, rng),
                        backoff_policy=random_backoff(1, rng))
    config = SimConfig(n_workers=6, duration=duration, seed=sim_seed)
    workload, result = run_counter_experiment(cc, config, n_keys=2,
                                              n_accesses=3)
    assert workload.check_against_commits(result.stats.total_commits) == []
    return cc.seen


@given(policy_seed=st.integers(min_value=0, max_value=2 ** 31),
       sim_seed=st.integers(min_value=0, max_value=2 ** 31))
@PROPERTY_SETTINGS
def test_dirty_write_list_equals_the_write_set_scan(policy_seed, sim_seed):
    """``ctx.dirty_writes`` is the scan it replaced, at every early
    validation, publication and rollback (asserted inside the executor
    subclass every policy property in this file runs under)."""
    _run_rewriting_counters(policy_seed, sim_seed, 1500.0)


def test_dirty_write_list_property_reaches_the_hard_cases():
    """Pinned seeds under which the check above provably sees piece
    retries, ``wmod`` undo records restoring a clean exposed write,
    re-dirtied exposed writes and out-of-order lists."""
    seen = {}
    for seed in (5, 8):
        for case, count in _run_rewriting_counters(seed, seed,
                                                   3000.0).items():
            seen[case] = seen.get(case, 0) + count
    assert all(seen.values()), seen


@given(policy_seed=st.integers(min_value=0, max_value=2 ** 31))
@PROPERTY_SETTINGS
def test_random_policies_make_progress_or_abort_cleanly(policy_seed):
    """No policy may wedge the simulator: every run terminates with all
    shared state scrubbed (no locks held by terminal transactions)."""
    spec = counter_spec(3)
    rng = random.Random(policy_seed)
    policy = random_policy(spec, rng)
    cc = PolicyExecutor(policy=policy)
    config = SimConfig(n_workers=4, duration=1500.0, seed=9)
    workload, result = run_counter_experiment(cc, config, n_keys=4,
                                              n_accesses=3)
    table = workload.db.table("COUNTERS")
    for key in table.keys():
        record = table.get_record(key)
        owner = record.lock_owner
        assert owner is None or owner.is_active()
        for entry in record.access_list:
            assert entry.ctx.is_active()


@given(seed=st.integers(min_value=0, max_value=2 ** 31),
       n_keys=st.integers(min_value=1, max_value=6),
       n_workers=st.integers(min_value=1, max_value=8))
@PROPERTY_SETTINGS
def test_native_protocols_never_lose_updates(seed, n_keys, n_workers):
    from repro.cc import SiloOCC, TwoPL
    for cc in (SiloOCC(), TwoPL()):
        config = SimConfig(n_workers=n_workers, duration=1200.0, seed=seed)
        workload, result = run_counter_experiment(cc, config, n_keys=n_keys,
                                                  n_accesses=min(2, n_keys))
        assert workload.check_against_commits(
            result.stats.total_commits) == []
