"""Property test on the real TPC-C workload: arbitrary policies are safe.

Heavier than the counter-workload property (tests/test_properties.py) but
the highest-value check in the repository: random policies driving full
TPC-C — loops, inserts, deletes, scans — must keep TPC-C's money/order
invariants and commit only serializable histories.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.bench.runner import run_protocol
from repro.analysis import HistoryRecorder, SerializabilityChecker
from repro.training.ea import random_backoff, random_policy
from repro.workloads.tpcc import TPCCScale, make_tpcc_factory, tpcc_spec

from tests.helpers import DirtyListCheckingExecutor as PolicyExecutor

SCALE = TPCCScale(n_warehouses=1, districts_per_warehouse=3,
                  customers_per_district=20, n_items=40,
                  initial_orders_per_district=8)


@given(policy_seed=st.integers(min_value=0, max_value=2 ** 31),
       sim_seed=st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_policies_on_tpcc_are_safe(policy_seed, sim_seed):
    spec = tpcc_spec()
    rng = random.Random(policy_seed)
    cc = PolicyExecutor(policy=random_policy(spec, rng),
                        backoff_policy=random_backoff(spec.n_types, rng))
    recorder = HistoryRecorder()
    holder = {}

    def factory():
        holder["w"] = make_tpcc_factory(scale=SCALE, seed=1)()
        return holder["w"]

    config = SimConfig(n_workers=5, duration=2500.0, seed=sim_seed)
    result = run_protocol(factory, cc, config, recorder=recorder)
    checker = SerializabilityChecker(recorder)
    assert checker.check(), checker.errors
    assert result.invariant_violations == [], result.invariant_violations


def test_dirty_write_list_equals_the_write_set_scan_on_tpcc():
    """One pinned TPC-C case for the dirty-write list (the check lives in
    the executor subclass): NewOrder piles up private writes that one
    PUBLIC write exposes together, and piece retries roll some back."""
    spec = tpcc_spec()
    rng = random.Random(9)
    cc = PolicyExecutor(policy=random_policy(spec, rng),
                        backoff_policy=random_backoff(spec.n_types, rng))
    config = SimConfig(n_workers=5, duration=2500.0, seed=9)
    result = run_protocol(make_tpcc_factory(scale=SCALE, seed=1), cc, config)
    assert result.invariant_violations == []
    assert result.stats.total_commits > 0
    assert cc.seen["checks"] > 1000 and cc.seen["rollbacks"] > 0, cc.seen
