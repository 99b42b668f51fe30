"""Liveness: no protocol leaves workers deadlocked on a wait-for cycle.

Every run goes through :func:`tests.helpers.run_live`, which checks at the
horizon that no parked abort-on-break worker lies on a cycle over the
scheduler's live edges and that no wait timed out.  The counter runs are
longer than their ``wait_timeout``, so a missed cycle would surface as a
timeout; the TPC-E runs are the configuration where IC3, 2PL and Polyjuice
used to deadlock (Zipf theta 3, 16 workers: 0 TPS at most seeds).
"""

import pytest

from repro.cc import make_cc
from repro.cc.seeds import two_pl_star_policy
from repro.config import CostModel, SimConfig
from repro.workloads.tpce import make_tpce_factory

from tests.helpers import (CounterWorkload, counter_spec, run_live,
                           tpce_t3_policy)

PROTOCOLS = ["silo", "2pl", "ic3", "polyjuice"]


@pytest.mark.parametrize("cc_name", PROTOCOLS)
def test_contended_counters_stay_live(cc_name):
    # unordered keys: 2PL relies on the cycle detector; polyjuice runs
    # the 2PL* seed, whose commit-dependency waits form cycles too (the
    # baselines ignore the policy)
    config = SimConfig(n_workers=8, duration=12_000.0, warmup=0.0, seed=5,
                       cost=CostModel(wait_timeout=4_000.0))
    cc = make_cc(cc_name, policy=two_pl_star_policy(counter_spec(3)))
    workload = CounterWorkload(n_keys=6, n_accesses=3)
    stats = run_live(workload, cc, config)
    assert stats.total_commits > 0
    assert workload.check_against_commits(stats.total_commits) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tpce_theta3_baselines_keep_pace_with_silo(seed):
    config = SimConfig(n_workers=16, duration=8_000.0, warmup=1_000.0,
                       seed=seed)
    factory = make_tpce_factory(theta=3.0, seed=seed)
    policy, backoff = tpce_t3_policy()
    tps = {}
    for cc_name in PROTOCOLS:
        cc = make_cc(cc_name, policy=policy, backoff_policy=backoff)
        stats = run_live(factory(), cc, config)
        tps[cc_name] = stats.throughput()
    for cc_name in ("2pl", "ic3", "polyjuice"):
        assert tps[cc_name] >= 0.75 * tps["silo"], tps
