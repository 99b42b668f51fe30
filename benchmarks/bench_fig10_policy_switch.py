"""Figure 10: throughput timeline while switching the policy live.

The run starts under the OCC policy; mid-run the policy pointer is swapped
to the trained one.  Paper shape: the switch completes within a few
seconds of simulated time, throughput never dips below the pre-switch
level, and it climbs to the trained policy's level.
"""

from repro.cc.seeds import occ_policy
from repro.core.executor import PolicyExecutor
from repro.bench.runner import run_protocol
from repro.obs.timeline import TimelineSampler
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

from .common import PROF, emit, sim_config, trained_tpcc

N_BUCKETS = 16


def run_experiment():
    spec = tpcc_spec()
    policy, backoff = trained_tpcc(1)
    config = sim_config(warmup=0.0)
    bucket = config.duration / N_BUCKETS
    switch_time = config.duration / 2
    cc = PolicyExecutor(policy=occ_policy(spec))
    timeline = TimelineSampler(window=bucket, n_workers=config.n_workers)

    def switch(cc_instance):
        cc_instance.set_policy(policy, backoff)

    result = run_protocol(make_tpcc_factory(n_warehouses=1, seed=PROF.seed),
                          cc, config, timeline=timeline,
                          callbacks=[(switch_time, switch)],
                          check_invariants=True)
    # the sampler may open one more window at the horizon (parked tails)
    series = [row["throughput_tps"] for row in timeline.rows()[:N_BUCKETS]]
    return result, series, bucket, switch_time


def test_fig10_policy_switch(once):
    result, series, bucket, switch_time = once(run_experiment)
    lines = [f"t={index * bucket:7.0f}us  {value:10,.0f} TPS"
             + ("   <- switch" if index == int(switch_time // bucket) else "")
             for index, value in enumerate(series)]
    emit("Fig 10: throughput during policy switch", "\n".join(lines))
    assert result.invariant_violations == []
    # post-switch steady state beats pre-switch steady state
    pre = series[2: N_BUCKETS // 2 - 1]
    post = series[N_BUCKETS // 2 + 2: -1]
    assert post and pre
    assert sum(post) / len(post) > sum(pre) / len(pre)
