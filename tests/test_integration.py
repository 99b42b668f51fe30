"""Cross-module integration tests: every protocol on every workload keeps
its invariants and commits only serializable histories."""

import pytest

from repro.config import SimConfig
from repro.bench.runner import run_named, run_protocol
from repro.analysis import HistoryRecorder, SerializabilityChecker
from repro.cc import IC3, SiloOCC, Tebaldi, TwoPL
from repro.cc.seeds import occ_policy
from repro.core.executor import PolicyExecutor
from repro.obs.timeline import TimelineSampler
from repro.workloads.micro import make_micro_factory
from repro.workloads.tpcc import TPCCScale, make_tpcc_factory, tpcc_spec
from repro.workloads.tpce import TPCEScale, make_tpce_factory

SMALL_TPCC = TPCCScale(n_warehouses=1, districts_per_warehouse=4,
                       customers_per_district=40, n_items=80,
                       initial_orders_per_district=12)
SMALL_TPCE = TPCEScale(n_customers=60, n_brokers=6, n_securities=50,
                       n_companies=20, initial_trades=120, theta=1.0)

ALL_CCS = [SiloOCC, TwoPL, IC3, Tebaldi]


@pytest.mark.parametrize("cc_factory", ALL_CCS)
def test_tpcc_serializable_under_every_protocol(cc_factory):
    recorder = HistoryRecorder()
    config = SimConfig(n_workers=8, duration=4000.0, seed=13)
    result = run_protocol(make_tpcc_factory(scale=SMALL_TPCC), cc_factory(),
                          config, recorder=recorder)
    assert result.stats.total_commits > 0
    assert result.invariant_violations == []
    checker = SerializabilityChecker(recorder)
    assert checker.check(), checker.errors


@pytest.mark.parametrize("cc_factory", [SiloOCC, IC3])
def test_tpce_serializable(cc_factory):
    recorder = HistoryRecorder()
    config = SimConfig(n_workers=6, duration=3000.0, seed=13)
    result = run_protocol(make_tpce_factory(scale=SMALL_TPCE), cc_factory(),
                          config, recorder=recorder)
    assert result.stats.total_commits > 0
    assert result.invariant_violations == []
    assert SerializabilityChecker(recorder).check()


@pytest.mark.parametrize("cc_factory", [SiloOCC, IC3])
def test_micro_serializable(cc_factory):
    recorder = HistoryRecorder()
    config = SimConfig(n_workers=6, duration=2000.0, seed=13)
    result = run_protocol(
        make_micro_factory(theta=0.9, hot_range=100, cold_range=10_000,
                           unique_range=1_000),
        cc_factory(), config, recorder=recorder)
    assert result.stats.total_commits > 0
    assert SerializabilityChecker(recorder).check()


def test_polyjuice_with_occ_policy_close_to_silo_low_contention():
    """§7.2: at 48 warehouses Polyjuice learns OCC and pays ~8% overhead.
    Scaled down: one worker per warehouse, zero contention."""
    scale = TPCCScale(n_warehouses=4, districts_per_warehouse=4,
                      customers_per_district=40, n_items=80,
                      initial_orders_per_district=12)
    config = SimConfig(n_workers=4, duration=5000.0, seed=13)
    silo = run_protocol(make_tpcc_factory(scale=scale), SiloOCC(), config)
    polyjuice = run_named(make_tpcc_factory(scale=scale), "polyjuice",
                          config, policy=occ_policy(tpcc_spec()))
    ratio = polyjuice.throughput / silo.throughput
    assert 0.80 < ratio < 1.01  # slower, but not by much


def test_policy_switch_mid_run_is_safe():
    """Fig 10: swapping the policy mid-run must not break anything."""
    from repro.cc.ic3 import ic3_policy
    spec = tpcc_spec()
    cc = PolicyExecutor(policy=occ_policy(spec))
    recorder = HistoryRecorder()
    config = SimConfig(n_workers=8, duration=6000.0, seed=13)
    timeline = TimelineSampler(window=1000.0, n_workers=config.n_workers)

    def switch(cc_instance):
        cc_instance.set_policy(ic3_policy(spec))

    result = run_protocol(make_tpcc_factory(scale=SMALL_TPCC), cc, config,
                          recorder=recorder, callbacks=[(3000.0, switch)],
                          timeline=timeline)
    assert result.stats.total_commits > 0
    assert result.invariant_violations == []
    assert SerializabilityChecker(recorder).check()
    # commits on both sides of the switch
    assert all(row["commits"] > 0 for row in timeline.rows()[:6])


def test_warmup_reduces_measured_commits():
    config_full = SimConfig(n_workers=4, duration=4000.0, seed=13)
    config_warm = SimConfig(n_workers=4, duration=4000.0, warmup=2000.0,
                            seed=13)
    full = run_protocol(make_tpcc_factory(scale=SMALL_TPCC), SiloOCC(),
                        config_full)
    warm = run_protocol(make_tpcc_factory(scale=SMALL_TPCC), SiloOCC(),
                        config_warm)
    assert warm.stats.total_commits < full.stats.total_commits
    assert warm.stats.warmup_commits > 0


def test_latency_collection_has_percentiles():
    config = SimConfig(n_workers=6, duration=4000.0, seed=13,
                       collect_latency=True)
    result = run_protocol(make_tpcc_factory(scale=SMALL_TPCC), SiloOCC(),
                          config)
    summary = result.stats.latency["neworder"].summary()
    assert summary["p50"] <= summary["p90"] <= summary["p99"]
    assert summary["avg"] > 0
