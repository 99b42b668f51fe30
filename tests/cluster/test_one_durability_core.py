"""Structural guard: one durability core, the 2PC layer on top.

``DurabilityManager`` owns the epoch boundary, flush completion, the
watermark, the ack and the whole-node crash for N shards; the cluster's
``ClusterDurability`` may add 2PC on top but must never grow a second
copy of those paths — and ``install`` / ``finalize`` must stay the core's
own functions, because the benchmark harness times a run by wrapping
exactly ``repro.durability.manager.DurabilityManager.install/finalize``."""

import pytest

from repro.bench.runner import run_protocol
from repro.cc import make_cc
from repro.config import ClusterConfig, DurabilityConfig, SimConfig
from repro.cluster.durability import ClusterDurability
from repro.cluster.workloads import make_cluster_micro_factory
from repro.durability.manager import DurabilityManager

CORE_ONLY = ["install", "finalize", "_on_epoch_boundary",
             "_complete_shard_flush", "_ack_epoch", "_truncate_shard",
             "node_crash", "unflushed_records"]


@pytest.mark.parametrize("name", CORE_ONLY)
def test_cluster_layer_does_not_redefine_the_core(name):
    assert name in vars(DurabilityManager)
    assert name not in vars(ClusterDurability)


def test_a_cluster_run_goes_through_the_core_install_and_finalize(
        monkeypatch):
    calls = []
    for name in ("install", "finalize"):
        original = getattr(DurabilityManager, name)

        def spy(self, *args, _name=name, _original=original):
            calls.append((_name, type(self)))
            return _original(self, *args)

        monkeypatch.setattr(DurabilityManager, name, spy)
    config = SimConfig(
        n_workers=2, duration=2_000.0, warmup=0.0, seed=5,
        durability=DurabilityConfig(epoch_length=400.0),
        cluster=ClusterConfig(n_shards=2, cross_shard_ratio=0.5))
    result = run_protocol(make_cluster_micro_factory(2, 2,
                                                     cross_shard_ratio=0.5),
                          make_cc("silo"), config)
    assert result.invariant_violations == []
    assert calls == [("install", ClusterDurability),
                     ("finalize", ClusterDurability)]
