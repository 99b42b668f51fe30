"""Structural guard: one frontend, N shard queues.

``Frontend`` owns the per-shard admission queues, the one arrival handler,
the one dequeue, the end-of-run sweep and the depth high-water mark; the
name ``repro.cluster.ShardedFrontend`` survives only for the benchmark
harness's import and must never grow a second copy of those paths — and a
cluster run must go through ``Frontend``'s own functions, because the
harness times ``frontend.finalize`` by wrapping exactly that method."""

import pytest

import repro.bench.runner as runner
from repro.bench.runner import run_protocol
from repro.cc import make_cc
from repro.cluster import ShardedFrontend
from repro.cluster.workloads import make_cluster_micro_factory
from repro.config import ClusterConfig, FrontendConfig, SimConfig
from repro.frontend import Frontend

ADMISSION_PATH = ["_on_arrival", "next_item", "next_item_for", "has_work",
                  "idle", "finalize", "depth_max", "view_for"]


@pytest.mark.parametrize("name", ADMISSION_PATH)
def test_the_old_name_defines_no_admission_path(name):
    assert issubclass(ShardedFrontend, Frontend)
    assert name not in vars(ShardedFrontend)


def test_the_runner_knows_one_frontend_class():
    assert runner.Frontend is Frontend
    assert not hasattr(runner, "ShardedFrontend")


def test_a_cluster_run_goes_through_the_one_arrival_and_finalize(
        monkeypatch):
    calls = []
    for name in ("_on_arrival", "finalize"):
        original = getattr(Frontend, name)

        def spy(self, *args, _name=name, _original=original):
            calls.append((_name, type(self)))
            return _original(self, *args)

        monkeypatch.setattr(Frontend, name, spy)
    config = SimConfig(
        n_workers=2, duration=2_000.0, warmup=0.0, seed=5,
        frontend=FrontendConfig(arrival_rate=100_000.0, queue_cap=8),
        cluster=ClusterConfig(n_shards=2, cross_shard_ratio=0.5))
    result = run_protocol(make_cluster_micro_factory(2, 2,
                                                     cross_shard_ratio=0.5),
                          make_cc("silo"), config)
    assert result.invariant_violations == []
    assert type(result.frontend) is Frontend
    assert len(result.frontend.queues) == 2
    assert set(calls) == {("_on_arrival", Frontend), ("finalize", Frontend)}
    assert calls.count(("finalize", Frontend)) == 1
    assert calls.count(("_on_arrival", Frontend)) == result.frontend.arrivals
