"""Fault injector behaviour: determinism, scripted events, policy corruption."""

import random

import pytest

from repro.bench.runner import run_protocol
from repro.cc import SiloOCC, TwoPL
from repro.config import FrontendConfig, SimConfig
from repro.core.policy import CCPolicy
from repro.errors import FaultPlanError, PolicyError
from repro.faults import (FAULT_RNG_SALT, FaultInjector, FaultPlan,
                          ScriptedFault, corrupt_policy_cell)
from repro.obs import EventKind, MemorySink

from tests.helpers import CounterWorkload


def run_counters(cc_factory, config, plan=None, sink=None, n_keys=8):
    holder = {}

    def factory():
        workload = CounterWorkload(n_keys=n_keys)
        holder["workload"] = workload
        return workload

    result = run_protocol(factory, cc_factory(), config, fault_plan=plan,
                          trace_sink=sink)
    return holder["workload"], result


class TestDeterminism:
    def test_same_seed_same_plan_identical(self):
        config = SimConfig(n_workers=4, duration=4000.0, seed=11)
        plan = FaultPlan(rates={"stall": 0.01, "abort": 0.005,
                                "crash": 0.002})
        _, a = run_counters(SiloOCC, config, plan)
        _, b = run_counters(SiloOCC, config, plan)
        assert a.stats.total_commits == b.stats.total_commits
        assert a.stats.total_aborts == b.stats.total_aborts
        assert a.fault_counts == b.fault_counts

    def test_different_seed_different_faults(self):
        plan = FaultPlan(rates={"abort": 0.01})
        _, a = run_counters(SiloOCC, SimConfig(n_workers=4, duration=4000.0,
                                               seed=11), plan)
        _, b = run_counters(SiloOCC, SimConfig(n_workers=4, duration=4000.0,
                                               seed=12), plan)
        # fault timing must derive from the root seed
        assert a.fault_counts != b.fault_counts \
            or a.stats.total_commits != b.stats.total_commits

    def test_empty_plan_matches_disabled(self):
        """An installed injector with no rates must not perturb the run."""
        config = SimConfig(n_workers=4, duration=4000.0, seed=11)
        _, off = run_counters(SiloOCC, config, plan=None)
        _, empty = run_counters(SiloOCC, config, plan=FaultPlan())
        assert off.stats.total_commits == empty.stats.total_commits
        assert off.stats.total_aborts == empty.stats.total_aborts
        assert empty.fault_counts == {}


class TestRateFaults:
    def test_rate_faults_fire_and_are_counted(self):
        config = SimConfig(n_workers=4, duration=6000.0, seed=3)
        plan = FaultPlan(rates={"stall": 0.02, "abort": 0.01,
                                "crash": 0.005})
        sink = MemorySink()
        workload, result = run_counters(SiloOCC, config, plan, sink=sink)
        assert result.fault_counts, "rates this high must fire"
        fault_events = [e for e in sink.events if e.kind == EventKind.FAULT]
        assert len(fault_events) == sum(result.fault_counts.values())
        assert all(e.attrs["origin"] == "rate" for e in fault_events)

    def test_counter_invariant_survives_faults(self):
        config = SimConfig(n_workers=4, duration=6000.0, seed=3)
        plan = FaultPlan(rates={"stall": 0.02, "abort": 0.01,
                                "crash": 0.005})
        workload, result = run_counters(SiloOCC, config, plan)
        assert not result.invariant_violations
        assert workload.check_against_commits(result.stats.total_commits) == []

    def test_crash_slows_throughput(self):
        config = SimConfig(n_workers=4, duration=6000.0, seed=3)
        _, clean = run_counters(SiloOCC, config)
        _, crashed = run_counters(
            SiloOCC, config, FaultPlan(rates={"crash": 0.02},
                                       crash_downtime=2000.0))
        assert crashed.fault_counts.get("crash", 0) > 0
        assert crashed.stats.total_commits < clean.stats.total_commits


class TestScriptedFaults:
    def test_scripted_crash_is_recorded(self):
        config = SimConfig(n_workers=2, duration=3000.0, seed=5)
        plan = FaultPlan(events=[ScriptedFault(500.0, "crash", 0,
                                               downtime=400.0)])
        sink = MemorySink()
        _, result = run_counters(SiloOCC, config, plan, sink=sink)
        crashes = [e for e in sink.events
                   if e.kind == EventKind.FAULT
                   and e.attrs["fault"] == "crash"]
        assert len(crashes) == 1
        assert crashes[0].worker == 0
        assert crashes[0].attrs["origin"] == "scripted"
        assert not result.invariant_violations

    def test_scripted_abort_and_crash_of_idle_open_loop_workers(self):
        """Open-loop workers parked on an empty admission queue have no
        attempt to abort: the events must not be thrown into their
        arrival wait, which ended the run with the worker's exception."""
        config = SimConfig(n_workers=4, duration=3000.0, seed=3,
                           frontend=FrontendConfig(
                               arrival_rate=2000.0, queue_cap=8,
                               deadline=2000.0, retry_budget=3))
        plan = FaultPlan(events=[
            ScriptedFault(time, kind, worker, downtime=100.0)
            for time, kind in ((500.0, "abort"), (1500.0, "crash"))
            for worker in range(4)])
        workload, result = run_counters(SiloOCC, config, plan)
        assert result.fault_counts == {"abort": 4, "crash": 4}
        assert not result.invariant_violations
        assert workload.check_against_commits(
            result.stats.total_commits) == []

    def test_scripted_slow_reduces_commits(self):
        config = SimConfig(n_workers=2, duration=4000.0, seed=5)
        _, clean = run_counters(SiloOCC, config)
        plan = FaultPlan(events=[ScriptedFault(0.0, "slow", w, factor=20.0)
                                 for w in range(2)])
        _, slowed = run_counters(SiloOCC, config, plan)
        assert slowed.stats.total_commits < clean.stats.total_commits
        assert not slowed.invariant_violations

    def test_scripted_slow_with_duration_expires(self):
        config = SimConfig(n_workers=2, duration=4000.0, seed=5)
        plan = FaultPlan(events=[ScriptedFault(0.0, "slow", w, factor=20.0,
                                               duration=200.0)
                                 for w in range(2)])
        _, brief = run_counters(SiloOCC, config, plan)
        plan_forever = FaultPlan(events=[ScriptedFault(0.0, "slow", w,
                                                       factor=20.0)
                                         for w in range(2)])
        _, forever = run_counters(SiloOCC, config, plan_forever)
        assert brief.stats.total_commits > forever.stats.total_commits

    def test_scripted_event_on_unknown_worker_rejected(self):
        config = SimConfig(n_workers=2, duration=1000.0, seed=5)
        plan = FaultPlan(events=[ScriptedFault(100.0, "abort", 7)])
        with pytest.raises(FaultPlanError, match=r"events\[0\].worker"):
            run_counters(SiloOCC, config, plan)

    def test_works_under_blocking_protocol(self):
        config = SimConfig(n_workers=4, duration=4000.0, seed=9)
        plan = FaultPlan(rates={"abort": 0.01, "crash": 0.003},
                         events=[ScriptedFault(800.0, "crash", 1,
                                               downtime=500.0)])
        workload, result = run_counters(TwoPL, config, plan)
        assert not result.invariant_violations
        assert workload.check_against_commits(result.stats.total_commits) == []


class TestCorruptPolicy:
    def test_corruption_is_detected_by_validate(self, two_type_spec):
        policy = CCPolicy(two_type_spec)
        detail = corrupt_policy_cell(policy, random.Random(1))
        assert "row" in detail
        with pytest.raises(PolicyError):
            policy.validate()

    def test_corruption_is_deterministic(self, two_type_spec):
        a, b = CCPolicy(two_type_spec), CCPolicy(two_type_spec)
        corrupt_policy_cell(a, random.Random(42))
        corrupt_policy_cell(b, random.Random(42))
        assert a.as_tuple() == b.as_tuple()


class TestInjectorUnit:
    def test_total_fired_sums_counts(self):
        plan = FaultPlan(rates={"abort": 1.0})
        injector = FaultInjector(plan, random.Random(FAULT_RNG_SALT))
        assert injector.total_fired == 0
        injector.fired["abort"] = 3
        injector.fired["stall"] = 2
        assert injector.total_fired == 5
