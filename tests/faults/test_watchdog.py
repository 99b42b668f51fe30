"""Progress watchdog: livelock detection, recovery, diagnostics."""

import pytest

from repro.bench.runner import run_protocol
from repro.cc import SiloOCC, TwoPL
from repro.config import SimConfig
from repro.errors import ConfigError, LivelockError
from repro.obs import EventKind, MemorySink

from tests.helpers import CounterWorkload


def run_counters(cc, config, sink=None):
    holder = {}

    def factory():
        workload = CounterWorkload(n_keys=2, n_accesses=2)
        holder["workload"] = workload
        return workload

    result = run_protocol(factory, cc, config, trace_sink=sink)
    return holder["workload"], result


class TestConfig:
    def test_bad_action_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(watchdog_action="panic")

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(watchdog_window=-1.0)

    def test_disabled_by_default(self):
        assert SimConfig().watchdog_window is None


class TestAbortOldest:
    def test_fires_and_run_completes(self):
        # a window far smaller than a transaction's execution time forces
        # the watchdog to fire; abort_oldest must keep the run live and
        # every invariant intact
        config = SimConfig(n_workers=4, duration=4000.0, seed=13,
                           watchdog_window=5.0,
                           watchdog_action="abort_oldest")
        sink = MemorySink()
        workload, result = run_counters(TwoPL(), config, sink=sink)
        assert result.livelock_fires > 0
        livelocks = [e for e in sink.events
                     if e.kind == EventKind.LIVELOCK]
        assert len(livelocks) == result.livelock_fires
        assert not result.invariant_violations
        assert workload.check_against_commits(
            result.stats.total_commits) == []

    def test_diagnostics_shape(self):
        config = SimConfig(n_workers=4, duration=3000.0, seed=13,
                           watchdog_window=5.0)
        sink = MemorySink()
        run_counters(TwoPL(), config, sink=sink)
        event = next(e for e in sink.events
                     if e.kind == EventKind.LIVELOCK)
        attrs = event.attrs
        assert attrs["window"] == 5.0
        assert attrs["action"] == "abort_oldest"
        assert "last_commit_time" in attrs
        assert isinstance(attrs["parked"], list)
        assert isinstance(attrs["wait_edges"], list)
        # a park breaks every cycle it closes: no parked worker is on one
        assert attrs["on_cycle"] == []
        for entry in attrs["parked"]:
            assert {"worker", "wait_kind", "txn", "parked_for"} \
                <= set(entry)

    def test_wide_window_never_fires(self):
        config = SimConfig(n_workers=4, duration=3000.0, seed=13,
                           watchdog_window=1_000_000.0)
        _, result = run_counters(SiloOCC(), config)
        assert result.livelock_fires == 0

    def test_watchdog_does_not_change_results_when_quiet(self):
        base = SimConfig(n_workers=4, duration=3000.0, seed=13)
        armed = SimConfig(n_workers=4, duration=3000.0, seed=13,
                          watchdog_window=1_000_000.0)
        _, off = run_counters(SiloOCC(), base)
        _, on = run_counters(SiloOCC(), armed)
        assert off.stats.total_commits == on.stats.total_commits
        assert off.stats.total_aborts == on.stats.total_aborts


class TestRaiseMode:
    def test_raises_livelock_error_with_diagnostics(self):
        config = SimConfig(n_workers=4, duration=4000.0, seed=13,
                           watchdog_window=5.0, watchdog_action="raise")
        with pytest.raises(LivelockError) as excinfo:
            run_counters(TwoPL(), config)
        assert "no commit for" in str(excinfo.value)
        assert excinfo.value.diagnostics["window"] == 5.0
