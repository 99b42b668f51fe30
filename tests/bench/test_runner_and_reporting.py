"""Bench harness tests: runner wiring, probing, reporting."""

import pytest

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.bench.runner import ExperimentResult, run_named, run_protocol
from repro.bench.reporting import format_series, format_table, speedup_summary
from repro.cc import CormCC, SiloOCC
from repro.obs import MetricsRegistry, TimelineSampler

from tests.helpers import CounterWorkload


def counter_factory():
    return CounterWorkload(n_keys=8, n_accesses=2)


class TestRunner:
    def test_run_named_silo(self):
        config = SimConfig(n_workers=2, duration=1000.0, seed=1)
        result = run_named(counter_factory, "silo", config)
        assert isinstance(result, ExperimentResult)
        assert result.throughput > 0
        assert result.cc_name == "silo"

    def test_invariant_check_runs_by_default(self):
        config = SimConfig(n_workers=2, duration=1000.0, seed=1)
        result = run_protocol(counter_factory, SiloOCC(), config)
        assert result.invariant_violations == []

    def test_probe_runs_full_measurement_with_winner(self):
        config = SimConfig(n_workers=2, duration=2000.0, seed=1)
        descriptor = CormCC(probe_fraction=0.25)
        result = run_protocol(counter_factory, descriptor, config)
        assert result.cc_name == "cormcc"
        assert result.detail in ("picked silo", "picked 2pl")

    def test_probed_run_metrics_carry_the_reported_name(self):
        # the probes record nothing; the measured run is labelled with the
        # name the result reports, not the winner's
        config = SimConfig(n_workers=2, duration=2000.0, seed=1)
        metrics = MetricsRegistry()
        timeline = TimelineSampler(500.0, config.n_workers)
        result = run_protocol(counter_factory, CormCC(probe_fraction=0.25),
                              config, metrics=metrics, timeline=timeline)
        labels = {row["labels"]["cc"] for row in metrics.snapshot()}
        assert labels == {"cormcc"}
        commits = sum(row["value"] for row in metrics.snapshot()
                      if row["name"] == "run_commits_total")
        assert commits == result.stats.total_commits

    def test_callbacks_receive_cc(self):
        config = SimConfig(n_workers=2, duration=1000.0, seed=1)
        seen = []
        run_protocol(counter_factory, SiloOCC(), config,
                     callbacks=[(500.0, lambda cc: seen.append(cc.name))])
        assert seen == ["silo"]

    def test_polyjuice_requires_policy(self):
        config = SimConfig(n_workers=1, duration=100.0, seed=1)
        with pytest.raises(ConfigError):
            run_named(counter_factory, "polyjuice", config)


class TestReporting:
    def test_format_table(self):
        text = format_table(["cc", "tps"],
                            [["silo", 1234.5], ["2pl", 999999.0]],
                            title="Fig X")
        assert "Fig X" in text
        assert "silo" in text
        assert "999,999" in text

    def test_format_series(self):
        text = format_series("silo", [1, 2], [1000.0, 2000.0])
        assert text == "silo: 1=1,000, 2=2,000"

    def test_speedup_summary(self):
        text = speedup_summary({"polyjuice": 120.0, "silo": 100.0,
                                "2pl": 80.0})
        assert "silo" in text
        assert "+20.0%" in text

    def test_speedup_summary_edge_cases(self):
        assert "missing" in speedup_summary({"silo": 1.0})
        assert "no baselines" in speedup_summary({"polyjuice": 1.0})
