"""Time-accounting tests: the partition invariant and the profile CLI."""

import pytest

from repro.cli import main
from repro.config import SimConfig
from repro.bench.runner import run_named
from repro.errors import ReproError
from repro.obs import TimeAccountant, check_accounting, format_profile_table
from repro.sim.events import CostKind
from repro.workloads.tpcc import make_tpcc_factory


class TestTimeAccountant:
    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ReproError):
            TimeAccountant(0, 100.0)
        with pytest.raises(ReproError):
            TimeAccountant(2, 0.0)

    def test_manual_charges_partition(self):
        accountant = TimeAccountant(2, 100.0)
        accountant.on_cost(0, CostKind.WORK, 30.0)
        accountant.on_attempt_end(0, committed=False)   # 30 wasted
        accountant.on_cost(0, CostKind.WORK, 40.0)
        accountant.on_attempt_end(0, committed=True)    # 40 useful
        accountant.on_cost(0, CostKind.BACKOFF, 12.0)
        accountant.on_cost(0, CostKind.BACKOFF, -2.0)   # a crash refund
        accountant.on_wait(0, "lock", 5.0)
        accountant.on_cost(1, CostKind.WORK, 25.0)      # still in flight
        rows = accountant.breakdown()
        assert rows[0] == {"useful": 40.0, "wasted": 30.0, "in_flight": 0.0,
                           "backoff": 10.0, "wait:lock": 5.0, "idle": 15.0,
                           "total": 100.0}
        assert rows[1]["in_flight"] == 25.0
        assert rows[1]["idle"] == 75.0
        assert check_accounting(accountant) is None

    def test_over_charge_detected(self):
        accountant = TimeAccountant(1, 10.0)
        accountant.on_cost(0, CostKind.WORK, 50.0)
        violation = check_accounting(accountant)
        assert violation is not None and "worker 0" in violation

    def test_totals_sum_over_workers(self):
        accountant = TimeAccountant(3, 50.0)
        accountant.on_cost(1, CostKind.BACKOFF, 20.0)
        totals = accountant.totals()
        assert totals["total"] == 150.0
        assert totals["backoff"] == 20.0
        assert totals["idle"] == 130.0

    def test_format_table_mentions_every_category(self):
        accountant = TimeAccountant(1, 100.0)
        accountant.on_wait(0, "commit_deps", 10.0)
        text = format_profile_table(accountant)
        for column in ("worker", "useful", "wasted", "backoff",
                       "wait:commit_deps", "idle", "TOTAL"):
            assert column in text


class TestSeededRunInvariant:
    @pytest.mark.parametrize("cc", ["silo", "2pl", "ic3"])
    def test_breakdown_sums_to_duration(self, cc):
        config = SimConfig(n_workers=4, duration=2500.0, warmup=0.0, seed=11)
        accountant = TimeAccountant(config.n_workers, config.duration)
        run_named(make_tpcc_factory(n_warehouses=1, seed=11), cc, config,
                  accountant=accountant)
        assert check_accounting(accountant) is None
        for row in accountant.breakdown():
            charged = sum(value for key, value in row.items()
                          if key != "total")
            assert charged == pytest.approx(config.duration, abs=1e-6)
            assert row["idle"] >= 0.0

    def test_work_actually_attributed(self):
        config = SimConfig(n_workers=4, duration=2500.0, warmup=0.0, seed=11)
        accountant = TimeAccountant(config.n_workers, config.duration)
        result = run_named(make_tpcc_factory(n_warehouses=1, seed=11),
                           "silo", config, accountant=accountant)
        assert result.stats.total_commits > 0
        totals = accountant.totals()
        assert totals["useful"] > 0.0


class TestProfileCommand:
    FAST = ["--workers", "2", "--duration", "800", "--warmup", "0"]

    def test_profile_silo(self, capsys):
        assert main(["profile", "--cc", "silo"] + self.FAST) == 0
        out = capsys.readouterr().out
        assert "useful" in out and "TOTAL" in out
        assert "TPS" in out

    def test_profile_writes_trace_and_metrics(self, capsys, tmp_path):
        trace = tmp_path / "p.jsonl"
        metrics = tmp_path / "p.json"
        assert main(["profile", "--cc", "2pl", "--trace", str(trace),
                     "--metrics", str(metrics)] + self.FAST) == 0
        assert trace.stat().st_size > 0
        assert metrics.stat().st_size > 0
