"""CLI tests (argument handling + end-to-end commands on tiny runs)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.policy import CCPolicy
from repro.workloads.tpcc import tpcc_spec


FAST = ["--workers", "2", "--duration", "800", "--warmup", "0"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "tpcc"
        assert args.cc == "silo"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "ycsb"])


class TestCommands:
    def test_run_silo(self, capsys):
        assert main(["run", "--cc", "silo"] + FAST) == 0
        out = capsys.readouterr().out
        assert "TPS" in out
        assert "neworder" in out

    def test_run_micro(self, capsys):
        assert main(["run", "--workload", "micro", "--cc", "2pl",
                     "--theta", "0.5"] + FAST) == 0
        assert "TPS" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--ccs", "silo,2pl"] + FAST) == 0
        out = capsys.readouterr().out
        assert "silo" in out and "2pl" in out

    def test_unknown_cc_fails_cleanly(self, capsys):
        assert main(["run", "--cc", "nonsense"] + FAST) == 2
        assert "error:" in capsys.readouterr().err

    def test_train_and_run_policy(self, tmp_path, capsys):
        policy_path = str(tmp_path / "p.json")
        backoff_path = str(tmp_path / "b.json")
        assert main(["train", "--iterations", "1", "--population", "3",
                     "--children", "1", "--fitness-duration", "500",
                     "--policy-out", policy_path,
                     "--backoff-out", backoff_path] + FAST) == 0
        # the saved artefacts are valid
        CCPolicy.load(tpcc_spec(), policy_path)
        json.loads(open(backoff_path).read())
        capsys.readouterr()
        assert main(["run", "--cc", "polyjuice", "--policy", policy_path,
                     "--backoff", backoff_path] + FAST) == 0
        assert "polyjuice" in capsys.readouterr().out

    def test_inspect(self, tmp_path, capsys):
        from repro.cc.seeds import occ_policy
        policy_path = str(tmp_path / "p.json")
        occ_policy(tpcc_spec()).save(policy_path)
        assert main(["inspect", "--policy", policy_path]) == 0
        out = capsys.readouterr().out
        assert "vs occ: 0 of" in out
        assert "neworder a0" in out

    def test_trace(self, capsys):
        assert main(["trace", "--days", "5"]) == 0
        assert "retrains" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs import load_metrics_json, read_jsonl
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        assert main(["run", "--cc", "silo", "--trace", str(trace_path),
                     "--metrics", str(metrics_path)] + FAST) == 0
        events = read_jsonl(str(trace_path))
        assert events, "trace file must be non-empty"
        rows = load_metrics_json(str(metrics_path))
        assert any(row["name"] == "run_throughput_tps" for row in rows)
        out = capsys.readouterr().out
        assert "trace events" in out and "metrics" in out

    def test_run_chrome_trace_extension(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main(["run", "--cc", "silo",
                     "--trace", str(trace_path)] + FAST) == 0
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        capsys.readouterr()

    def test_compare_writes_per_cc_traces(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert main(["compare", "--ccs", "silo,2pl",
                     "--trace", str(trace_path)] + FAST) == 0
        assert (tmp_path / "t.silo.jsonl").stat().st_size > 0
        assert (tmp_path / "t.2pl.jsonl").stat().st_size > 0
        capsys.readouterr()

    def test_compare_refuses_a_repeated_protocol(self, tmp_path, capsys):
        """Runs are keyed by protocol name, so a name listed twice would
        add both runs into one metrics series and write one trace over the
        other: it is refused before any run, and nothing is written."""
        assert main(["compare", "--ccs", "silo, 2pl,silo",
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.json")] + FAST) == 2
        captured = capsys.readouterr()
        assert "'silo' twice" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
