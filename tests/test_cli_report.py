"""End-to-end tests for ``repro report``: rendering from artifacts, the
CI compare gate, zero-commit degradation, and schema-version rejection."""

import json

import pytest

from repro.cli import main
from repro.obs import load_timeline_json

FAST = ["--workers", "2", "--duration", "800", "--warmup", "0"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One traced + metered + timelined silo run shared by the tests."""
    root = tmp_path_factory.mktemp("artifacts")
    paths = {"trace": str(root / "t.jsonl"),
             "metrics": str(root / "m.json"),
             "timeline": str(root / "tl.json")}
    code = main(["run", "--cc", "silo", "--trace", paths["trace"],
                 "--metrics", paths["metrics"],
                 "--timeline", paths["timeline"]] + FAST)
    assert code == 0
    return paths


class TestReportRendering:
    def test_markdown_to_stdout(self, artifacts, capsys):
        assert main(["report", "--trace", artifacts["trace"],
                     "--metrics", artifacts["metrics"],
                     "--timeline", artifacts["timeline"]]) == 0
        out = capsys.readouterr().out
        assert "# Run report" in out
        assert "## Timeline" in out
        assert "## Conflict attribution" in out
        assert "## Latency critical path" in out

    def test_json_format_parses(self, artifacts, capsys):
        assert main(["report", "--trace", artifacts["trace"],
                     "--metrics", artifacts["metrics"],
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["throughput_tps"]["silo"] > 0
        assert report["attribution"]["pairs"] is not None
        assert report["critical_path"]["types"]

    def test_out_writes_file(self, artifacts, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        assert main(["report", "--metrics", artifacts["metrics"],
                     "--out", str(out_path)]) == 0
        assert "wrote report" in capsys.readouterr().out
        assert "# Run report" in out_path.read_text()

    def test_timeline_artifact_loads_and_reports(self, artifacts):
        document = load_timeline_json(artifacts["timeline"])
        assert document["rows"], "the run must produce timeline windows"
        total = sum(r["commits"] for r in document["rows"])
        assert total > 0

    def test_no_artifacts_is_an_error(self, capsys):
        assert main(["report"]) == 2
        assert "at least one artifact" in capsys.readouterr().err

    def test_missing_artifact_files_fail_cleanly(self, capsys):
        assert main(["report", "--trace", "/nonexistent.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err
        assert main(["report", "--metrics", "/nonexistent.json"]) == 2
        assert "cannot read metrics" in capsys.readouterr().err

    def test_garbage_trace_fails_cleanly(self, tmp_path, capsys):
        garbage = tmp_path / "g.jsonl"
        garbage.write_text("garbage not json\n")
        assert main(["report", "--trace", str(garbage)]) == 2
        assert "not a JSONL trace" in capsys.readouterr().err

    def test_malformed_trace_event_fails_cleanly(self, artifacts, tmp_path,
                                                 capsys):
        lines = open(artifacts["trace"]).read().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:3] + ['{"kind": "access"}'])
                       + "\n")
        assert main(["report", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{bad}:4:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", [
        '{"ts": 5.0, "kind": "access", "worker": 0, "attrs": [1, 2]}',
        '{"ts": 5.0, "kind": "wait_end", "worker": 0, "attrs": "x"}',
        '{"ts": 5.0, "kind": "access", "worker": 0, "type": ["x"], '
        '"attrs": {"access_id": 1}}',
        '{"ts": 5.0, "kind": "access", "worker": 0, "type": "payment", '
        '"attrs": {"access_id": [1]}}',
        '{"ts": 5.0, "kind": "wait_end", "worker": 0, '
        '"attrs": {"wait_kind": ["progress"]}}',
    ])
    def test_mistyped_event_field_fails_cleanly(self, artifacts, tmp_path,
                                                capsys, line):
        lines = open(artifacts["trace"]).read().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:3] + [line]) + "\n")
        assert main(["report", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{bad}:4:" in err
        assert "Traceback" not in err

    def test_timeline_only_report(self, artifacts, capsys):
        assert main(["report", "--timeline", artifacts["timeline"]]) == 0
        out = capsys.readouterr().out
        assert "## Timeline" in out
        # sections without input degrade to explicit no-data notes
        assert "no summary data" in out


class TestCompareGate:
    def test_compare_to_self_passes(self, artifacts, capsys):
        assert main(["report", "--compare", artifacts["metrics"],
                     artifacts["metrics"]]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_regression_fails_the_gate(self, artifacts, tmp_path, capsys):
        with open(artifacts["metrics"]) as fh:
            document = json.load(fh)
        for row in document["metrics"]:
            if row["name"] == "run_throughput_tps":
                row["value"] *= 0.5  # 50% throughput drop > 10% threshold
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert main(["report", "--compare", artifacts["metrics"],
                     str(bad)]) == 1
        assert "regression(s) beyond threshold" in capsys.readouterr().out

    def test_threshold_is_tunable(self, artifacts, tmp_path, capsys):
        with open(artifacts["metrics"]) as fh:
            document = json.load(fh)
        for row in document["metrics"]:
            if row["name"] == "run_throughput_tps":
                row["value"] *= 0.95  # 5% drop
        slight = tmp_path / "slight.json"
        slight.write_text(json.dumps(document))
        assert main(["report", "--compare", artifacts["metrics"],
                     str(slight)]) == 0  # within the default 10%
        capsys.readouterr()
        assert main(["report", "--threshold", "0.01", "--compare",
                     artifacts["metrics"], str(slight)]) == 1
        capsys.readouterr()


class TestZeroCommitRuns:
    def test_profile_and_report_survive_empty_run(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        # one-tick measurement window: nothing commits inside it
        assert main(["run", "--cc", "silo", "--workers", "2",
                     "--duration", "405", "--warmup", "404",
                     "--trace", str(trace), "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "no committed transactions" in out
        assert main(["report", "--metrics", str(metrics),
                     "--trace", str(trace)]) == 0
        capsys.readouterr()


class TestSchemaVersionRejection:
    def test_future_trace_version_exits_2(self, artifacts, tmp_path, capsys):
        lines = open(artifacts["trace"]).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = 999
        future = tmp_path / "future.jsonl"
        future.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert main(["report", "--trace", str(future)]) == 2
        assert "version" in capsys.readouterr().err

    def test_future_metrics_version_exits_2(self, artifacts, tmp_path,
                                            capsys):
        document = json.loads(open(artifacts["metrics"]).read())
        document["version"] = 999
        future = tmp_path / "future.json"
        future.write_text(json.dumps(document))
        assert main(["report", "--metrics", str(future)]) == 2
        assert "version" in capsys.readouterr().err

    def test_future_timeline_version_exits_2(self, artifacts, tmp_path,
                                             capsys):
        document = json.loads(open(artifacts["timeline"]).read())
        document["version"] = 999
        future = tmp_path / "future.json"
        future.write_text(json.dumps(document))
        assert main(["report", "--timeline", str(future)]) == 2
        assert "version" in capsys.readouterr().err
