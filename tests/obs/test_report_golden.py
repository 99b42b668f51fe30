"""``repro report`` output pinned byte-for-byte.

Each case re-runs one small seeded ``repro run``, renders its artifacts
with ``repro report`` as markdown and as ``--format json``, and compares
both files with the goldens under ``data/report_golden/``.  The cases
cover every report section's input: a plain closed-loop silo run, the
learned wh1 policy (policy audit joined with actions), a durability run
(EPOCH acks feed ``epoch_flush``), an open-loop run that sheds, and a
trace-only report whose timeline is derived from the trace.

The goldens were recorded before the report leg became a single
streaming pass; re-record them only after an *intentional* change to the
report's content::

    PYTHONPATH=src:. python tests/obs/test_report_golden.py
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "data", "report_golden")
FIXTURES = os.path.join(HERE, os.pardir, os.pardir, "benchmarks", "harness",
                        "fixtures")
POLICY = os.path.join(FIXTURES, "policy_tpcc_wh1_quick.json")
BACKOFF = os.path.join(FIXTURES, "backoff_tpcc_wh1_quick.json")

#: case -> (``repro run`` arguments, artifacts written, extra report
#: arguments).  Every run writes a trace; ``metrics`` / ``timeline`` are
#: written and passed to the report only when listed.
CASES = {
    "silo": (["--cc", "silo", "--workers", "2", "--duration", "800",
              "--warmup", "0"], ("metrics", "timeline"), []),
    "polyjuice_wh1": (["--cc", "polyjuice", "--policy", POLICY,
                       "--backoff", BACKOFF, "--workers", "8",
                       "--duration", "1500", "--warmup", "0", "--seed", "7"],
                      ("metrics", "timeline"), ["--policy", POLICY]),
    "durability": (["--cc", "silo", "--durability", "--epoch-length", "400",
                    "--workers", "4", "--duration", "2000", "--warmup", "0"],
                   ("metrics", "timeline"), []),
    "open_loop": (["--cc", "silo", "--arrival-rate", "200000",
                   "--queue-cap", "4", "--deadline", "1500", "--workers", "4",
                   "--duration", "2000", "--warmup", "0"],
                  ("metrics", "timeline"), []),
    "trace_only": (["--cc", "polyjuice", "--policy", POLICY,
                    "--backoff", BACKOFF, "--workers", "8",
                    "--duration", "1500", "--warmup", "0", "--seed", "11"],
                   (), ["--top-k", "3"]),
}

FORMATS = {"md": "report.md", "json": "report.json"}


def render_case(name: str, root: str) -> dict:
    """Run case ``name`` under ``root``; return ``{format: report bytes}``."""
    run_args, artifacts, report_args = CASES[name]
    paths = {"trace": os.path.join(root, "t.jsonl")}
    for artifact in artifacts:
        paths[artifact] = os.path.join(root, f"{artifact}.json")
    assert main(["run"] + run_args
                + [arg for kind, path in paths.items()
                   for arg in (f"--{kind}", path)]) == 0
    inputs = [arg for kind, path in paths.items()
              for arg in (f"--{kind}", path)]
    out = {}
    for fmt, filename in FORMATS.items():
        target = os.path.join(root, filename)
        assert main(["report"] + inputs + report_args
                    + ["--format", fmt, "--out", target]) == 0
        with open(target, "rb") as fh:
            out[fmt] = fh.read()
    return out


def golden_path(name: str, fmt: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.{FORMATS[fmt]}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    rendered = render_case(name, str(tmp_path))
    capsys.readouterr()
    for fmt, data in rendered.items():
        with open(golden_path(name, fmt), "rb") as fh:
            assert data == fh.read(), f"{name}: {FORMATS[fmt]} drifted"


def test_cases_exercise_their_sections():
    """Guard the goldens' coverage: each case's distinguishing section is
    present in what was recorded."""
    def golden(name, fmt="md"):
        with open(golden_path(name, fmt)) as fh:
            return fh.read()
    assert "write" in golden("polyjuice_wh1").split("## Policy audit")[1]
    assert '"epoch_flush"' in golden("durability", "json")
    assert "| shed reason | count |" in golden("open_loop")
    assert "derived from trace COMMIT events" in golden("trace_only")


if __name__ == "__main__":
    import tempfile
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            for fmt, data in render_case(case, scratch).items():
                with open(golden_path(case, fmt), "wb") as fh:
                    fh.write(data)
        print(f"recorded {case}", file=sys.stderr)
