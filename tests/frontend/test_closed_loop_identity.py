"""Closed-loop runs must stay bit-identical to the pinned pre-frontend
summaries: attaching the (absent) frontend machinery to the scheduler,
stats and worker paths costs nothing and changes nothing when
``SimConfig.frontend`` is ``None``.

The pinned artifact is ``data/closed_loop_summary.json``; regenerate it
only when a change *intentionally* alters seeded closed-loop outcomes
(which is itself a red flag — see ISSUE 7's acceptance criteria).
"""

import json
import os

from repro.bench.runner import run_protocol
from repro.cc import make_cc
from repro.config import SimConfig

from tests.helpers import CounterWorkload

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "closed_loop_summary.json")

#: must match the parameters the artifact was generated with
CONFIG = dict(n_workers=4, duration=15_000.0, warmup=1_000.0, seed=2024)


def current_summary(cc_name):
    result = run_protocol(lambda: CounterWorkload(n_keys=16),
                          make_cc(cc_name), SimConfig(**CONFIG))
    assert result.invariant_violations == []
    return result.stats.summary()


def test_closed_loop_summaries_bit_identical_to_pinned():
    with open(PINNED) as fh:
        pinned = json.load(fh)
    for cc_name, expected in pinned.items():
        actual = json.loads(json.dumps(current_summary(cc_name)))
        assert actual == expected, (
            f"closed-loop {cc_name} summary drifted from the pinned "
            f"pre-frontend baseline")


def test_every_pinned_protocol_commits():
    """A pinned summary with no commits pins a deadlock, not a baseline
    (2PL's entry once did: unordered counter keys, lock edges frozen at
    park time)."""
    with open(PINNED) as fh:
        pinned = json.load(fh)
    for cc_name, summary in pinned.items():
        assert sum(summary["commits"].values()) > 0, cc_name
        assert summary["throughput_tps"] > 0, cc_name


def test_closed_loop_runs_have_no_frontend_state():
    result = run_protocol(lambda: CounterWorkload(n_keys=16),
                          make_cc("silo"), SimConfig(**CONFIG))
    assert result.frontend is None
    assert result.stats.open_loop is False
    assert "slo" not in result.stats.summary()
