"""Bit-identity of the overhauled hot path against pinned fixtures.

Every cell re-runs a seeded experiment and compares the full stats summary
plus trace/metrics SHA-256 digests against ``data/fixtures.json``, which was
generated at the commit *before* the hot-path overhaul.  A mismatch means an
optimisation changed observable behaviour — never acceptable here, whatever
the speedup.  ``gen_fixtures.py`` documents how to regenerate after an
*intentional* behaviour change elsewhere in the stack.
"""

import json
import os

import pytest

from tests.hotpath.common import (PARKED_FAULT_CELLS, TIMEOUT_CELLS,
                                  canonical, cell_names, run_cell)

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "fixtures.json")


@pytest.fixture(scope="module")
def fixtures():
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", cell_names())
def test_matches_pinned_fixture(name, fixtures):
    assert name in fixtures, (
        f"no pinned fixture for {name}; run tests/hotpath/gen_fixtures.py "
        f"on a known-good build")
    digest, result = run_cell(name)
    assert result.invariant_violations == []
    assert canonical(digest) == canonical(fixtures[name])
    if name in PARKED_FAULT_CELLS:
        # each scripted event found its target parked and ended that wait
        events = PARKED_FAULT_CELLS[name][1]
        assert digest["fault_wait_ends"] == [[event.time, event.worker]
                                             for event in events]
    if name in TIMEOUT_CELLS:
        # a performance wait and a correctness wait both timed out, and
        # every break ended its park with a ``timeout`` WAIT_END
        assert "progress" in digest["timeout_wait_kinds"]
        assert len(digest["timeout_wait_kinds"]) > 1
        assert digest["timeout_breaks"] == len(digest["timeout_wait_ends"])


@pytest.mark.parametrize("name", ["ic3-closed", "polyjuice-closed"])
def test_obs_off_matches_obs_on_summary(name, fixtures):
    """Observability must stay zero-impact: with trace/metrics detached the
    seeded run's summary is byte-identical to the obs-on fixture."""
    digest, result = run_cell(name, obs=False)
    assert result.invariant_violations == []
    assert json.dumps(digest["summary"], sort_keys=True) == \
        json.dumps(fixtures[name]["summary"], sort_keys=True)
