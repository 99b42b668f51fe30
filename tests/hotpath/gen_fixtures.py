"""Record the hot-path bit-identity fixtures of cells not yet pinned.

Run from the repo root against a known-good build (normally the commit
*before* a hot-path change lands)::

    PYTHONPATH=src:. python tests/hotpath/gen_fixtures.py

The output (``tests/hotpath/data/fixtures.json``) pins, per matrix cell,
the full stats summary plus SHA-256 digests of the structured trace and the
metrics snapshot (crash cells add the logs, recovered snapshots and crash
reports).  ``test_bit_identity.py`` compares live runs against this file
byte-for-byte.

A cell is recorded once, at the parent of the change that adds it, and
never again: cells already in the file are neither re-run nor rewritten.
After an *intentional* behaviour change, delete the affected entries by
hand — that deletion is then visible in the diff — and re-run.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from tests.hotpath.common import cell_names, run_cell  # noqa: E402

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "fixtures.json")


def main() -> None:
    with open(FIXTURE_PATH) as fh:
        fixtures = json.load(fh)
    missing = [name for name in cell_names() if name not in fixtures]
    print(f"{len(fixtures)} cells pinned and kept as they are; "
          f"recording {len(missing)}")
    for name in missing:
        digest, result = run_cell(name)
        assert result.invariant_violations == [], (name,
                                                   result.invariant_violations)
        assert result.stats.total_commits > 0, name
        fixtures[name] = digest
        print(f"{name}: commits={result.stats.total_commits} "
              f"trace={digest['trace_sha'][:12]}")
    if not missing:
        return
    with open(FIXTURE_PATH, "w") as fh:
        json.dump(fixtures, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH} ({len(fixtures)} cells)")


if __name__ == "__main__":
    main()
