#!/usr/bin/env python3
"""The benchmark command of ``BENCHMARK.json``.

``python3 benchmarks/harness/run.py --workload W --seed N --seconds S
--trace 0|1`` measures one workload and prints, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  Any oracle, invariant or determinism failure
exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))

from benchmarks.harness import catalog, driver          # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        fixture_sha = driver.check_checkout()
        prov = driver.provenance(args.seed, fixture_sha)
        run = driver.WorkloadRun(args.workload, args.seed)
        if args.trace:
            driver.measure_layers(run, args.seconds)
            units = {m.name: m.unit for m in catalog.PER_LAYER}
            values = run.per_layer()
        else:
            driver.measure_end_to_end(run, args.seconds)
            units = {m.name: m.unit for m in catalog.END_TO_END}
            summary = run.end_to_end()
            values = {name: row["median"] for name, row in summary.items()}
        run.dump(os.path.join(
            driver.OUT, f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json"), prov)
    except driver.BenchmarkFailure as exc:
        print(f"BENCHMARK FAILED: {exc}", file=sys.stderr)
        return 1
    attempted, failed = run.operations()
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
