"""``PYTHONPATH=src python -m benchmarks.harness [--seed N] [--selfcheck]``

Runs the whole benchmark by hand: every workload's verify repetition,
then the untraced repetitions interleaved round-robin across workloads (a
noisy minute is shared), then each workload's traced repetitions and
ledger cells.  Prints every end-to-end metric as ``<metric>@<workload>``
with unit, median, quartiles, min and n, then the per-layer ledger, and
exits non-zero on any oracle, invariant or determinism failure.

``--selfcheck`` runs two full sets back to back and compares them against
the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict

from . import catalog, driver
from .summarize import worse_by


def run_set(seed: int) -> Dict[str, driver.WorkloadRun]:
    runs = {name: driver.WorkloadRun(name, seed)
            for name in catalog.WORKLOADS}
    for run in runs.values():
        run.verify_rep()
    for index in range(max(catalog.REPS.values())):
        for name, run in runs.items():
            if index < catalog.REPS[name]:
                run.timed_rep()
    for run in runs.values():
        run.traced_reps()
        for _round in range(catalog.LEDGER_REPS):
            run.ledger_round()
    return runs


def print_set(runs: Dict[str, driver.WorkloadRun]) -> Dict[str, dict]:
    """Print one set; returns ``{"<metric>@<workload>": row}`` for both
    kinds of metric (per-layer rows carry only ``median``)."""
    # fold everything first: a failed check must print no numbers
    end_to_end = {name: run.end_to_end() for name, run in runs.items()}
    layer_values = {name: run.per_layer() for name, run in runs.items()}
    table = {}
    for name, run in runs.items():
        print(f"\n== {name}: end to end (tracer off) ==")
        print(f"{'metric':<42}{'unit':<11}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'min':>14}{'n':>4}")
        for metric, row in end_to_end[name].items():
            unit = catalog.END_TO_END_BY_NAME[metric].unit
            median = f"{row['median']:.6g}"
            if row["unresolved"]:
                median = f"unresolved({median})"
            print(f"{metric + '@' + name:<42}{unit:<11}{median:>14}"
                  f"{row['q1']:>14.6g}{row['q3']:>14.6g}"
                  f"{row['min']:>14.6g}{row['n']:>4}")
            table[f"{metric}@{name}"] = row
        attempted, failed = run.operations()
        print(f"{'failed / attempted':<42}{failed} / {attempted}")
    print("\n== per layer (one traced repetition + ledger, "
          f"{catalog.LEDGER_REPS} rounds) ==")
    print(f"{'metric':<40}{'unit':<10}"
          + "".join(f"{name[:20]:>22}" for name in runs))
    for metric in catalog.PER_LAYER:
        print(f"{metric.name:<40}{metric.unit:<10}" + "".join(
            f"{layer_values[name][metric.name]:>22.6g}" for name in runs))
        for name in runs:
            table[f"{metric.name}@{name}"] = {
                "median": layer_values[name][metric.name]}
    return table


def selfcheck(first: Dict[str, dict], second: Dict[str, dict]) -> int:
    """Compare two sets of the same code: host metrics within their bound,
    simulated metrics and exact counts identical."""
    exact = {m.name for m in catalog.PER_LAYER if m.exact}
    failures = 0
    print(f"\n== selfcheck ==\n{'metric@workload':<52}{'set A':>14}"
          f"{'set B':>14}{'diff':>9}  verdict")
    for key in first:
        metric = key.split("@")[0]
        a, b = first[key]["median"], second[key]["median"]
        spec = catalog.END_TO_END_BY_NAME.get(metric)
        if spec is not None and spec.kind == "host":
            diff = max(worse_by(a, b, spec.better),
                       worse_by(b, a, spec.better))
            ok = diff <= spec.bound
        elif spec is not None or metric in exact:
            diff = 0.0 if a == b else float("inf")
            ok = a == b
        else:
            continue  # per-layer host times carry no bound
        failures += not ok
        print(f"{key:<52}{a:>14.6g}{b:>14.6g}{diff:>9.2%}  "
              f"{'PASS' if ok else 'FAIL'}")
    print(f"selfcheck: {failures} FAIL" if failures else "selfcheck: PASS")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42,
                        help="the only source of workload randomness")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and compare them against the "
                             "benchmark's bounds")
    args = parser.parse_args(argv)
    try:
        fixture_sha = driver.check_checkout()
        prov = driver.provenance(args.seed, fixture_sha)
        print(json.dumps({"provenance": prov, "reps": catalog.REPS}))
        tables = []
        for label in ("A", "B") if args.selfcheck else ("A",):
            runs = run_set(args.seed)
            tables.append(print_set(runs))
            for name, run in runs.items():
                run.dump(os.path.join(
                    driver.OUT, f"set{label}-{name}-seed{args.seed}.json"),
                    prov)
    except driver.BenchmarkFailure as exc:
        print(f"BENCHMARK FAILED: {exc}", file=sys.stderr)
        return 1
    if args.selfcheck:
        return selfcheck(*tables)
    return 0


if __name__ == "__main__":
    sys.exit(main())
