"""Unit tests of the harness's own arithmetic.

Run by explicit path (``testpaths`` keeps them out of tier-1)::

    python -m pytest benchmarks/harness/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import re
from collections import namedtuple

import pytest

from benchmarks.harness import catalog, cells, layers, spans as sp
from benchmarks.harness.floor import floor_events_per_s
from benchmarks.harness.profiling import (LEAF_BUCKETS, bucket_of,
                                          bucket_profile, module_of)
from benchmarks.harness.summarize import (highest_supported_percentile,
                                          quartiles, spread, summarize,
                                          worse_by)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# ---------------------------------------------------------------------- #
# spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _tree():
    """rep[0..10] > (a[1..4] > b[2..3]), a[5..7], c[7..9]"""
    clock = FakeClock()
    rec = sp.SpanRecorder(clock)
    with rec.span("rep"):
        clock.now = 1.0
        with rec.span("a"):
            clock.now = 2.0
            with rec.span("b"):
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with rec.span("a"):
            clock.now = 7.0
        with rec.span("c"):
            clock.now = 9.0
        clock.now = 10.0
    return rec.rows()


def test_self_time_is_duration_minus_children():
    rows = _tree()
    assert [r["name"] for r in rows] == ["rep", "a", "b", "a", "c"]
    assert sp.self_times(rows) == [10 - 3 - 2 - 2, 3 - 1, 1, 2, 2]
    # the self times of a tree add up to its root
    assert sum(sp.self_times(rows)) == rows[0]["end"] - rows[0]["start"]
    assert sp.tree_residual(rows) == 0.0


def test_sibling_spans_total_and_self_total():
    rows = _tree()
    assert sp.durations(rows, "a") == [3.0, 2.0]
    assert sp.total(rows, "a") == 5.0
    assert sp.self_total(rows, "a") == 4.0   # the first a holds b
    assert layers.total_under(rows, "b", "a") == 1.0
    assert layers.total_under(rows, "b", "rep") == 1.0
    assert layers.total_under(rows, "c", "a") == 0.0


def test_child_outside_parent_is_a_residual():
    rows = [{"name": "p", "start": 0.0, "end": 1.0, "parent": None},
            {"name": "c", "start": 0.0, "end": 1.5, "parent": 0}]
    assert sp.tree_residual(rows) == pytest.approx(0.5)


def test_wrap_spans_the_call_and_reports_the_result():
    class Thing:
        def work(self, x):
            return x * 2

    rec = sp.SpanRecorder(FakeClock())
    seen = []
    rec.wrap(Thing, "work", "layer.work",
             on_result=lambda args, result: seen.append(result))
    assert Thing().work(21) == 42
    assert seen == [42]
    assert [r["name"] for r in rec.rows()] == ["layer.work"]


# ---------------------------------------------------------------------- #
# cProfile bucketing

Entry = namedtuple("Entry", "code inlinetime callcount")
Code = namedtuple("Code", "co_filename")


def test_module_of_and_bucket_of():
    src = "/x/checkout/src/repro"
    assert module_of(f"{src}/sim/scheduler.py") == ("sim", "scheduler")
    assert module_of(f"{src}/rng.py") == ("", "")
    assert module_of("/usr/lib/python3.11/heapq.py") == ("", "")
    assert bucket_of(f"{src}/sim/events.py") == "sim.scheduler"
    assert bucket_of(f"{src}/core/context.py") == "core.other"
    assert bucket_of(f"{src}/cluster/durability.py") == "cluster"
    assert bucket_of(f"{src}/workloads/tpcc/workload.py") \
        == "workloads.txn_logic"
    assert bucket_of("~") == "sim.python_other"
    # a checkout that itself lives under a directory called "repro"
    assert bucket_of("/home/repro/ck/src/repro/storage/table.py") == "storage"
    assert bucket_of("/home/repro/ck/benchmarks/harness/child.py") \
        == "sim.python_other"


def test_profile_shares_sum_to_one_and_count_calls():
    src = "/ck/src/repro"
    entries = [
        Entry(Code(f"{src}/sim/scheduler.py"), 2.0, 10),
        Entry(Code(f"{src}/core/executor.py"), 4.0, 30),
        Entry(Code(f"{src}/storage/access_list.py"), 1.0, 5),
        Entry(Code(f"{src}/storage/table.py"), 1.0, 5),
        Entry(Code(f"{src}/cluster/network.py"), 1.0, 2),
        Entry("<built-in method _heapq.heappop>", 1.0, 8),
    ]
    result = bucket_profile(entries)
    shares = result["self_frac"]
    assert sum(shares[b] for b in LEAF_BUCKETS) == pytest.approx(1.0)
    assert shares["core.executor"] == pytest.approx(0.4)
    assert shares["storage"] == pytest.approx(0.2)
    assert shares["storage.access_list"] == pytest.approx(0.1)   # sub-share
    assert shares["cluster.network"] == pytest.approx(0.1)
    assert shares["sim.python_other"] == pytest.approx(0.1)
    assert result["calls"]["storage"] == 10
    assert result["total_calls"] == 60


# ---------------------------------------------------------------------- #
# statistics


def test_highest_percentile_with_ten_samples_beyond():
    assert highest_supported_percentile(19) is None
    assert highest_supported_percentile(20) == 0.50
    assert highest_supported_percentile(199) == 0.90
    assert highest_supported_percentile(200) == 0.95
    assert highest_supported_percentile(999) == 0.95
    assert highest_supported_percentile(1000) == 0.99
    assert highest_supported_percentile(2000) == 0.99
    assert highest_supported_percentile(10_000) == 0.999


def test_quartiles_match_the_driver():
    import statistics
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_unresolved_when_spread_exceeds_bound():
    steady = summarize([1.00, 1.01, 0.99, 1.00, 1.02], bound=0.10)
    assert steady["median"] == 1.00 and steady["n"] == 5
    assert not steady["unresolved"]
    noisy = summarize([1.0, 1.6, 0.7, 1.0, 1.4], bound=0.10)
    assert noisy["unresolved"] and noisy["spread"] > 0.10
    assert spread([5.0, 5.0, 5.0]) == 0.0
    assert not summarize([1.0, 2.0, 3.0])["unresolved"]   # no bound given


def test_worse_by_respects_direction():
    assert worse_by(10.0, 11.0, "lower") == pytest.approx(0.10)
    assert worse_by(10.0, 11.0, "higher") == pytest.approx(-0.10)
    assert worse_by(10.0, 9.0, "higher") == pytest.approx(0.10)


def test_floor_loop_reports_a_rate():
    assert floor_events_per_s(20_000, 16, 1) > 0


# ---------------------------------------------------------------------- #
# ledger consistency


def _record(tps, sha="s"):
    return {"sim": {"tps": tps, "summary_sha": sha}}


def test_ledger_rejects_obs_cells_that_move_the_simulation():
    ledger = {f"O{i}": [_record(100.0)] for i in range(5)}
    layers.check_ledger(ledger, obs_run_tps=100.0)
    with pytest.raises(layers.LedgerInconsistent):
        layers.check_ledger(ledger, obs_run_tps=101.0)
    ledger["O2"] = [_record(99.0)]
    with pytest.raises(layers.LedgerInconsistent):
        layers.check_ledger(ledger, obs_run_tps=None)
    with pytest.raises(layers.LedgerInconsistent):
        layers.check_ledger({"L0": [_record(1.0, "a"), _record(1.0, "b")]},
                            None)


# ---------------------------------------------------------------------- #
# names, and BENCHMARK.json

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed_and_unique():
    names = (list(catalog.WORKLOADS) + catalog.END_TO_END_NAMES
             + catalog.PER_LAYER_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for why in catalog.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_contract_limits():
    assert 2 <= len(catalog.WORKLOADS) <= 8
    assert 1 <= len(catalog.END_TO_END) <= 16
    assert 1 <= len(catalog.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in catalog.END_TO_END)
    setup = catalog.END_TO_END_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in catalog.END_TO_END)
    assert 1 <= catalog.RUN_SECONDS <= 60
    assert set(catalog.WORKLOADS) == set(cells.WORKLOADS) \
        == set(cells.LEDGER_OF) == set(catalog.REPS)
    assert all(reps >= catalog.MIN_REPS for reps in catalog.REPS.values())


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        text = fh.read()
    assert len(text.encode()) <= 64 * 1024
    document = json.loads(text)
    assert document == catalog.benchmark_json()
    assert list(document) == ["command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"]
    for path in document["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))
    # the command names nothing outside `paths`
    script = document["command"][1]
    assert any(script.startswith(path + "/") for path in document["paths"])


def test_every_share_bucket_has_a_catalogue_name():
    for bucket in LEAF_BUCKETS:
        assert f"{bucket}.self_frac" in catalog.PER_LAYER_NAMES
