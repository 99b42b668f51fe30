"""TPC-C workload tests: loader, transaction logic, invariants, mix."""

import hashlib
import json
import random
from collections import Counter

import pytest

from repro.config import SimConfig
from repro.bench.runner import run_protocol
from repro.cc import SiloOCC, TwoPL, IC3
from repro.core.validation import storage_residue
from repro.storage.access_list import EMPTY_ACCESS_LIST
from repro.workloads.tpcc import TPCCScale, TPCCWorkload, make_tpcc_factory, tpcc_spec
from repro.workloads.tpcc import loader, schema, transactions


@pytest.fixture(scope="module")
def small_scale():
    return TPCCScale(n_warehouses=2, districts_per_warehouse=3,
                     customers_per_district=20, n_items=50,
                     initial_orders_per_district=10)


@pytest.fixture(scope="module")
def loaded(small_scale):
    return loader.load_tpcc(small_scale, seed=1)


class TestSpec:
    def test_state_count(self):
        spec = tpcc_spec()
        assert spec.n_states == 8 + 4 + 5  # NewOrder + Payment + Delivery

    def test_loops_declared(self):
        spec = tpcc_spec()
        neworder = spec.type_of(spec.type_index("neworder"))
        assert neworder.barriers[schema.NO_READ_ITEM] == schema.NO_UPDATE_STOCK
        delivery = spec.type_of(spec.type_index("delivery"))
        assert all(b == 4 for b in delivery.barriers)


class TestLoader:
    def test_cardinalities(self, loaded, small_scale):
        assert len(loaded.table(schema.WAREHOUSE)) == 2
        assert len(loaded.table(schema.DISTRICT)) == 6
        assert len(loaded.table(schema.CUSTOMER)) == 2 * 3 * 20
        assert len(loaded.table(schema.ITEM)) == 50
        assert len(loaded.table(schema.STOCK)) == 2 * 50
        assert len(loaded.table(schema.ORDER)) == 6 * 10

    def test_next_o_id_consistent(self, loaded, small_scale):
        for w in (1, 2):
            for d in (1, 2, 3):
                district = loaded.committed_value(schema.DISTRICT, (w, d))
                assert district["d_next_o_id"] == 11

    def test_some_orders_undelivered(self, loaded):
        assert len(loaded.table(schema.NEW_ORDER)) > 0
        for key in loaded.table(schema.NEW_ORDER).keys():
            order = loaded.committed_value(schema.ORDER, key)
            assert order["o_carrier_id"] is None

    def test_order_lines_match_counts(self, loaded):
        for key in loaded.table(schema.ORDER).keys():
            order = loaded.committed_value(schema.ORDER, key)
            w, d, o = key
            lines = list(loaded.table(schema.ORDER_LINE).scan_committed(
                (w, d, o, 0), (w, d, o + 1, 0)))
            assert len(lines) == order["o_ol_cnt"]

    def test_fresh_database_satisfies_invariants(self, small_scale):
        workload = TPCCWorkload(scale=small_scale, seed=1)
        workload.build_database()
        assert workload.check_invariants() == []


def order_line_problems_by_range_scan(workload):
    """The order-line invariant as one ORDER_LINE range scan per order:
    the reference the one-walk check must reproduce string for string."""
    problems = []
    order_table = workload.db.table(schema.ORDER)
    line_table = workload.db.table(schema.ORDER_LINE)
    for key in order_table.keys():
        order = order_table.committed_value(key)
        w_id, d_id, o_id = key
        lines = list(line_table.scan_committed(
            (w_id, d_id, o_id, 0), (w_id, d_id, o_id + 1, 0)))
        if len(lines) != order["o_ol_cnt"]:
            problems.append(f"order {key}: {len(lines)} lines, o_ol_cnt="
                            f"{order['o_ol_cnt']}")
            continue
        if order["o_carrier_id"] is not None:
            undated = [k for k, record in lines
                       if record.value["ol_delivery_d"] is None]
            if undated:
                problems.append(
                    f"delivered order {key} has undated lines {undated}")
    return problems


class TestOrderLineInvariant:
    @pytest.fixture
    def workload(self, small_scale):
        workload = TPCCWorkload(scale=small_scale, seed=1)
        workload.build_database()
        return workload

    def test_four_corruptions_give_the_range_scans_problems(self, workload):
        db = workload.db
        orders = db.table(schema.ORDER)
        lines = db.table(schema.ORDER_LINE)
        delivered = [key for key in orders.keys()
                     if orders.committed_value(key)["o_carrier_id"]
                     is not None]
        missing, extra, recount, undated = (delivered[-1], (1, 2, 4),
                                            (2, 1, 1), delivered[0])
        lines_before = orders.committed_value(missing)["o_ol_cnt"]
        recount_lines = orders.committed_value(recount)["o_ol_cnt"]
        lines.get_record(missing + (2,)).value = None
        count = orders.committed_value(extra)["o_ol_cnt"]
        db.load(schema.ORDER_LINE, extra + (count + 1,),
                dict(lines.committed_value(extra + (1,))))
        orders.get_record(recount).value = dict(
            orders.committed_value(recount), o_ol_cnt=99)
        line = lines.get_record(undated + (3,))
        line.value = dict(line.value, ol_delivery_d=None)
        problems = workload._check_order_lines()
        assert problems == order_line_problems_by_range_scan(workload)
        assert sorted(problems) == sorted([
            f"order {missing}: {lines_before - 1} lines, "
            f"o_ol_cnt={lines_before}",
            f"order {extra}: {count + 1} lines, o_ol_cnt={count}",
            f"order {recount}: {recount_lines} lines, o_ol_cnt=99",
            f"delivered order {undated} has undated lines "
            f"[{undated + (3,)}]"])

    def test_a_clean_database_has_no_problems(self, workload):
        assert workload._check_order_lines() == [] == \
            order_line_problems_by_range_scan(workload)


def snapshot_digest(db):
    """sha256 of a canonical JSON serialisation of ``db.snapshot()``:
    tables by name, rows by key, each row ``[key, vid, value]`` with the
    value's fields sorted.  Unlike a pickle, it does not depend on which
    row values happen to share string objects."""
    tables = [[name, [[list(key), list(vid), value]
                      for key, (vid, value) in rows.items()]]
              for name, rows in db.snapshot().items()]
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestLoaderGolden:
    """The loaded state is pinned byte for byte: every draw, in order, and
    every initial version id, allocated interleaved across tables.  The
    digests were recorded before the loader was last optimised; a change
    here means the population (and every seeded run on it) changed."""

    @pytest.mark.parametrize("n_warehouses, seed, digest", [
        (1, 0, "e5825749ccea6753114e833cab94b38efc2b6db2e3bdd0dafd289d99c65f04da"),
        (4, 7, "2501f50c2482c744db8ab2b3f1a2b29ca02f1227fc9acae8bbd5c98095181358"),
    ])
    def test_snapshot_digest(self, n_warehouses, seed, digest):
        db = loader.load_tpcc(TPCCScale(n_warehouses=n_warehouses), seed=seed)
        assert snapshot_digest(db) == digest


class TestGenerators:
    def test_neworder_inputs_in_range(self, small_scale):
        rng = random.Random(1)
        for _ in range(50):
            inputs = transactions.generate_neworder(rng, small_scale, 1, 0)
            assert 1 <= inputs.d_id <= 3
            assert 1 <= inputs.c_id <= 20
            assert 5 <= len(inputs.items) <= 15
            for i_id, supply_w, qty in inputs.items:
                assert 1 <= i_id <= 50
                assert supply_w in (1, 2)
                assert 1 <= qty <= 10
            # item ids are distinct within an order
            assert len({i for i, _, _ in inputs.items}) == len(inputs.items)

    def test_payment_remote_customer_possible(self, small_scale):
        rng = random.Random(1)
        remotes = sum(
            1 for _ in range(500)
            if transactions.generate_payment(rng, small_scale, 1, 1).c_w_id != 1)
        assert 0 < remotes < 200  # ~15%

    def test_single_warehouse_never_remote(self):
        scale = TPCCScale(n_warehouses=1, customers_per_district=20,
                          n_items=50)
        rng = random.Random(1)
        for n in range(100):
            assert transactions.generate_payment(rng, scale, 1, n).c_w_id == 1


def run_tpcc(cc, scale=None, n_workers=4, duration=4000.0, seed=2, mix=None,
             callbacks=()):
    """Run ``cc`` on a 1-warehouse TPC-C; ``callbacks`` are (time,
    fn(workload)) pairs."""
    kwargs = {"n_warehouses": 1, "seed": seed}
    if scale is not None:
        kwargs["scale"] = scale
    if mix is not None:
        kwargs["mix"] = mix
    holder = {}

    def factory():
        holder["w"] = make_tpcc_factory(**kwargs)()
        return holder["w"]

    config = SimConfig(n_workers=n_workers, duration=duration, seed=seed)
    result = run_protocol(factory, cc, config, callbacks=[
        (time, lambda _, fn=fn: fn(holder["w"])) for time, fn in callbacks])
    return holder["w"], result


def _records(db):
    return [record for name in db.table_names()
            for record in db.table(name).records()]


class TestLazyAccessLists:
    def test_unpublished_rows_keep_the_sentinel(self):
        """A row owns an access list only while in-flight entries sit in
        it.  IC3 publishes every read and write, so mid-run some rows own
        a list; every row holding no entry shares the frozen sentinel, at
        any instant and after the run, and the lists that exist are
        distinct and non-empty."""
        mid_run = []

        def look(workload):
            own = [r.access_list for r in _records(workload.db)
                   if r.access_list is not EMPTY_ACCESS_LIST]
            mid_run.append((len(own), len(set(map(id, own))),
                            min(map(len, own), default=None)))

        workload, result = run_tpcc(
            IC3(), callbacks=[(t, look) for t in (500.0, 1500.0, 2500.0,
                                                   3500.0)])
        assert result.stats.total_commits > 0
        assert any(n_own for n_own, _, _ in mid_run), \
            "IC3 published to no row"
        for n_own, n_distinct, shortest in mid_run:
            assert n_distinct == n_own
            assert shortest is None or shortest > 0
        db = workload.db
        own = [r for r in _records(db)
               if r.access_list is not EMPTY_ACCESS_LIST]
        # after the run, a row that holds no entry shares the sentinel
        assert all(len(r.access_list) > 0 for r in own)
        assert len({id(r.access_list) for r in own}) == len(own)
        assert len(EMPTY_ACCESS_LIST) == 0
        assert storage_residue(db) == []


class TestTransactionEffects:
    def test_neworder_advances_district_and_inserts(self):
        workload, result = run_tpcc(SiloOCC(), mix=(("neworder", 1.0),))
        assert result.stats.total_commits > 0
        assert result.invariant_violations == []
        db = workload.db
        # orders grew beyond the initial population
        assert len(db.table(schema.ORDER)) > \
            30 * workload.scale.districts_per_warehouse

    def test_payment_moves_money(self):
        workload, result = run_tpcc(SiloOCC(), mix=(("payment", 1.0),))
        assert result.stats.total_commits > 0
        db = workload.db
        warehouse = db.committed_value(schema.WAREHOUSE, (1,))
        assert warehouse["w_ytd"] > loader.INITIAL_W_YTD
        assert result.invariant_violations == []
        assert len(db.table(schema.HISTORY)) == \
            result.stats.commits["payment"] + result.stats.warmup_commits

    def test_delivery_consumes_new_orders(self):
        workload, result = run_tpcc(SiloOCC(), n_workers=1,
                                    mix=(("delivery", 1.0),),
                                    duration=6000.0)
        assert result.stats.total_commits > 0
        db = workload.db
        assert len(db.table(schema.NEW_ORDER)) == 0  # all delivered
        assert result.invariant_violations == []

    @pytest.mark.parametrize("cc_factory", [SiloOCC, TwoPL, IC3])
    def test_full_mix_keeps_invariants(self, cc_factory):
        workload, result = run_tpcc(cc_factory(), n_workers=6,
                                    duration=5000.0)
        assert result.stats.total_commits > 0
        assert result.invariant_violations == []

    def test_commit_mix_tracks_specified_ratio(self):
        """§7.1: retry-until-commit keeps the committed ratio at the mix."""
        _, result = run_tpcc(SiloOCC(), n_workers=8, duration=8000.0)
        commits = result.stats.commits
        total = sum(commits.values())
        assert total > 100
        assert commits["neworder"] / total == pytest.approx(45 / 92, abs=0.08)
        assert commits["payment"] / total == pytest.approx(43 / 92, abs=0.08)


class TestWorkerAffinity:
    def test_home_warehouses_round_robin(self):
        workload = TPCCWorkload(scale=TPCCScale(n_warehouses=4,
                                                customers_per_district=20,
                                                n_items=50))
        homes = [workload.home_warehouse(w) for w in range(8)]
        assert homes == [1, 2, 3, 4, 1, 2, 3, 4]
