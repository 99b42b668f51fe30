"""The executable TPC-C workload: mix sampling, home warehouses, invariants.

Workers are bound to home warehouses round-robin, as TPC-C terminals are:
with 48 workers and 48 warehouses every worker owns its local warehouse
(the low-contention end of Fig 4b); with 1 warehouse all workers collide
on it (the high-contention end of Fig 4a).
"""

from __future__ import annotations

import itertools
import random
from operator import itemgetter
from typing import List, Optional

from ...storage.database import Database
from ...core.protocol import TxnInvocation
from ..base import MixEntry, Workload
from . import loader, schema, transactions
from .schema import DEFAULT_MIX, TPCCScale, tpcc_spec

#: an ORDER_LINE key's (w_id, d_id, o_id): the ORDER key it belongs to
_ORDER_OF_LINE = itemgetter(0, 1, 2)


class TPCCWorkload(Workload):
    """TPC-C with the three read-write transaction types."""

    name = "tpcc"

    def __init__(self, scale: Optional[TPCCScale] = None, seed: int = 0,
                 mix=DEFAULT_MIX) -> None:
        spec = tpcc_spec()
        super().__init__(spec, [MixEntry(name, weight) for name, weight in mix])
        self.scale = scale or TPCCScale()
        self.seed = seed
        self._history_ids = itertools.count(1)
        self._clock = itertools.count(1)  # logical order-entry timestamps

    # ------------------------------------------------------------------ #

    def build_database(self) -> Database:
        self.db = loader.load_tpcc(self.scale, seed=self.seed)
        return self.db

    def home_warehouse(self, worker_id: int) -> int:
        return worker_id % self.scale.n_warehouses + 1

    def make_invocation(self, type_name: str, rng: random.Random,
                        worker_id: int) -> TxnInvocation:
        home_w = self.home_warehouse(worker_id)
        type_index = self.spec.type_index(type_name)
        if type_name == schema.NEWORDER:
            inputs = transactions.generate_neworder(rng, self.scale, home_w,
                                                    next(self._clock))
            return TxnInvocation(
                type_index, type_name,
                lambda: transactions.neworder_program(inputs))
        if type_name == schema.PAYMENT:
            inputs = transactions.generate_payment(rng, self.scale, home_w,
                                                   next(self._history_ids))
            return TxnInvocation(
                type_index, type_name,
                lambda: transactions.payment_program(inputs))
        if type_name == schema.DELIVERY:
            inputs = transactions.generate_delivery(rng, self.scale, home_w,
                                                    next(self._clock))
            districts = self.scale.districts_per_warehouse
            return TxnInvocation(
                type_index, type_name,
                lambda: transactions.delivery_program(inputs, districts))
        raise AssertionError(f"unknown TPC-C type {type_name!r}")

    # ------------------------------------------------------------------ #
    # consistency invariants (TPC-C clause 3.3 subset)

    def check_invariants(self) -> List[str]:
        problems: List[str] = []
        if self.db is None:
            return problems
        problems.extend(self._check_ytd())
        problems.extend(self._check_order_ids())
        problems.extend(self._check_order_lines())
        return problems

    def _check_ytd(self) -> List[str]:
        """Clause 3.3.2.1: W_YTD == sum(D_YTD) for every warehouse."""
        problems = []
        for w_id in range(1, self.scale.n_warehouses + 1):
            warehouse = self.db.committed_value(schema.WAREHOUSE, (w_id,))
            district_sum = sum(
                self.db.committed_value(schema.DISTRICT, (w_id, d_id))["d_ytd"]
                for d_id in range(1, self.scale.districts_per_warehouse + 1))
            expected = (warehouse["w_ytd"] - loader.INITIAL_W_YTD
                        + self.scale.districts_per_warehouse * loader.INITIAL_D_YTD)
            if district_sum != expected:
                problems.append(
                    f"warehouse {w_id}: sum(d_ytd)={district_sum} but "
                    f"w_ytd implies {expected}")
        return problems

    def _check_order_ids(self) -> List[str]:
        """Clause 3.3.2.2/3: d_next_o_id - 1 == max order id per district,
        and every NEW_ORDER row has a matching ORDER row."""
        problems = []
        order_table = self.db.table(schema.ORDER)
        new_order_table = self.db.table(schema.NEW_ORDER)
        for w_id in range(1, self.scale.n_warehouses + 1):
            for d_id in range(1, self.scale.districts_per_warehouse + 1):
                district = self.db.committed_value(schema.DISTRICT, (w_id, d_id))
                next_o_id = district["d_next_o_id"]
                max_order = 0
                for key in order_table.keys((w_id, d_id, 0),
                                            (w_id, d_id + 1, 0)):
                    max_order = max(max_order, key[2])
                if max_order != next_o_id - 1:
                    problems.append(
                        f"district ({w_id},{d_id}): max o_id={max_order}, "
                        f"d_next_o_id={next_o_id}")
                for key in new_order_table.keys((w_id, d_id, 0),
                                                (w_id, d_id + 1, 0)):
                    if key not in order_table:
                        problems.append(
                            f"NEW_ORDER {key} has no matching ORDER row")
        return problems

    def _check_order_lines(self) -> List[str]:
        """Every order has exactly o_ol_cnt order lines; delivered orders
        have delivery dates on all their lines.  One pass over ORDER_LINE
        counts each order's live lines and notes the orders with an
        undated one, instead of one range scan per order; only a delivered
        order with undated lines is scanned, to name them."""
        problems = []
        line_table = self.db.table(schema.ORDER_LINE)
        n_lines: dict = {}
        undated_orders = set()
        for line_key, value in line_table.items():
            order_key = _ORDER_OF_LINE(line_key)
            n_lines[order_key] = n_lines.get(order_key, 0) + 1
            if value["ol_delivery_d"] is None:
                undated_orders.add(order_key)
        order_table = self.db.table(schema.ORDER)
        for key in order_table.keys():
            order = order_table.committed_value(key)
            count = n_lines.get(key, 0)
            if count != order["o_ol_cnt"]:
                problems.append(
                    f"order {key}: {count} lines, o_ol_cnt="
                    f"{order['o_ol_cnt']}")
                continue
            if key in undated_orders and order["o_carrier_id"] is not None:
                w_id, d_id, o_id = key
                lines = line_table.keys((w_id, d_id, o_id, 0),
                                        (w_id, d_id, o_id + 1, 0))
                value_of = line_table.committed_value
                undated = [line for line in lines
                           if value_of(line)["ol_delivery_d"] is None]
                problems.append(
                    f"delivered order {key} has undated lines {undated}")
        return problems


def make_tpcc_factory(n_warehouses: int = 1, seed: int = 0,
                      scale: Optional[TPCCScale] = None, mix=DEFAULT_MIX):
    """Factory-of-workloads for the bench runner."""
    def factory() -> TPCCWorkload:
        actual = scale or TPCCScale(n_warehouses=n_warehouses)
        return TPCCWorkload(scale=actual, seed=seed, mix=mix)
    return factory
