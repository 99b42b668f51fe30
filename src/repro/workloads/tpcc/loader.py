"""TPC-C initial population.

Loads warehouses, districts, customers, items, stock and a tail of initial
orders (a fraction of which are still undelivered and sit in NEW_ORDER so
Delivery has work from the start).  Monetary fields are integer cents to
keep the consistency invariants exact.
"""

from __future__ import annotations

import random

from ...rng import last_name_syllables, spawn_rng
from ...storage.database import Database
from ...storage.record import VersionIdAllocator
from . import schema
from .schema import TPCCScale

#: the 1 000 customer last names, built once: customers with the same
#: ``c_last`` share one string object
LAST_NAMES = tuple(map(last_name_syllables, range(1000)))

#: initial balances in cents (TPC-C clause 4.3.3)
INITIAL_W_YTD = 30_000_000          # $300,000.00
INITIAL_D_YTD = 3_000_000           # $30,000.00
INITIAL_C_BALANCE = -1_000          # -$10.00
INITIAL_C_YTD_PAYMENT = 1_000       # $10.00


def load_tpcc(scale: TPCCScale, seed: int = 0) -> Database:
    """Build and populate a fresh TPC-C database.

    Every row goes through its table's :meth:`~repro.storage.table.Table.load`,
    bound once per table, so initial version ids are allocated in load
    order, interleaved across tables.  ``lo + randbelow(hi - lo + 1)`` is
    what ``rng.randint(lo, hi)`` computes on CPython 3.9-3.12, without
    its argument checks: the draws, and so the loaded state, are those of
    ``randint`` (the loader goldens in the tests pin that state).
    """
    rng = spawn_rng(seed, 0x7C)  # deterministic per seed
    db = Database(schema.ALL_TABLES)
    loads = {name: db.table(name).load for name in schema.ALL_TABLES}
    _load_items(loads, db.allocator, scale, rng)
    for w_id in range(1, scale.n_warehouses + 1):
        _load_warehouse(loads, db.allocator, scale, w_id, rng)
    return db


def _load_items(loads: dict, alloc: VersionIdAllocator, scale: TPCCScale,
                rng: random.Random) -> None:
    load_item = loads[schema.ITEM]
    randbelow, random_ = rng._randbelow, rng.random
    for i_id in range(1, scale.n_items + 1):
        load_item((i_id,), {
            "i_name": f"item-{i_id}",
            "i_price": 100 + randbelow(9_901),
            "i_data": "original" if random_() < 0.1 else "generic",
        }, alloc)


def _load_warehouse(loads: dict, alloc: VersionIdAllocator, scale: TPCCScale,
                    w_id: int, rng: random.Random) -> None:
    randbelow = rng._randbelow
    loads[schema.WAREHOUSE]((w_id,), {
        "w_name": f"wh-{w_id}",
        "w_tax": randbelow(2001),   # basis points (0 .. 20.00%)
        "w_ytd": INITIAL_W_YTD,
    }, alloc)
    load_stock = loads[schema.STOCK]
    for i_id in range(1, scale.n_items + 1):
        load_stock((w_id, i_id), {
            "s_quantity": 10 + randbelow(91),
            "s_ytd": 0,
            "s_order_cnt": 0,
            "s_remote_cnt": 0,
        }, alloc)
    for d_id in range(1, scale.districts_per_warehouse + 1):
        _load_district(loads, alloc, scale, w_id, d_id, rng)


def _load_district(loads: dict, alloc: VersionIdAllocator, scale: TPCCScale,
                   w_id: int, d_id: int, rng: random.Random) -> None:
    randbelow, random_ = rng._randbelow, rng.random
    n_orders = scale.initial_orders_per_district
    n_customers = scale.customers_per_district
    n_items = scale.n_items
    loads[schema.DISTRICT]((w_id, d_id), {
        "d_name": f"district-{w_id}-{d_id}",
        "d_tax": randbelow(2001),
        "d_ytd": INITIAL_D_YTD,
        "d_next_o_id": n_orders + 1,
    }, alloc)
    load_customer = loads[schema.CUSTOMER]
    for c_id in range(1, n_customers + 1):
        load_customer((w_id, d_id, c_id), {
            "c_last": LAST_NAMES[(c_id - 1) % 1000],
            "c_credit": "BC" if random_() < 0.1 else "GC",
            "c_discount": randbelow(5001),
            "c_balance": INITIAL_C_BALANCE,
            "c_ytd_payment": INITIAL_C_YTD_PAYMENT,
            "c_payment_cnt": 1,
            "c_delivery_cnt": 0,
        }, alloc)
    load_order = loads[schema.ORDER]
    load_new_order = loads[schema.NEW_ORDER]
    load_order_line = loads[schema.ORDER_LINE]
    first_undelivered = int(n_orders * (1.0 - scale.undelivered_fraction)) + 1
    for o_id in range(1, n_orders + 1):
        c_id = 1 + randbelow(n_customers)
        ol_cnt = 5 + randbelow(11)
        delivered = o_id < first_undelivered
        load_order((w_id, d_id, o_id), {
            "o_c_id": c_id,
            "o_entry_d": 0,
            "o_carrier_id": 1 + randbelow(10) if delivered else None,
            "o_ol_cnt": ol_cnt,
        }, alloc)
        if not delivered:
            load_new_order((w_id, d_id, o_id), {"placeholder": 1}, alloc)
        ol_delivery_d = 0 if delivered else None
        for ol_number in range(1, ol_cnt + 1):
            i_id = 1 + randbelow(n_items)
            load_order_line((w_id, d_id, o_id, ol_number), {
                "ol_i_id": i_id,
                "ol_supply_w_id": w_id,
                "ol_quantity": 1 + randbelow(10),
                "ol_amount": 0,  # initial orders carry no amount (clause 4.3.3)
                "ol_delivery_d": ol_delivery_d,
            }, alloc)
