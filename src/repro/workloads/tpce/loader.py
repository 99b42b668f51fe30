"""TPC-E initial population."""

from __future__ import annotations

import random

from ...rng import spawn_rng
from ...storage.database import Database
from . import schema
from .schema import TPCEScale

#: fixed dimension-table keys
CHARGE_KEY = (1,)
STATUS_KEY = ("CMPT",)
TRADE_TYPES = ("TMB", "TMS", "TLB", "TLS")


def _load(db: Database, table_name: str, key: tuple, value: dict) -> None:
    """Load one row, left raw until a transaction touches it
    (:meth:`Database.load` would also build its record)."""
    db.table(table_name).load(key, value, db.allocator)


def load_tpce(scale: TPCEScale, seed: int = 0) -> Database:
    rng = spawn_rng(seed, 0x7E)
    db = Database(schema.ALL_TABLES)
    _load_dimensions(db, scale, rng)
    _load_customers(db, scale, rng)
    _load_securities(db, scale, rng)
    _load_trades(db, scale, rng)
    return db


def _load_dimensions(db: Database, scale: TPCEScale, rng: random.Random) -> None:
    _load(db, schema.CHARGE, CHARGE_KEY, {"ch_chrg": 150})
    _load(db, schema.STATUS_TYPE, STATUS_KEY, {"st_name": "Completed"})
    for tt in TRADE_TYPES:
        _load(db, schema.TRADE_TYPE, (tt,), {
            "tt_is_sell": tt.endswith("S"),
            "tt_is_mrkt": tt.startswith("TM"),
        })
    _load(db, schema.EXCHANGE, ("NYSE",), {"ex_open": 930, "ex_close": 1600})
    for rate_id in range(1, 11):
        _load(db, schema.TAXRATE, (rate_id,), {"tx_rate": 100 + rate_id * 25})
        _load(db, schema.COMMISSION_RATE, (rate_id,),
                {"cr_rate": 10 + rate_id * 3})


def _load_customers(db: Database, scale: TPCEScale, rng: random.Random) -> None:
    for b_id in range(1, scale.n_brokers + 1):
        _load(db, schema.BROKER, (b_id,), {
            "b_name": f"broker-{b_id}",
            "b_num_trades": 0,
            "b_comm_total": 0,
        })
    for c_id in range(1, scale.n_customers + 1):
        _load(db, schema.CUSTOMER, (c_id,), {
            "c_tier": rng.randint(1, 3),
            "c_tax_id": rng.randint(1, 10),
        })
        for slot in range(scale.accounts_per_customer):
            ca_id = (c_id - 1) * scale.accounts_per_customer + slot + 1
            _load(db, schema.CUSTOMER_ACCOUNT, (ca_id,), {
                "ca_c_id": c_id,
                "ca_b_id": rng.randint(1, scale.n_brokers),
                "ca_bal": 1_000_000,  # cents
            })


def _load_securities(db: Database, scale: TPCEScale, rng: random.Random) -> None:
    for co_id in range(1, scale.n_companies + 1):
        _load(db, schema.COMPANY, (co_id,), {"co_name": f"company-{co_id}"})
    for s_id in range(1, scale.n_securities + 1):
        _load(db, schema.SECURITY, (s_id,), {
            "s_co_id": (s_id - 1) % scale.n_companies + 1,
            "s_num_out": 1_000_000,
            "s_volume": 0,
        })
        _load(db, schema.LAST_TRADE, (s_id,), {
            "lt_price": rng.randint(1000, 100_000),
            "lt_vol": 0,
        })


def _load_trades(db: Database, scale: TPCEScale, rng: random.Random) -> None:
    for t_id in range(1, scale.initial_trades + 1):
        ca_id = rng.randint(1, scale.n_accounts)
        s_id = rng.randint(1, scale.n_securities)
        _load(db, schema.TRADE, (t_id,), {
            "t_ca_id": ca_id,
            "t_s_id": s_id,
            "t_qty": rng.randint(100, 800),
            "t_price": rng.randint(1000, 100_000),
            "t_exec_name": "initial",
            "t_tt_id": rng.choice(TRADE_TYPES),
        })
        _load(db, schema.TRADE_HISTORY, (t_id, 0), {"th_st_id": "CMPT"})
        _load(db, schema.SETTLEMENT, (t_id,), {
            "se_amt": rng.randint(1000, 500_000),
            "se_cash_type": "margin" if rng.random() < 0.5 else "cash",
        })
        _load(db, schema.CASH_TRANSACTION, (t_id,), {
            "ct_amt": rng.randint(1000, 500_000),
            "ct_name": "initial",
        })
        # sprinkle some holdings so TRADE_ORDER finds existing positions
        if (ca_id, s_id) not in db.table(schema.HOLDING_SUMMARY):
            _load(db, schema.HOLDING_SUMMARY, (ca_id, s_id),
                    {"hs_qty": rng.randint(100, 1000)})
            _load(db, schema.HOLDING, (ca_id, s_id),
                    {"h_qty": rng.randint(100, 1000),
                     "h_price": rng.randint(1000, 100_000)})
