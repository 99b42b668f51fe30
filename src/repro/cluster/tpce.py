"""Cluster adapter for the TPC-E subset: the trade-family partitioner and
shard-local security / account / trade draws.

A module of its own so that the TPC-E workload package is imported only
by a run that partitions TPC-E; ``repro.cluster.workloads`` resolves
every name defined here as well.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Tuple

from ..errors import ConfigError
from ..core.protocol import TxnInvocation
from ..workloads.tpce import schema as tpce_schema
from ..workloads.tpce import transactions as tpce_txns
from ..workloads.tpce.schema import TPCEScale
from ..workloads.tpce.workload import TRADE_ID_BASE, TPCEWorkload
from ..workloads.tpce.workload import DEFAULT_MIX as TPCE_MIX
from .partition import Partitioner, RangePartitioner
from .workloads import _other_shard, _shard_of_client


#: width of each shard's private id block for newly inserted trades
NEW_TRADE_BLOCK = 10_000_000

#: reference tables never written by the three read-write transactions
TPCE_REPLICATED = frozenset({
    tpce_schema.TAXRATE, tpce_schema.CHARGE, tpce_schema.COMMISSION_RATE,
    tpce_schema.EXCHANGE, tpce_schema.STATUS_TYPE, tpce_schema.TRADE_TYPE,
    tpce_schema.COMPANY, tpce_schema.CUSTOMER,
})

_TRADE_FAMILY = (tpce_schema.TRADE, tpce_schema.TRADE_HISTORY,
                 tpce_schema.SETTLEMENT, tpce_schema.CASH_TRANSACTION)


class TPCEPartitioner(Partitioner):
    """TPC-E placement: securities, accounts and brokers in contiguous
    ranges; the trade family split between the initial population
    (range-partitioned over ``[1, initial_trades]``) and per-shard
    private id blocks for new inserts.  TRADE_REQUEST keys on
    ``(s_id, t_id)`` and lives with its security."""

    def __init__(self, n_shards: int, scale: TPCEScale) -> None:
        super().__init__(n_shards, TPCE_REPLICATED)
        self.scale = scale
        self._ranges = RangePartitioner(n_shards, {
            tpce_schema.SECURITY: (0, 1, scale.n_securities),
            tpce_schema.LAST_TRADE: (0, 1, scale.n_securities),
            tpce_schema.TRADE_REQUEST: (0, 1, scale.n_securities),
            tpce_schema.CUSTOMER_ACCOUNT: (0, 1, scale.n_accounts),
            tpce_schema.HOLDING_SUMMARY: (0, 1, scale.n_accounts),
            tpce_schema.HOLDING: (0, 1, scale.n_accounts),
            tpce_schema.BROKER: (0, 1, scale.n_brokers),
        }, replicated=TPCE_REPLICATED)
        self._initial_trades = RangePartitioner(
            n_shards,
            {table: (0, 1, scale.initial_trades) for table in _TRADE_FAMILY})

    def shard_of(self, table: str, key: tuple) -> int:
        if table in _TRADE_FAMILY:
            t_id = key[0]
            if t_id <= self.scale.initial_trades:
                return self._initial_trades.shard_of(table, key)
            shard = (t_id - TRADE_ID_BASE) // NEW_TRADE_BLOCK
            return min(max(shard, 0), self.n_shards - 1)
        return self._ranges.shard_of(table, key)

    def shard_range(self, table: str, shard: int) -> Tuple[int, int]:
        if table in _TRADE_FAMILY:
            return self._initial_trades.shard_range(table, shard)
        return self._ranges.shard_range(table, shard)


class ClusterTPCE(TPCEWorkload):
    """TPC-E subset with shard-local security/account/trade draws.

    The cross-shard knob moves the *security* to another shard: a
    TRADE_ORDER (or TRADE_UPDATE / MARKET_FEED ticker) against a
    security listed elsewhere reads and writes SECURITY / LAST_TRADE /
    TRADE_REQUEST remotely, while the customer account, broker and the
    new TRADE row stay home — a realistic cross-shard shape (2PC with
    one remote participant).

    The loader's random account->broker assignment is remapped after
    load so every account's broker lives on the account's shard (the
    broker row is *written* by TRADE_ORDER and must be home for the
    0%-cross-shard case to be fully local).
    """

    name = "tpce-cluster"

    def __init__(self, n_shards: int, n_clients: int,
                 cross_shard_ratio: float = 0.1,
                 scale: Optional[TPCEScale] = None, seed: int = 0,
                 mix=TPCE_MIX) -> None:
        super().__init__(scale=scale, seed=seed, mix=mix)
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        if n_clients < n_shards:
            raise ConfigError(
                f"n_clients ({n_clients}) must be >= n_shards ({n_shards})")
        for field in ("n_securities", "n_brokers", "initial_trades"):
            if getattr(self.scale, field) < n_shards:
                raise ConfigError(
                    f"TPC-E needs {field} >= n_shards "
                    f"({getattr(self.scale, field)} < {n_shards})")
        if self.scale.n_securities < n_shards * self.scale.feed_batch:
            raise ConfigError(
                "TPC-E needs feed_batch distinct securities per shard "
                f"({self.scale.n_securities} securities, {n_shards} shards, "
                f"feed_batch {self.scale.feed_batch})")
        if self.scale.n_customers < n_shards:
            raise ConfigError(
                f"TPC-E needs n_customers >= n_shards "
                f"({self.scale.n_customers} < {n_shards})")
        if not 0.0 <= cross_shard_ratio <= 1.0:
            raise ConfigError("cross_shard_ratio must be in [0, 1]")
        self.n_shards = n_shards
        self.n_clients = n_clients
        self.cross_shard_ratio = cross_shard_ratio
        self._partitioner = self.make_partitioner()
        #: per-shard id streams for new trades, one private block each
        self._shard_trades: List[itertools.count] = [
            itertools.count(TRADE_ID_BASE + shard * NEW_TRADE_BLOCK)
            for shard in range(n_shards)]

    def make_partitioner(self) -> TPCEPartitioner:
        return TPCEPartitioner(self.n_shards, self.scale)

    def build_database(self):
        db = super().build_database()
        # remap each account's broker into the account's shard's broker
        # range (deterministic fold of the loaded value; no extra draws)
        part = self._partitioner
        accounts = db.table(tpce_schema.CUSTOMER_ACCOUNT)
        for key in list(accounts.keys()):
            shard = part.shard_of(tpce_schema.CUSTOMER_ACCOUNT, key)
            b_lo, b_hi = part.shard_range(tpce_schema.BROKER, shard)
            value = accounts.committed_value(key)
            b_id = value["ca_b_id"]
            value["ca_b_id"] = b_lo + (b_id - 1) % (b_hi - b_lo + 1)
        return db

    # ------------------------------------------------------------------ #

    def shard_of_client(self, client: int) -> int:
        return _shard_of_client(client, self.n_shards, self.n_clients)

    def _local_security(self, shard: int) -> int:
        lo, hi = self._partitioner.shard_range(tpce_schema.SECURITY, shard)
        return lo + self._zipf.sample() % (hi - lo + 1)

    def _pick_security_shard(self, rng: random.Random, home: int) -> int:
        if (self.n_shards > 1 and self.cross_shard_ratio > 0.0
                and rng.random() < self.cross_shard_ratio):
            return _other_shard(rng, home, self.n_shards)
        return home

    def make_invocation(self, type_name: str, rng: random.Random,
                        worker_id: int) -> TxnInvocation:
        shard = self.shard_of_client(worker_id)
        part = self._partitioner
        type_index = self.spec.type_index(type_name)
        if type_name == tpce_schema.TRADE_ORDER:
            sec_shard = self._pick_security_shard(rng, shard)
            ca_lo, ca_hi = part.shard_range(tpce_schema.CUSTOMER_ACCOUNT,
                                            shard)
            ca_id = rng.randint(ca_lo, ca_hi)
            c_id = (ca_id - 1) // self.scale.accounts_per_customer + 1
            b_lo, b_hi = part.shard_range(tpce_schema.BROKER, shard)
            b_id = rng.randint(b_lo, b_hi)
            s_id = self._local_security(sec_shard)
            qty = rng.randint(100, 800)
            is_sell = rng.random() < 0.5
            tt_id = ("TMS" if is_sell else "TMB") if rng.random() < 0.6 \
                else ("TLS" if is_sell else "TLB")
            inputs = tpce_txns.TradeOrderInput(
                ca_id, c_id, b_id, s_id, next(self._shard_trades[shard]),
                qty, is_sell, tt_id)
            scale = self.scale
            return TxnInvocation(
                type_index, type_name,
                lambda: tpce_txns.trade_order_program(inputs, scale))
        if type_name == tpce_schema.TRADE_UPDATE:
            sec_shard = self._pick_security_shard(rng, shard)
            t_lo, t_hi = part.shard_range(tpce_schema.TRADE, shard)
            batch = min(self.scale.update_batch, t_hi - t_lo + 1)
            trade_ids = rng.sample(range(t_lo, t_hi + 1), batch)
            seq = next(self._seq)
            inputs = tpce_txns.TradeUpdateInput(
                trade_ids, self._local_security(sec_shard),
                f"update-{seq}", seq)
            return TxnInvocation(
                type_index, type_name,
                lambda: tpce_txns.trade_update_program(inputs))
        if type_name == tpce_schema.MARKET_FEED:
            sec_shard = self._pick_security_shard(rng, shard)
            tickers = []
            seen = set()
            while len(tickers) < self.scale.feed_batch:
                # first ticker from sec_shard (the cross-shard one, if
                # any); the rest from home
                s_id = self._local_security(sec_shard if not tickers
                                            else shard)
                if s_id in seen:
                    continue
                seen.add(s_id)
                tickers.append((s_id, rng.randint(1000, 100_000),
                                rng.randint(100, 1000)))
            stream = self._shard_trades[shard]
            base = next(stream)
            for _ in range(self.scale.feed_batch - 1):
                next(stream)  # reserve the batch's id range
            inputs = tpce_txns.MarketFeedInput(tickers, base,
                                               next(self._seq))
            return TxnInvocation(
                type_index, type_name,
                lambda: tpce_txns.market_feed_program(inputs))
        raise AssertionError(f"unknown TPC-E type {type_name!r}")


def make_cluster_tpce_factory(n_shards: int, n_clients: int,
                              cross_shard_ratio: float = 0.1,
                              theta: float = 0.0, seed: int = 0,
                              scale: Optional[TPCEScale] = None,
                              mix=TPCE_MIX):
    def factory() -> ClusterTPCE:
        actual = scale or TPCEScale(theta=theta)
        return ClusterTPCE(n_shards, n_clients, cross_shard_ratio,
                           scale=actual, seed=seed, mix=mix)
    return factory
