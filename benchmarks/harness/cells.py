"""What each workload and ledger cell runs: pure data, no ``repro`` import.

Sizes are the ones ISSUE 13 names, cut (in the order it allows, then
further) until five measured repetitions, a verify repetition and the
subprocess start-ups of one workload fit the driver's per-run time cap;
``README.md`` lists every cut beside the issue's figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: transaction type whose commit latency is reported, per program workload
LATENCY_TYPE = {"tpcc": "neworder", "micro": "micro0"}


@dataclass(frozen=True)
class Cell:
    """One ``run_named`` configuration (TPC-C under the learned policy)."""

    warehouses: int
    workers: int
    ticks: float
    warmup: float
    fixture: str                       # "wh1" | "wh8"
    shards: int = 1
    cross: float = 0.0
    durability: bool = False
    arrival_rate: Optional[float] = None   # open loop when set
    obs: Tuple[str, ...] = ()          # of "trace", "timeline", "accountant"


@dataclass(frozen=True)
class ObsReport:
    """``repro run`` with every sink on, then ``repro report``."""

    workers: int = 16
    ticks: float = 10_000.0
    warmup: float = 2_000.0
    fixture: str = "wh1"


@dataclass(frozen=True)
class TrainEA:
    """``repro train`` (EA, micro theta 0.8), then ``repro run`` of the
    policy it wrote."""

    fitness_workers: int = 8
    fitness_ticks: float = 1_000.0
    iterations: int = 3
    population: int = 4
    children: int = 2
    jobs: int = 1
    replay_ticks: float = 12_000.0
    replay_warmup: float = 2_000.0


#: open-loop knobs shared by every open-loop cell (ISSUE 13's values)
QUEUE_CAP = 64
DEADLINE = 5_000.0
RETRY_BUDGET = 8

# The cluster cell is 4 shards x 4 workers over 16 warehouses (ISSUE: 4 x 8
# over 32, ~10 s a repetition here).  Its closed-loop capacity is ~226 k
# TPS; the workload offers 0.66x of that so that no arrival is shed or late
# (the driver's contract: no operation fails), and ledger cell L4 offers
# 1.33x so the shed path is still measured.
CLUSTER = Cell(warehouses=16, workers=16, ticks=8_000.0, warmup=1_000.0,
               fixture="wh8", shards=4, cross=0.10, durability=True,
               arrival_rate=150_000.0)

WORKLOADS: Dict[str, object] = {
    "tpcc_pj_closed": Cell(warehouses=1, workers=16, ticks=24_000.0,
                           warmup=2_000.0, fixture="wh1"),
    "cluster_open_durable": CLUSTER,
    "obs_report": ObsReport(),
    "train_ea": TrainEA(),
}

_LEDGER_TICKS = 6_000.0
_LEDGER_WARMUP = 1_000.0


def _ledger(**kwargs) -> Cell:
    return Cell(ticks=_LEDGER_TICKS, warmup=_LEDGER_WARMUP, **kwargs)


_OBS = dict(warehouses=1, workers=16, fixture="wh1")

#: differential ledger (instrument C): each cell adds one layer to the one
#: before it, same seed, and is read as host microseconds of the
#: ``Scheduler.run`` span per commit
LEDGER: Dict[str, object] = {
    # engine -> +durability -> +cluster -> +cross-shard 2PC -> +open loop
    "L0": _ledger(warehouses=4, workers=4, fixture="wh8"),
    "L1": _ledger(warehouses=4, workers=4, fixture="wh8", durability=True),
    "L2": _ledger(warehouses=16, workers=16, fixture="wh8", durability=True,
                  shards=4, cross=0.0),
    "L3": _ledger(warehouses=16, workers=16, fixture="wh8", durability=True,
                  shards=4, cross=0.10),
    "L4": _ledger(warehouses=16, workers=16, fixture="wh8", durability=True,
                  shards=4, cross=0.10, arrival_rate=300_000.0),
    # observability sinks, one at a time, on the obs_report configuration
    "O0": Cell(ticks=ObsReport.ticks, warmup=ObsReport.warmup, **_OBS),
    "O1": Cell(ticks=ObsReport.ticks, warmup=ObsReport.warmup,
               obs=("trace",), **_OBS),
    "O2": Cell(ticks=ObsReport.ticks, warmup=ObsReport.warmup,
               obs=("timeline",), **_OBS),
    "O3": Cell(ticks=ObsReport.ticks, warmup=ObsReport.warmup,
               obs=("accountant",), **_OBS),
    "O4": Cell(ticks=ObsReport.ticks, warmup=ObsReport.warmup,
               obs=("trace", "timeline", "accountant"), **_OBS),
    # the trainer at --jobs 2; T1 (--jobs 1) is the train_ea workload
    # itself, read from its untraced repetitions
    "T2": TrainEA(jobs=2),
}

#: which workload's traced run carries which ledger cells
LEDGER_OF = {
    "tpcc_pj_closed": (),
    "cluster_open_durable": ("L0", "L1", "L2", "L3", "L4"),
    "obs_report": ("O0", "O1", "O2", "O3", "O4"),
    "train_ea": ("T2",),
}


def lookup(name: str):
    """The workload or ledger cell called ``name``."""
    if name in WORKLOADS:
        return WORKLOADS[name]
    return LEDGER[name]
