"""Fault plans: the declarative description of what to inject, when.

A :class:`FaultPlan` combines two mechanisms:

* **rate-based faults** — per-work-cost / per-access probabilities drawn
  from the run's seeded fault RNG, so every protocol (silo, 2pl, ic3,
  polyjuice) is perturbed identically and deterministically;
* **scripted faults** — events pinned to exact simulated times and workers
  (the reproducible "kill worker 3 at t=20000" experiment).

The fault taxonomy (see DESIGN.md "Robustness & chaos testing"):

========  ===========================================================
kind      effect
========  ===========================================================
stall     the worker freezes for N extra ticks mid-access
abort     the in-flight transaction attempt is killed (clean abort
          path: locks released, access lists scrubbed, backoff taken)
crash     the worker drops — its in-flight transaction aborts cleanly
          and the worker stays down for ``downtime`` ticks before
          restarting and retrying the same invocation
doom      the in-flight transaction is force-doomed (``ctx.doomed``);
          policy-driven executors abort it through the §4.3 doom
          machinery (no effect on executors that never dirty-read)
slow      the worker's execution costs are inflated by ``factor``
          (slow-node emulation), optionally for a bounded duration
node      the *whole node* crashes at an exact simulated time
_crash    (scripted only; requires ``SimConfig.durability``): every
          worker dies, the log is truncated to the persistent epoch,
          and the run continues after checkpoint-plus-replay recovery
burst     the open-loop arrival rate is multiplied by ``factor`` for
          ``duration`` ticks (scripted only; requires
          ``SimConfig.frontend``) — the overload chaos event
net       shard ``worker`` is partitioned from every other shard for
_partition  ``duration`` ticks (scripted only; requires
          ``SimConfig.cluster``): in-flight remote accesses abort,
          2PC decision deliveries stall until the window closes
net       every inter-shard message latency is multiplied by
_delay    ``factor`` for ``duration`` ticks (scripted only; requires
          ``SimConfig.cluster``)
net_dup   every asynchronous inter-shard delivery in the window
          arrives twice — receivers must deduplicate (scripted only;
          requires ``SimConfig.cluster``)
shard     shard ``worker`` crashes at an exact simulated time while the
_crash    rest of the cluster keeps running (scripted only; requires
          ``SimConfig.cluster`` *and* ``SimConfig.durability``): the
          shard's pinned workers die, its WAL truncates to its *own*
          persistent epoch, survivors run in degraded mode until the
          shard rejoins after recovery plus ``downtime`` extra ticks
========  ===========================================================

Plans serialize to/from JSON (``repro run --faults PLAN.json``) and are
validated on load with errors naming the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import FaultPlanError
from ..ioutil import atomic_write_json

#: current on-disk format version
FAULT_PLAN_FORMAT_VERSION = 1

#: rate-based fault kinds (probability per eligible work cost / access)
RATE_KINDS = ("stall", "abort", "crash", "doom", "slow")

#: scripted event kinds
EVENT_KINDS = ("stall", "abort", "crash", "doom", "slow", "node_crash",
               "burst", "net_partition", "net_delay", "net_dup",
               "shard_crash")

#: scripted kinds that target the whole node / arrival process / every
#: network link at once: a ``worker`` field is meaningless and rejected
WHOLE_NODE_KINDS = ("node_crash", "burst", "net_delay", "net_dup")

#: scripted kinds whose ``worker`` field names a *shard*, not a worker
SHARD_KINDS = ("net_partition", "shard_crash")

#: scripted kinds whose ``worker`` field is not a worker id (the union of
#: the whole-node and shard-targeted kinds; kept for back-compat)
NON_WORKER_KINDS = WHOLE_NODE_KINDS + SHARD_KINDS


@dataclass
class ScriptedFault:
    """One fault pinned to a simulated time and a worker."""

    time: float
    kind: str
    #: target worker id; for ``net_partition`` / ``shard_crash`` this is
    #: the *shard* to isolate or crash, and it must stay ``-1`` for
    #: ``node_crash`` (which takes down the whole node), ``burst`` (the
    #: arrival process) and ``net_delay`` / ``net_dup`` (every link)
    worker: int = -1
    #: stall length (``kind == "stall"``)
    ticks: float = 0.0
    #: worker downtime after the crash (``kind == "crash"``), or extra
    #: shard outage beyond recovery time (``kind == "shard_crash"``)
    downtime: float = 0.0
    #: cost multiplier (``kind == "slow"``) or arrival-rate multiplier
    #: (``kind == "burst"``)
    factor: float = 1.0
    #: how long the slowdown / burst lasts; 0 = until the end of the run
    #: (``burst`` requires a bounded duration)
    duration: float = 0.0

    def validate(self, index: int) -> None:
        where = f"events[{index}]"
        if self.kind not in EVENT_KINDS:
            raise FaultPlanError(
                f"{where}.kind: unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(EVENT_KINDS)})")
        if self.time < 0:
            raise FaultPlanError(f"{where}.time: must be >= 0, got {self.time}")
        if self.worker < 0 and self.kind not in NON_WORKER_KINDS:
            raise FaultPlanError(
                f"{where}.worker: must be >= 0, got {self.worker}")
        if self.kind in WHOLE_NODE_KINDS and self.worker >= 0:
            raise FaultPlanError(
                f"{where}.worker: {self.kind} targets the whole node — "
                f"a worker field is meaningless (got {self.worker}; "
                f"omit it or use -1)")
        if self.kind in SHARD_KINDS and self.worker < 0:
            raise FaultPlanError(
                f"{where}.worker: {self.kind} needs the shard to "
                f"{'crash' if self.kind == 'shard_crash' else 'isolate'} "
                f"(>= 0), got {self.worker}")
        if self.kind == "shard_crash" and self.downtime < 0:
            raise FaultPlanError(
                f"{where}.downtime: must be >= 0, got {self.downtime}")
        if self.kind in ("net_partition", "net_delay", "net_dup") \
                and self.duration <= 0:
            raise FaultPlanError(
                f"{where}.duration: {self.kind} needs a bounded window "
                f"(duration > 0), got {self.duration}")
        if self.kind == "net_delay" and self.factor <= 0:
            raise FaultPlanError(
                f"{where}.factor: must be > 0, got {self.factor}")
        if self.kind == "stall" and self.ticks <= 0:
            raise FaultPlanError(
                f"{where}.ticks: stall needs ticks > 0, got {self.ticks}")
        if self.kind == "crash" and self.downtime < 0:
            raise FaultPlanError(
                f"{where}.downtime: must be >= 0, got {self.downtime}")
        if self.kind == "slow":
            if self.factor <= 0:
                raise FaultPlanError(
                    f"{where}.factor: must be > 0, got {self.factor}")
            if self.duration < 0:
                raise FaultPlanError(
                    f"{where}.duration: must be >= 0, got {self.duration}")
        if self.kind == "burst":
            if self.factor <= 0:
                raise FaultPlanError(
                    f"{where}.factor: must be > 0, got {self.factor}")
            if self.duration <= 0:
                raise FaultPlanError(
                    f"{where}.duration: burst needs a bounded window "
                    f"(duration > 0), got {self.duration}")

    def to_dict(self) -> dict:
        data = {"time": self.time, "kind": self.kind}
        if self.kind not in WHOLE_NODE_KINDS:
            data["worker"] = self.worker
        if self.kind == "stall":
            data["ticks"] = self.ticks
        elif self.kind in ("crash", "shard_crash"):
            data["downtime"] = self.downtime
        elif self.kind == "slow":
            data["factor"] = self.factor
            if self.duration:
                data["duration"] = self.duration
        elif self.kind in ("burst", "net_delay"):
            data["factor"] = self.factor
            data["duration"] = self.duration
        elif self.kind in ("net_partition", "net_dup"):
            data["duration"] = self.duration
        return data

    @classmethod
    def from_dict(cls, data: dict, index: int) -> "ScriptedFault":
        where = f"events[{index}]"
        if not isinstance(data, dict):
            raise FaultPlanError(f"{where}: must be an object, got "
                                 f"{type(data).__name__}")
        try:
            event = cls(time=float(data["time"]), kind=str(data["kind"]),
                        worker=int(data.get("worker", -1)),
                        ticks=float(data.get("ticks", 0.0)),
                        downtime=float(data.get("downtime", 0.0)),
                        factor=float(data.get("factor", 1.0)),
                        duration=float(data.get("duration", 0.0)))
        except KeyError as exc:
            raise FaultPlanError(f"{where}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"{where}: {exc}") from exc
        event.validate(index)
        return event


def validate_event_against_run(event: "ScriptedFault", index: int, *,
                               n_workers: int,
                               n_shards: Optional[int] = None,
                               has_durability: bool = False,
                               has_frontend: bool = False) -> None:
    """Install-time validation of one scripted event against the run's
    actual topology.  ``ScriptedFault.validate`` can only check
    self-consistency; worker ids, shard ranges and feature requirements
    (durability, an open-loop frontend, a cluster) need the run, so the
    injector validates every event through this one code path before
    scheduling anything."""
    if event.kind == "node_crash":
        if not has_durability:
            raise FaultPlanError(
                f"events[{index}]: node_crash requires durability "
                f"(run with --durability / SimConfig.durability)")
    elif event.kind == "burst":
        if not has_frontend:
            raise FaultPlanError(
                f"events[{index}]: burst requires an open-loop "
                f"frontend (run with --arrival-rate / "
                f"SimConfig.frontend)")
    elif event.kind in SHARD_KINDS or event.kind in ("net_delay", "net_dup"):
        if n_shards is None:
            raise FaultPlanError(
                f"events[{index}]: {event.kind} requires a sharded "
                f"cluster (run with --shards / SimConfig.cluster)")
        if event.kind in SHARD_KINDS and event.worker >= n_shards:
            raise FaultPlanError(
                f"events[{index}].worker: shard {event.worker} does "
                f"not exist (cluster has {n_shards} shards)")
        if event.kind == "shard_crash" and not has_durability:
            raise FaultPlanError(
                f"events[{index}]: shard_crash requires durability "
                f"(run with --durability / SimConfig.durability)")
    elif event.worker >= n_workers:
        raise FaultPlanError(
            f"events[{index}].worker: worker {event.worker} does not "
            f"exist (run has {n_workers} workers)")


@dataclass
class FaultPlan:
    """A complete, serializable fault-injection plan."""

    #: probability per eligible work cost (stall/abort/crash) or per
    #: policy-executor access (doom); keys from :data:`RATE_KINDS`
    rates: dict = field(default_factory=dict)
    #: [lo, hi] ticks for rate-drawn stalls
    stall_ticks: Tuple[float, float] = (10.0, 100.0)
    #: worker downtime after a rate-drawn crash
    crash_downtime: float = 500.0
    #: cost multiplier applied by a rate-drawn slowdown
    slow_factor: float = 2.0
    #: how long a rate-drawn slowdown lasts (ticks; must be bounded, or a
    #: single draw would degrade the worker for the rest of the run)
    slow_duration: float = 500.0
    #: scripted events, fired at exact simulated times
    events: List[ScriptedFault] = field(default_factory=list)
    #: corrupt one random policy cell at load time (exercises the
    #: graceful-rejection path; only meaningful with ``--policy``)
    corrupt_policy: bool = False
    name: str = "faults"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for kind, rate in self.rates.items():
            if kind not in RATE_KINDS:
                raise FaultPlanError(
                    f"rates.{kind}: unknown rate kind (expected one of "
                    f"{', '.join(RATE_KINDS)})")
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(
                    f"rates.{kind}: must lie in [0, 1], got {rate}")
        lo, hi = self.stall_ticks
        if lo < 0 or hi < lo:
            raise FaultPlanError(
                f"stall_ticks: need 0 <= lo <= hi, got [{lo}, {hi}]")
        if self.crash_downtime < 0:
            raise FaultPlanError(
                f"crash_downtime: must be >= 0, got {self.crash_downtime}")
        if self.slow_factor <= 0:
            raise FaultPlanError(
                f"slow_factor: must be > 0, got {self.slow_factor}")
        if self.slow_duration <= 0:
            raise FaultPlanError(
                f"slow_duration: must be > 0, got {self.slow_duration}")
        for index, event in enumerate(self.events):
            event.validate(index)

    def rate(self, kind: str) -> float:
        return self.rates.get(kind, 0.0)

    @property
    def any_work_rate(self) -> bool:
        """True when any per-work-cost rate is non-zero."""
        return any(self.rate(kind) > 0.0
                   for kind in ("stall", "abort", "crash", "slow"))

    @property
    def scripts_crash(self) -> bool:
        """True when a scripted event crashes the node or a shard — the
        only faults that restore a checkpoint or read the durable view.
        Rate-drawn faults never do (:data:`RATE_KINDS`), so a plan without
        such an event lets a durable run skip its recovery-only state."""
        return any(event.kind in ("node_crash", "shard_crash")
                   for event in self.events)

    # ------------------------------------------------------------------ #
    # serialization

    def to_dict(self) -> dict:
        return {
            "format": FAULT_PLAN_FORMAT_VERSION,
            "name": self.name,
            "rates": dict(self.rates),
            "stall_ticks": list(self.stall_ticks),
            "crash_downtime": self.crash_downtime,
            "slow_factor": self.slow_factor,
            "slow_duration": self.slow_duration,
            "events": [event.to_dict() for event in self.events],
            "corrupt_policy": self.corrupt_policy,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be an object, got {type(data).__name__}")
        declared = data.get("format", FAULT_PLAN_FORMAT_VERSION)
        if declared != FAULT_PLAN_FORMAT_VERSION:
            raise FaultPlanError(f"unsupported fault plan format: {declared!r}")
        rates = data.get("rates", {})
        if not isinstance(rates, dict):
            raise FaultPlanError("rates: must be an object of kind -> rate")
        try:
            rates = {str(kind): float(rate) for kind, rate in rates.items()}
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"rates: {exc}") from exc
        stall_ticks = data.get("stall_ticks", [10.0, 100.0])
        if not isinstance(stall_ticks, (list, tuple)) or len(stall_ticks) != 2:
            raise FaultPlanError("stall_ticks: must be a [lo, hi] pair")
        raw_events = data.get("events", [])
        if not isinstance(raw_events, list):
            raise FaultPlanError("events: must be a list")
        try:
            crash_downtime = float(data.get("crash_downtime", 500.0))
            slow_factor = float(data.get("slow_factor", 2.0))
            slow_duration = float(data.get("slow_duration", 500.0))
            stall_lo, stall_hi = float(stall_ticks[0]), float(stall_ticks[1])
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"fault plan: {exc}") from exc
        return cls(
            rates=rates,
            stall_ticks=(stall_lo, stall_hi),
            crash_downtime=crash_downtime,
            slow_factor=slow_factor,
            slow_duration=slow_duration,
            events=[ScriptedFault.from_dict(event, index)
                    for index, event in enumerate(raw_events)],
            corrupt_policy=bool(data.get("corrupt_policy", False)),
            name=str(data.get("name", "faults")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"invalid fault plan JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise FaultPlanError(
                f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_json(text)
