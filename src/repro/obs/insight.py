"""Post-run analyzers over the structured trace stream.

The tracer (PR 1) records *what happened*; this module explains *why the
run performed the way it did*, the three questions the paper's evaluation
answers by hand:

* :func:`conflict_attribution` — which transaction-type pairs, tables and
  access pieces the aborts/dooms/waits concentrate on, plus a top-K
  hot-key contention table (§6.5's "NewOrder's STOCK update conflicts
  with ..." reasoning, machine-derived).
* :func:`latency_critical_path` — each committed transaction's latency
  decomposed into execute / wait-by-kind / backoff (plus log-buffer and
  epoch-flush components on durability runs), per transaction type.  The
  decomposition is *exact*: waits and backoff are measured spans and
  execute is the audited residual, so components sum to the measured
  commit latency to the float digit (the accounting invariant tests
  assert ``execute >= 0`` on every transaction).
* :func:`policy_audit` — per-state hit counts joined with the active
  policy's chosen actions, so a learned policy's behaviour is explainable
  ("this state ran 4 812 times with DIRTY_READ + PUBLIC + validate").

Each analyser is a fold — its state, ``kinds``, ``feed(event)``,
``result()`` — whose state is bounded by workers, access sites and policy
states, never by trace length; ``repro report`` feeds all of them from one
streaming pass over the trace file.  ``kinds`` names the event kinds the
fold reads (``None``: every kind) and ``feed`` ignores any other, so
``repro report`` hands each event only to the folds that read its kind.
The public functions feed an event list to the same fold.  No simulation
state, no RNG, deterministic output for a deterministic trace.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .tracing import EventKind, TraceEvent

#: wait kinds produced by contention (see repro.obs.timeline)
_CONFLICT_KINDS = ("progress", "commit_deps", "lock")

#: placeholder used when the counterpart / table / piece is unknown
UNKNOWN = "*"


def _fold(fold, events: Iterable[TraceEvent]) -> dict:
    for event in events:
        fold.feed(event)
    return fold.result()


def _key_str(table: object, key: object) -> str:
    """Render a (table, key) pair the way abort details do: ``stock(1, 7)``.
    Keys arrive as lists (JSON round-trip) or tuples (in-memory)."""
    if isinstance(key, list):
        key = tuple(key)
    return f"{table}{key}"


# ---------------------------------------------------------------------- #
# (a) conflict attribution


class _PairRow:
    __slots__ = ("waits", "wait_ticks", "aborts", "dooms", "piece_retries")

    def __init__(self) -> None:
        self.waits = 0
        self.wait_ticks = 0.0
        self.aborts = 0
        self.dooms = 0
        self.piece_retries = 0

    @property
    def total(self) -> int:
        return self.waits + self.aborts + self.dooms + self.piece_retries


def conflict_attribution(events: List[TraceEvent], top_k: int = 10) -> dict:
    """Attribute conflict symptoms to (txn type, counterpart type, table,
    access piece) and to individual hot keys.

    Waits are keyed by the site the waiter was about to execute (its last
    ``ACCESS`` event) and fanned out over the dependency types the wait
    declared; aborts and piece retries are keyed by the conflicting site
    the abort names (falling back to the last access); dooms pair the
    doomed type with the aborting type.  Returns::

        {"pairs": [{type, other, table, access_id, waits, wait_ticks,
                    aborts, dooms, piece_retries, total}, ...],   # sorted
         "hot_keys": [{table, key, waits, aborts, total}, ...]}   # top-K
    """
    return _fold(_ConflictAttribution(top_k), events)


class _ConflictAttribution:
    """The fold behind :func:`conflict_attribution`."""

    kinds = frozenset((
        EventKind.ACCESS, EventKind.WAIT_BEGIN, EventKind.WAIT_END,
        EventKind.ABORT, EventKind.PIECE_RETRY, EventKind.DOOM))

    def __init__(self, top_k: int = 10) -> None:
        self.top_k = top_k
        self.pairs: Dict[Tuple[str, str, str, object], _PairRow] = {}
        self.hot: Dict[Tuple[str, str], Dict[str, float]] = {}
        #: worker -> attrs of its most recent ACCESS event
        self.last_access: Dict[int, dict] = {}
        #: worker -> (site table, access_id, dep types) of its open wait
        self.open_wait: Dict[int, Tuple[str, object, Tuple[str, ...]]] = {}

    def _pair(self, txn_type: object, other: object, table: object,
              access_id: object) -> _PairRow:
        key = (str(txn_type or UNKNOWN), str(other or UNKNOWN),
               str(table or UNKNOWN),
               access_id if access_id is not None else UNKNOWN)
        row = self.pairs.get(key)
        if row is None:
            row = self.pairs[key] = _PairRow()
        return row

    def _hot_key(self, table: object, key: object, field: str,
                 amount: float = 1.0) -> None:
        if table is None or key is None:
            return
        entry = self.hot.setdefault((str(table), _key_str(table, key)),
                                    {"waits": 0, "aborts": 0,
                                     "wait_ticks": 0.0})
        entry[field] += amount

    def feed(self, event: TraceEvent) -> None:
        kind = event.kind
        attrs = event.attrs or {}
        worker = event.worker
        pair = self._pair
        if kind == EventKind.ACCESS:
            self.last_access[worker] = attrs
        elif kind == EventKind.WAIT_BEGIN:
            access = self.last_access.get(worker, {})
            deps = tuple(attrs.get("deps", ()))
            self.open_wait[worker] = (access.get("table"),
                                      access.get("access_id"), deps)
            for other in deps or (UNKNOWN,):
                row = pair(event.txn_type, other, access.get("table"),
                           access.get("access_id"))
                row.waits += 1
            self._hot_key(access.get("table"), access.get("key"), "waits")
        elif kind == EventKind.WAIT_END:
            site = self.open_wait.pop(worker, None)
            if site is not None:
                table, access_id, deps = site
                waited = attrs.get("waited", 0.0)
                for other in deps or (UNKNOWN,):
                    pair(event.txn_type, other, table,
                         access_id).wait_ticks += waited
        elif kind == EventKind.ABORT:
            access = self.last_access.get(worker, {})
            table = attrs.get("table", access.get("table"))
            key = attrs.get("key", access.get("key"))
            row = pair(event.txn_type, UNKNOWN, table,
                       access.get("access_id"))
            row.aborts += 1
            self._hot_key(table, key, "aborts")
        elif kind == EventKind.PIECE_RETRY:
            access = self.last_access.get(worker, {})
            table = attrs.get("table", access.get("table"))
            key = attrs.get("key", access.get("key"))
            row = pair(event.txn_type, UNKNOWN, table,
                       access.get("access_id"))
            row.piece_retries += 1
            self._hot_key(table, key, "aborts")
        elif kind == EventKind.DOOM:
            # victim = the doomed reader; aggressor = the aborting writer
            pair(attrs.get("doomed_type"), event.txn_type,
                 UNKNOWN, None).dooms += 1

    def result(self) -> dict:
        pair_rows = []
        for (txn_type, other, table, access_id), row in self.pairs.items():
            pair_rows.append({
                "type": txn_type, "other": other, "table": table,
                "access_id": access_id, "waits": row.waits,
                "wait_ticks": row.wait_ticks, "aborts": row.aborts,
                "dooms": row.dooms, "piece_retries": row.piece_retries,
                "total": row.total,
            })
        pair_rows.sort(key=lambda r: (-r["total"], -r["wait_ticks"],
                                      r["type"], r["other"], r["table"],
                                      str(r["access_id"])))

        hot_rows = []
        for (table, key), entry in self.hot.items():
            hot_rows.append({"table": table, "key": key,
                             "waits": int(entry["waits"]),
                             "aborts": int(entry["aborts"]),
                             "wait_ticks": entry["wait_ticks"],
                             "total": int(entry["waits"] + entry["aborts"])})
        hot_rows.sort(key=lambda r: (-r["total"], r["table"], r["key"]))
        return {"pairs": pair_rows, "hot_keys": hot_rows[:self.top_k]}


# ---------------------------------------------------------------------- #
# (b) latency critical path


class _Span:
    """Per-worker accumulator for the invocation currently in flight."""

    __slots__ = ("waits", "backoff")

    def __init__(self) -> None:
        self.waits: Dict[str, float] = {}
        self.backoff = 0.0


def latency_critical_path(events: List[TraceEvent]) -> dict:
    """Decompose each committed transaction's latency (first start to
    commit, retries included — the paper's latency definition) into
    measured wait spans by kind, measured backoff, and the execute
    residual; aggregate per transaction type.

    Returns ``{"types": {type: {commits, latency_total, execute,
    backoff, log_buffer, "wait:<kind>"..., epoch_flush}},
    "residual_violations": N}`` where ``residual_violations`` counts
    transactions whose execute residual came out negative (must be 0 —
    the exact-sum accounting invariant).  ``log_buffer`` is the post-commit
    log-append cost on durability runs (reported alongside, outside the
    latency sum); ``epoch_flush`` is the extra ack delay of group commit,
    derived from EPOCH-event ack latencies when present.
    """
    return _fold(_CriticalPath(), events)


class _CriticalPath:
    """The fold behind :func:`latency_critical_path`."""

    kinds = frozenset((
        EventKind.TX_START, EventKind.WAIT_END, EventKind.BACKOFF,
        EventKind.COMMIT, EventKind.EPOCH))

    def __init__(self) -> None:
        #: worker -> its in-flight invocation's measured waits and backoff
        self.spans: Dict[int, _Span] = {}
        self.types: Dict[str, Dict[str, float]] = {}
        self.violations = 0
        #: per-type [count, total ack latency] harvested from EPOCH events
        self.acks: Dict[str, List[float]] = {}

    def _bucket(self, type_name: str) -> Dict[str, float]:
        entry = self.types.get(type_name)
        if entry is None:
            entry = self.types[type_name] = {
                "commits": 0, "latency_total": 0.0, "execute": 0.0,
                "backoff": 0.0, "log_buffer": 0.0,
            }
        return entry

    def feed(self, event: TraceEvent) -> None:
        kind = event.kind
        worker = event.worker
        attrs = event.attrs or {}
        if kind == EventKind.TX_START:
            if attrs.get("attempt") == 0:
                # a fresh invocation: drop anything left by a crashed or
                # given-up predecessor on this worker
                self.spans[worker] = _Span()
        elif kind == EventKind.WAIT_END:
            wait_kind = attrs.get("wait_kind", UNKNOWN)
            if not isinstance(wait_kind, str):
                # a column name downstream; a number would only fail later,
                # unattributable, when the columns are sorted
                raise TypeError(f"wait_kind must be a string, not "
                                f"{type(wait_kind).__name__}")
            span = self.spans.get(worker)
            if span is not None:
                span.waits[wait_kind] = span.waits.get(wait_kind, 0.0) \
                    + attrs.get("waited", 0.0)
        elif kind == EventKind.BACKOFF:
            span = self.spans.get(worker)
            if span is not None:
                span.backoff += attrs.get("pause", 0.0)
        elif kind == EventKind.COMMIT:
            span = self.spans.pop(worker, None)
            if span is None or event.txn_type is None:
                return
            latency = attrs.get("latency", 0.0)
            entry = self._bucket(event.txn_type)
            entry["commits"] += 1
            entry["latency_total"] += latency
            wait_total = 0.0
            for wait_kind, ticks in span.waits.items():
                column = f"wait:{wait_kind}"
                entry[column] = entry.get(column, 0.0) + ticks
                wait_total += ticks
            entry["backoff"] += span.backoff
            execute = latency - wait_total - span.backoff
            if execute < -1e-6:
                self.violations += 1
            entry["execute"] += execute
            entry["log_buffer"] += attrs.get("log_cost", 0.0)
        elif kind == EventKind.EPOCH:
            for type_name, (count, total) in attrs.get("acks", {}).items():
                stat = self.acks.setdefault(type_name, [0.0, 0.0])
                stat[0] += count
                stat[1] += total

    def result(self) -> dict:
        for type_name, entry in self.types.items():
            stat = self.acks.get(type_name)
            if stat and stat[0]:
                # group-commit ack delay: mean ack latency - mean commit
                # latency
                commits = entry["commits"] or 1
                entry["epoch_flush"] = max(
                    0.0, stat[1] / stat[0] - entry["latency_total"] / commits)
        return {"types": dict(sorted(self.types.items())),
                "residual_violations": self.violations}


# ---------------------------------------------------------------------- #
# (c) policy audit


def _describe_row(row) -> dict:
    from ..core.actions import NO_WAIT
    waits = {}
    for dep_index, value in enumerate(row.wait):
        if value != NO_WAIT:
            waits[str(dep_index)] = value
    return {"read": "dirty" if row.read_dirty else "clean",
            "write": "public" if row.write_public else "private",
            "early_validate": bool(row.early_validate),
            "waits": waits}


def policy_audit(events: List[TraceEvent], policy=None) -> dict:
    """Per-state execution counts from ACCESS events, joined with the
    active policy's chosen actions when a policy is supplied.

    Returns ``{"states": [{type, access_id, hits, actions?}, ...]}``
    sorted by descending hits (ties by state).  Protocols that bypass the
    policy executor (silo, 2pl) emit no ACCESS events, so their audit is
    empty — by design, there is no policy to audit.
    """
    return _fold(_PolicyAudit(policy), events)


class _PolicyAudit:
    """The fold behind :func:`policy_audit`."""

    kinds = frozenset((EventKind.ACCESS,))

    def __init__(self, policy=None) -> None:
        self.policy = policy
        self.hits: Dict[Tuple[str, int], int] = {}

    def feed(self, event: TraceEvent) -> None:
        if event.kind != EventKind.ACCESS or event.txn_type is None:
            return
        access_id = (event.attrs or {}).get("access_id")
        if access_id is None:
            return
        key = (event.txn_type, int(access_id))
        self.hits[key] = self.hits.get(key, 0) + 1

    def result(self) -> dict:
        policy = self.policy
        rows = []
        for (type_name, access_id), count in self.hits.items():
            row: dict = {"type": type_name, "access_id": access_id,
                         "hits": count}
            if policy is not None:
                try:
                    type_index = policy.spec.type_index(type_name)
                    row["actions"] = _describe_row(
                        policy.row(type_index, access_id))
                except Exception:
                    pass  # trace from a different workload than the policy
            rows.append(row)
        rows.sort(key=lambda r: (-r["hits"], r["type"], r["access_id"]))
        return {"states": rows}
