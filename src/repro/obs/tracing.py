"""Structured event tracing for simulated runs.

The execution path (scheduler, workers, the policy executor, validation,
locks, backoff) emits typed :class:`TraceEvent` records into a
:class:`TraceSink`.  Every emission site is written as::

    if sink.enabled:
        sink.emit(TraceEvent(...))

(or one of the slotted per-access subclasses), so with the default
:data:`NULL_SINK` (whose ``enabled`` is ``False``) no event object is ever
allocated — the only cost of a disabled tracer is one attribute load and
a falsy branch per site, which is what keeps tracing zero-overhead-when-off
on the simulator's hot path.

Timestamps are *simulated* ticks (1 tick = 1 microsecond), which maps
one-to-one onto the Chrome trace-event format's microsecond ``ts`` field:
:func:`export_chrome_trace` writes a file that loads directly in Perfetto
or ``chrome://tracing``, with one track (tid) per simulated worker,
transaction attempts as duration slices, waits as nested slices, backoff
as complete slices and accesses/validations as instant markers.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import (Dict, IO, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..errors import ReproError

#: schema tag/version written as the first line of JSONL traces; bump the
#: version when the event vocabulary or field meanings change incompatibly
TRACE_SCHEMA = "repro.trace"
TRACE_SCHEMA_VERSION = 1


def _schema_header() -> str:
    return json.dumps({"schema": TRACE_SCHEMA,
                       "version": TRACE_SCHEMA_VERSION})


class EventKind:
    """The typed vocabulary of trace events."""

    #: a worker starts one transaction attempt (attrs: attempt number)
    TX_START = "tx_start"
    #: one data access by the policy executor (:class:`AccessEvent`)
    ACCESS = "access"
    #: a worker parked on a wait (attrs: wait_kind, n_deps)
    WAIT_BEGIN = "wait_begin"
    #: a parked worker resumed (attrs: wait_kind, waited, outcome)
    WAIT_END = "wait_end"
    #: an early or final validation ran (:class:`EarlyValidateEvent`,
    #: :class:`FinalValidateEvent`)
    VALIDATE = "validate"
    #: a transaction attempt aborted (attrs: reason, attempt)
    ABORT = "abort"
    #: a transaction committed (attrs: attempts, latency)
    COMMIT = "commit"
    #: a worker entered retry backoff (attrs: pause, level)
    BACKOFF = "backoff"
    #: early validation failed; the piece re-executes (attrs: retries)
    PIECE_RETRY = "piece_retry"
    #: an abort doomed a dependent dirty reader (attrs: doomed_txn)
    DOOM = "doom"
    #: a lock request blocked or died under WAIT-DIE (attrs: outcome, ...)
    LOCK = "lock"
    #: the fault injector fired (attrs: fault, origin, kind-specific detail)
    FAULT = "fault"
    #: the progress watchdog saw no commit for a full window
    #: (attrs: window, action, parked, wait_edges, on_cycle — the sorted
    #: ids of abort-on-break parked workers on a live wait-for cycle, which
    #: a park that breaks every cycle it closes keeps empty)
    LIVELOCK = "livelock"
    #: an epoch's group-commit flush completed; its commits are now durable
    #: and acked (attrs: epoch, records, bytes, stalled)
    EPOCH = "epoch"
    #: the whole node crashed (attrs: crash, lost_inflight, lost_unflushed)
    NODE_CRASH = "node_crash"
    #: one shard crashed while the rest kept running
    #: (attrs: shard, crash, lost_inflight, lost_unflushed, blocked_in_doubt)
    SHARD_CRASH = "shard_crash"
    #: recovery finished; workers restart (attrs: replayed, recovery_ticks)
    RECOVERY = "recovery"
    #: an open-loop invocation arrived at the admission queue
    #: (attrs: seq, admitted, depth)
    ARRIVAL = "arrival"
    #: an invocation was shed by admission control
    #: (attrs: reason, seq, queued)
    SHED = "shed"

    ALL = (TX_START, ACCESS, WAIT_BEGIN, WAIT_END, VALIDATE, ABORT, COMMIT,
           BACKOFF, PIECE_RETRY, DOOM, LOCK, FAULT, LIVELOCK, EPOCH,
           NODE_CRASH, SHARD_CRASH, RECOVERY, ARRIVAL, SHED)


class TraceEvent:
    """One structured event at a simulated timestamp.

    Attributes:
        ts: simulated time in ticks (1 tick = 1 microsecond).
        kind: an :class:`EventKind` value.
        worker: id of the emitting worker (``-1`` when not worker-bound).
        txn: transaction id of the in-flight attempt, if known.
        txn_type: transaction type name, if known.
        attrs: free-form, kind-specific details (JSON-serialisable).
    """

    __slots__ = ("ts", "kind", "worker", "txn", "txn_type", "attrs")

    def __init__(self, ts: float, kind: str, worker: int = -1,
                 txn: Optional[int] = None, txn_type: Optional[str] = None,
                 attrs: Optional[dict] = None) -> None:
        self.ts = ts
        self.kind = kind
        self.worker = worker
        self.txn = txn
        self.txn_type = txn_type
        self.attrs = attrs

    def to_dict(self) -> dict:
        data: dict = {"ts": self.ts, "kind": self.kind, "worker": self.worker}
        if self.txn is not None:
            data["txn"] = self.txn
        if self.txn_type is not None:
            data["type"] = self.txn_type
        attrs = self.attrs
        if attrs:
            data["attrs"] = attrs
        return data

    def _jsonl(self) -> str:
        """This event as one JSONL line, without the newline: exactly
        ``json.dumps(self.to_dict())``.  The kinds every attempt, commit
        and wait emits, and the per-access subclasses, format the same
        bytes directly; this call is their fallback."""
        kind = self.kind
        fields = _ATTRS_JSON.get(kind) if type(kind) is str else None
        if fields is not None:
            line = _dict_jsonl(self, fields)
            if line is not None:
                return line
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(data: dict) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output.  A ``type`` that
        is not a string or ``attrs`` that is not an object is a
        :class:`TypeError` (readers index both)."""
        get = data.get
        ts = get("ts")
        kind = get("kind")
        worker = get("worker")
        txn_type = get("type")
        attrs = get("attrs")
        if (type(ts) is float and type(kind) is str and type(worker) is int
                and type(txn_type) is str and type(attrs) is dict):
            # what write_jsonl writes for a typed event: nothing to check
            return TraceEvent(ts, kind, worker, get("txn"), txn_type, attrs)
        if txn_type is not None and not isinstance(txn_type, str):
            raise TypeError(f"'type' must be a string, not "
                            f"{type(txn_type).__name__}")
        if attrs is not None and not isinstance(attrs, dict):
            raise TypeError(f"'attrs' must be an object, not "
                            f"{type(attrs).__name__}")
        return TraceEvent(float(data["ts"]), str(data["kind"]),
                          int(data.get("worker", -1)), data.get("txn"),
                          txn_type, attrs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TraceEvent) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TraceEvent({self.ts}, {self.kind}, w{self.worker}"
                + (f", txn={self.txn}" if self.txn is not None else "") + ")")


# ---------------------------------------------------------------------- #
# Dict-carrying kinds every attempt, commit and wait emits (TX_START,
# COMMIT, WAIT_BEGIN, WAIT_END): a line formatted from the attrs values
# the emit sites pass, in the dict's own key order (which is json's).  Any
# other key or value type takes json.dumps.


def _int_json(value) -> Optional[str]:
    return str(value) if type(value) is int else None


def _float_json(value) -> Optional[str]:
    # a finite float's JSON is its repr; NaN and infinities are not
    return repr(value) if type(value) is float and value - value == 0.0 \
        else None


def _str_json(value) -> Optional[str]:
    return _json_str(value) if type(value) is str else None


def _bool_json(value) -> Optional[str]:
    if type(value) is not bool:
        return None
    return "true" if value else "false"


def _strs_json(value) -> Optional[str]:
    if type(value) is not list:
        return None
    for item in value:
        if type(item) is not str:
            return None
    return "[" + ", ".join(map(_json_str, value)) + "]"


#: kind -> {attrs key: value encoder} over every key its emit sites write,
#: the optional ones (``deps``, ``deadline_met``, ``log_cost``) included
_ATTRS_JSON: Dict[str, Dict[str, object]] = {
    EventKind.TX_START: {"attempt": _int_json},
    EventKind.COMMIT: {"attempts": _int_json, "latency": _float_json,
                       "deadline_met": _bool_json, "log_cost": _float_json},
    EventKind.WAIT_BEGIN: {"wait_kind": _str_json, "n_deps": _int_json,
                           "deps": _strs_json},
    EventKind.WAIT_END: {"wait_kind": _str_json, "waited": _float_json,
                         "outcome": _str_json},
}


def _dict_jsonl(event: TraceEvent, fields: dict) -> Optional[str]:
    """``event``'s line from its kind's ``fields``, or ``None`` when a
    field or attrs value is not of a type the emit sites pass."""
    ts = event.ts
    worker = event.worker
    txn = event.txn
    txn_type = event.txn_type
    attrs = event.attrs
    if (type(ts) is not float or ts - ts != 0.0 or type(worker) is not int
            or type(attrs) is not dict or not attrs):
        return None
    line = f'{{"ts": {ts!r}, "kind": "{event.kind}", "worker": {worker}'
    if txn is not None:
        if type(txn) is not int:
            return None
        line += f', "txn": {txn}'
    if txn_type is not None:
        if type(txn_type) is not str:
            return None
        line += f', "type": {_json_str(txn_type)}'
    parts = []
    for key, value in attrs.items():
        encode = fields.get(key)
        value_json = encode(value) if encode is not None else None
        if value_json is None:
            return None
        parts.append(f'"{key}": {value_json}')
    return line + ', "attrs": {' + ", ".join(parts) + "}}"


# ---------------------------------------------------------------------- #
# Per-access kinds: one event per data access or validation, ~90 % of a
# policy-executor trace.  Each keeps its attrs values as slots (the key is
# the operation's own tuple) and builds the ``attrs`` dict only when read,
# so a buffered event costs one small object instead of an object, a dict
# and a list.  ``attrs`` and ``to_dict()`` equal what a dict-carrying
# TraceEvent of the same kind would give, key order included.  The kind is
# fixed per class; the base ``attrs`` slot stays unused.
#
# Each also formats its own JSONL line: the bytes ``json.dumps`` gives for
# ``to_dict()``, built from ``float.__repr__`` (what json writes for a
# finite float), ``str`` of ints and json's own string encoder
# (``_json_str``).  A field whose type is not what the emit sites pass
# takes the base encoder.


#: ``"[%d, ..., %d]"`` by length: an all-int key tuple's JSON list in one
#: format call (``%d`` of an int is its ``str``)
_INT_LISTS = tuple("[" + ", ".join(("%d",) * n) + "]" for n in range(8))


def _jsonl_head(event: TraceEvent) -> Optional[str]:
    """A per-access event's line up to its attrs object, or ``None`` when
    ``ts`` is not a finite float, ``worker`` / ``txn`` not an int or the
    type not a string."""
    ts = event.ts
    worker = event.worker
    txn = event.txn
    txn_type = event.txn_type
    if (type(ts) is not float or ts - ts != 0.0 or type(worker) is not int
            or type(txn) is not int or type(txn_type) is not str):
        return None
    return (f'{{"ts": {ts!r}, "kind": "{event.kind}", "worker": {worker}, '
            f'"txn": {txn}, "type": {_json_str(txn_type)}, "attrs": ')


class AccessEvent(TraceEvent):
    """An :data:`EventKind.ACCESS` event.

    attrs: ``access_id``, ``table``, ``key`` (a list, or ``None`` for a
    scan) and ``op`` (the operation's class name)."""

    __slots__ = ("access_id", "table", "key", "op")
    kind = EventKind.ACCESS

    def __init__(self, ts: float, worker: int, txn: Optional[int],
                 txn_type: Optional[str], access_id: int, table: str,
                 key: Optional[tuple], op: str) -> None:
        self.ts = ts
        self.worker = worker
        self.txn = txn
        self.txn_type = txn_type
        self.access_id = access_id
        self.table = table
        self.key = key
        self.op = op

    @property
    def attrs(self) -> dict:
        key = self.key
        return {"access_id": self.access_id, "table": self.table,
                "key": list(key) if key is not None else None,
                "op": self.op}

    def _jsonl(self) -> str:
        head = _jsonl_head(self)
        access_id = self.access_id
        table = self.table
        key = self.key
        op = self.op
        if (head is None or type(access_id) is not int
                or type(table) is not str or type(op) is not str):
            return TraceEvent._jsonl(self)
        if key is None:
            key_json = "null"
        elif type(key) is tuple and len(key) < len(_INT_LISTS):
            for part in key:
                if type(part) is not int:
                    return TraceEvent._jsonl(self)
            key_json = _INT_LISTS[len(key)] % key
        else:
            return TraceEvent._jsonl(self)
        return (f'{head}{{"access_id": {access_id}, "table": '
                f'{_json_str(table)}, "key": {key_json}, "op": '
                f'{_json_str(op)}}}}}')

    def __reduce__(self):
        return (AccessEvent, (self.ts, self.worker, self.txn, self.txn_type,
                              self.access_id, self.table, self.key, self.op))


class EarlyValidateEvent(TraceEvent):
    """An early-validation :data:`EventKind.VALIDATE` event.

    attrs: ``phase`` (``"early"``), ``entries`` (buffered reads plus any
    published writes) and ``publish`` (whether pending writes go public)."""

    __slots__ = ("entries", "publish")
    kind = EventKind.VALIDATE

    def __init__(self, ts: float, worker: int, txn: Optional[int],
                 txn_type: Optional[str], entries: int,
                 publish: bool) -> None:
        self.ts = ts
        self.worker = worker
        self.txn = txn
        self.txn_type = txn_type
        self.entries = entries
        self.publish = publish

    @property
    def attrs(self) -> dict:
        return {"phase": "early", "entries": self.entries,
                "publish": self.publish}

    def _jsonl(self) -> str:
        head = _jsonl_head(self)
        entries = self.entries
        publish = self.publish
        if (head is None or type(entries) is not int
                or type(publish) is not bool):
            return TraceEvent._jsonl(self)
        return (f'{head}{{"phase": "early", "entries": {entries}, '
                f'"publish": {"true" if publish else "false"}}}}}')

    def __reduce__(self):
        return (EarlyValidateEvent, (self.ts, self.worker, self.txn,
                                     self.txn_type, self.entries,
                                     self.publish))


class FinalValidateEvent(TraceEvent):
    """A commit-time :data:`EventKind.VALIDATE` event.

    attrs: ``phase`` (``"final"``), ``reads`` and ``writes`` (read- and
    write-set sizes)."""

    __slots__ = ("reads", "writes")
    kind = EventKind.VALIDATE

    def __init__(self, ts: float, worker: int, txn: Optional[int],
                 txn_type: Optional[str], reads: int, writes: int) -> None:
        self.ts = ts
        self.worker = worker
        self.txn = txn
        self.txn_type = txn_type
        self.reads = reads
        self.writes = writes

    @property
    def attrs(self) -> dict:
        return {"phase": "final", "reads": self.reads, "writes": self.writes}

    def _jsonl(self) -> str:
        head = _jsonl_head(self)
        reads = self.reads
        writes = self.writes
        if (head is None or type(reads) is not int
                or type(writes) is not int):
            return TraceEvent._jsonl(self)
        return (f'{head}{{"phase": "final", "reads": {reads}, '
                f'"writes": {writes}}}}}')

    def __reduce__(self):
        return (FinalValidateEvent, (self.ts, self.worker, self.txn,
                                     self.txn_type, self.reads, self.writes))


class TraceSink:
    """Protocol for event consumers.

    ``enabled`` gates every emission site: a sink whose ``enabled`` is
    falsy receives no events and costs nothing beyond the guard itself.
    """

    enabled: bool = True

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class NullSink(TraceSink):
    """The disabled tracer: the fast path.  Never receives events."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never hit
        pass


#: the process-wide disabled sink; sharing one instance keeps the identity
#: check ``sink is NULL_SINK`` available to tests
NULL_SINK = NullSink()


class MemorySink(TraceSink):
    """Collect events in memory (the default capture for CLI exports)."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class JsonlStreamSink(TraceSink):
    """Stream events straight to a JSONL file handle (constant memory);
    the bytes :func:`write_jsonl` writes for the same events."""

    enabled = True

    def __init__(self, fh: IO[str]) -> None:
        self._fh = fh
        self._fh.write(_schema_header() + "\n")

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(event._jsonl() + "\n")

    def close(self) -> None:
        self._fh.close()


# ---------------------------------------------------------------------- #
# JSONL export / import


def write_jsonl(events: Iterable[TraceEvent],
                path_or_fh: Union[str, IO[str]]) -> int:
    """Write events one-JSON-object-per-line; returns the event count.

    Each line is the event's ``_jsonl()``: byte for byte
    ``json.dumps(event.to_dict())``, the per-access, attempt, commit and
    wait kinds formatted directly.  Accepts a path or an open file handle
    (the CLI passes a handle from an atomic-write context so a killed
    process never truncates the trace).
    The first line is a ``{"schema": ..., "version": ...}`` header (not
    counted); :func:`read_jsonl` validates it on the way back in."""
    if isinstance(path_or_fh, str):
        with open(path_or_fh, "w") as fh:
            return write_jsonl(events, fh)
    write = path_or_fh.write
    write(_schema_header() + "\n")
    count = 0
    for event in events:
        write(event._jsonl() + "\n")
        count += 1
    return count


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a whole JSONL trace into a list (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


def iter_jsonl(path: str) -> Iterator[TraceEvent]:
    """Yield a JSONL trace's :class:`TraceEvent` objects one line at a
    time, so a consumer that folds over them holds no more than one event.

    The first non-blank line may be a schema header; a header naming an
    unknown schema or version is rejected with a :class:`ReproError`
    (don't half-parse artifacts from a future build).  Headerless files
    (pre-versioning traces) are accepted as version 1.  A line that is
    not a JSON object, lacks ``ts`` or ``kind``, or carries a non-numeric
    ``ts`` / ``worker`` is a :class:`ReproError` naming its line number."""
    for _, event in _iter_numbered_jsonl(path):
        yield event


def _iter_numbered_jsonl(path: str) -> Iterator[Tuple[int, TraceEvent]]:
    """:func:`iter_jsonl` with each event's line number, so a consumer can
    name ``path:line`` when an event's attrs values turn out wrong-typed."""
    first = True
    # the decoder's C scanner without json.loads' wrapper: a stripped line
    # is one JSON value iff the scan ends at its end
    scan = json.JSONDecoder().scan_once
    try:
        fh = open(path)
    except OSError as exc:
        raise ReproError(f"cannot read trace {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    data, end = scan(line, 0)
                except StopIteration:
                    end = -1
                if end != len(line):
                    # no value, or data after it: json.loads raises with
                    # its own message
                    data = json.loads(line)
            except ValueError as exc:
                raise ReproError(
                    f"{path}:{lineno}: not a JSONL trace: {exc}") from exc
            if first:
                first = False
                if isinstance(data, dict) and "schema" in data:
                    schema = data.get("schema")
                    version = data.get("version")
                    if schema != TRACE_SCHEMA:
                        raise ReproError(
                            f"{path}: unknown trace schema {schema!r} "
                            f"(expected {TRACE_SCHEMA!r})")
                    if version != TRACE_SCHEMA_VERSION:
                        raise ReproError(
                            f"{path}: unsupported {TRACE_SCHEMA} version "
                            f"{version!r} (this build reads version "
                            f"{TRACE_SCHEMA_VERSION})")
                    continue  # header consumed; not an event
            if not isinstance(data, dict):
                raise ReproError(f"{path}:{lineno}: trace event is not a "
                                 f"JSON object: {line[:60]}")
            try:
                event = TraceEvent.from_dict(data)
            except KeyError as exc:
                raise ReproError(f"{path}:{lineno}: trace event lacks "
                                 f"field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ReproError(f"{path}:{lineno}: malformed trace event: "
                                 f"{exc}") from exc
            yield lineno, event


# ---------------------------------------------------------------------- #
# Chrome trace-event export (Perfetto / chrome://tracing)

_PID = 1  # single simulated process


def _chrome_meta(tids: Sequence[int]) -> List[dict]:
    meta = [{"name": "process_name", "ph": "M", "pid": _PID,
             "args": {"name": "repro simulation"}}]
    for tid in sorted(tids):
        meta.append({"name": "thread_name", "ph": "M", "pid": _PID,
                     "tid": tid, "args": {"name": f"worker {tid}"}})
    return meta


def chrome_trace_events(events: Sequence[TraceEvent]) -> List[dict]:
    """Convert a trace to Chrome trace-event dicts.

    Transaction attempts become duration (B/E) slices named by transaction
    type; waits become nested ``wait:<kind>`` slices; backoff becomes a
    complete (X) slice whose duration is the pause; everything else becomes
    an instant (i) marker.  Slices still open when the trace ends (parked
    workers, in-flight attempts) are closed at the final timestamp so the
    B/E stream always balances and the file always loads.
    """
    out: List[dict] = []
    open_stack: Dict[int, List[str]] = {}  # tid -> names of open B slices
    tids = set()
    last_ts = max((e.ts for e in events), default=0.0)

    def begin(ts: float, tid: int, name: str, args: dict) -> None:
        out.append({"name": name, "ph": "B", "ts": ts, "pid": _PID,
                    "tid": tid, "cat": "sim", "args": args})
        open_stack.setdefault(tid, []).append(name)

    def end(ts: float, tid: int, args: Optional[dict] = None) -> None:
        stack = open_stack.get(tid)
        if not stack:
            return
        name = stack.pop()
        record: dict = {"name": name, "ph": "E", "ts": ts, "pid": _PID,
                        "tid": tid, "cat": "sim"}
        if args:
            record["args"] = args
        out.append(record)

    for event in events:
        tid = event.worker
        tids.add(tid)
        attrs = dict(event.attrs or {})
        if event.txn is not None:
            attrs["txn"] = event.txn
        if event.kind == EventKind.TX_START:
            begin(event.ts, tid, event.txn_type or "txn", attrs)
        elif event.kind == EventKind.WAIT_BEGIN:
            begin(event.ts, tid, f"wait:{attrs.get('wait_kind', '?')}", attrs)
        elif event.kind == EventKind.WAIT_END:
            end(event.ts, tid, attrs)
        elif event.kind in (EventKind.COMMIT, EventKind.ABORT):
            # close any wait slice left open by an abort thrown into a wait
            stack = open_stack.get(tid, [])
            while len(stack) > 1:
                end(event.ts, tid)
            attrs["outcome"] = event.kind
            end(event.ts, tid, attrs)
        elif event.kind == EventKind.BACKOFF:
            out.append({"name": "backoff", "ph": "X", "ts": event.ts,
                        "dur": attrs.get("pause", 0.0), "pid": _PID,
                        "tid": tid, "cat": "sim", "args": attrs})
        else:
            out.append({"name": event.kind, "ph": "i", "ts": event.ts,
                        "pid": _PID, "tid": tid, "s": "t", "cat": "sim",
                        "args": attrs})
    for tid, stack in open_stack.items():
        while stack:
            end(last_ts, tid, {"outcome": "trace_end"})
    return _chrome_meta(sorted(tids)) + out


def export_chrome_trace(events: Sequence[TraceEvent],
                        path_or_fh: Union[str, IO[str]]) -> int:
    """Write a Chrome trace-event JSON file; returns the slice count."""
    trace_events = chrome_trace_events(events)
    document = {"traceEvents": trace_events, "displayTimeUnit": "ms",
                "otherData": {"source": "repro", "time_unit": "us (1 tick)"}}
    if isinstance(path_or_fh, str):
        with open(path_or_fh, "w") as fh:
            json.dump(document, fh)
    else:
        json.dump(document, path_or_fh)
    return len(trace_events)
