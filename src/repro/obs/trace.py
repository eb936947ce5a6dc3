"""Span/event tracing with a zero-cost disabled path and a JSONL sink.

Design constraints (DESIGN.md §9):

* **Off by default, ~free when off.**  The module-level tracer starts
  disabled; ``tracer.span(...)`` then returns a shared no-op singleton and
  ``tracer.event(...)`` returns after one attribute check.  Hot loops are
  expected to check ``tracer.enabled`` once per *run*, never per step —
  the kernel emits a single completed span per run via :meth:`Tracer.emit_span`
  with timings it measured anyway.
* **Monotonic durations, unix timestamps.**  Span durations come from
  ``time.perf_counter()`` deltas (immune to clock steps); start times are
  stamped with ``time.time()`` so spans from different processes land on one
  timeline.
* **Process/thread safety.**  Each record is serialized to a single line and
  written with one ``os.write`` on an ``O_APPEND`` descriptor, so pool
  workers and the parent can share a trace file without interleaving bytes;
  a per-process lock orders writers within a process.  The writer re-opens
  its descriptor after a fork (pid check) rather than sharing file offsets.
* **Schema-versioned.**  The first line of every trace file is a ``meta``
  record carrying :data:`TRACE_SCHEMA`; :func:`validate_trace` checks the
  invariants that ``python -m repro trace`` and the CI ``obs-smoke`` job
  rely on.

Record shapes (one JSON object per line)::

    {"type": "meta", "schema": "repro-trace-v1", "version": ..., "pid": ...,
     "created_unix": ..., "manifest": {...}?}
    {"type": "span", "name": ..., "t0": <unix s>, "dur_s": <float >= 0>,
     "pid": ..., "tid": ..., "id": ..., "parent": <id or None>, "attrs": {}}
    {"type": "event", "name": ..., "t": <unix s>, "pid": ..., "tid": ...,
     "attrs": {}}
"""

from __future__ import annotations

import io
import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

#: Bump on any backwards-incompatible change to the record shapes above.
TRACE_SCHEMA = "repro-trace-v1"

_RECORD_TYPES = ("meta", "span", "event")


class JsonlTraceSink:
    """Append-only JSONL writer; one ``os.write`` per record (fork-safe)."""

    def __init__(self, path: str, manifest: Optional[Dict[str, Any]] = None) -> None:
        # lab's package init imports this module: bind the writer at call time
        from repro.lab.store import replace_file

        self.path = str(path)
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._fd_pid: Optional[int] = None
        header: Dict[str, Any] = {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "pid": os.getpid(),
            "created_unix": time.time(),
        }
        if manifest is not None:
            header["manifest"] = manifest
        # Replace-then-append: the creating process owns the header line.
        line = json.dumps(header, sort_keys=True) + "\n"
        replace_file(self.path, line.encode("utf-8"))

    def _descriptor(self) -> int:
        pid = os.getpid()
        if self._fd is None or self._fd_pid != pid:
            # After a fork the child must not share the parent's file offset
            # bookkeeping; O_APPEND makes each write land atomically at EOF.
            self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            self._fd_pid = pid
        return self._fd

    def write(self, record: Dict[str, Any]) -> None:
        line = (json.dumps(record, sort_keys=True, default=str) + "\n").encode("utf-8")
        with self._lock:
            os.write(self._descriptor(), line)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None and self._fd_pid == os.getpid():
                os.close(self._fd)
            self._fd = None
            self._fd_pid = None


class _NoopSpan:
    """Shared do-nothing span: the entire cost of tracing-while-disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


#: The singleton handed out by a disabled tracer — never allocate per call.
NOOP_SPAN = _NoopSpan()


class Span:
    """A live span; use as a context manager or close via ``__exit__``."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent", "t0_unix", "_t0_perf")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent = tracer._current_span_id()
        self.t0_unix = time.time()
        self._t0_perf = time.perf_counter()

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self.span_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.tracer._pop()
        self.tracer._write(
            {
                "type": "span",
                "name": self.name,
                "t0": self.t0_unix,
                "dur_s": max(0.0, time.perf_counter() - self._t0_perf),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "id": self.span_id,
                "parent": self.parent,
                "attrs": self.attrs,
            }
        )


class Tracer:
    """Span/event emitter bound to a sink; disabled instances are no-ops."""

    def __init__(self, sink: Optional[JsonlTraceSink] = None) -> None:
        self.sink = sink
        self.enabled = sink is not None
        self._seq = itertools.count(1)
        self._stack = threading.local()

    # -- emitting ------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context-manager span, or the shared no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """A point-in-time event record (heartbeats, cache hits, ...)."""
        if not self.enabled:
            return
        self._write(
            {
                "type": "event",
                "name": name,
                "t": time.time(),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "attrs": attrs,
            }
        )

    def emit_span(self, name: str, t0_unix: float, dur_s: float, **attrs: Any) -> None:
        """Record a span whose timing the caller already measured.

        This is the hot-path-friendly form: the kernel times its run loop
        anyway (``RunStats.wall_s``), so when tracing is on it reports that
        measurement here instead of paying for a live :class:`Span` object.
        """
        if not self.enabled:
            return
        self._write(
            {
                "type": "span",
                "name": name,
                "t0": t0_unix,
                "dur_s": max(0.0, float(dur_s)),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "id": self._next_id(),
                "parent": self._current_span_id(),
                "attrs": attrs,
            }
        )

    # -- plumbing ------------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        if self.sink is not None:
            self.sink.write(record)

    def _next_id(self) -> str:
        return f"{os.getpid():x}-{next(self._seq)}"

    def _current_span_id(self) -> Optional[str]:
        stack = getattr(self._stack, "ids", None)
        return stack[-1] if stack else None

    def _push(self, span_id: str) -> None:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = []
            self._stack.ids = stack
        stack.append(span_id)

    def _pop(self) -> None:
        stack = getattr(self._stack, "ids", None)
        if stack:
            stack.pop()


#: Process-global tracer.  Disabled by default; campaigns/servers install an
#: enabled one for the duration of a traced run via :func:`install_tracer`.
_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    return _GLOBAL


def install_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer; returns the previous one (restore in finally)."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = tracer
    return previous


# -- reading / validating ----------------------------------------------------


def read_trace(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the records of a JSONL trace file (raises on malformed JSON)."""
    with io.open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: malformed trace line: {exc}")
            yield record


def merge_trace_files(
    out_path: str,
    shard_paths: List[str],
    manifest: Optional[Dict[str, Any]] = None,
) -> int:
    """Merge per-shard traces into one schema-valid trace file at ``out_path``.

    Built for distributed campaigns: every worker writes its own
    ``repro-trace-v1`` shard, and the coordinator folds them into the
    campaign's ``trace.jsonl``.  Shard ``meta`` headers are dropped in favour
    of one fresh header (carrying ``manifest`` and the shard count);
    ``lab.cell`` spans are **deduplicated by their cell id** — a cell executed
    twice (lease expiry, resume) keeps only the latest span, mirroring the
    store's last-write-wins row merge — and everything is ordered by
    timestamp.  Unreadable shards are skipped (a worker killed mid-write must
    not poison the merge); returns the number of records written after the
    header.  ``out_path`` may itself be listed as a shard: records are read
    before the output is replaced atomically.
    """
    from repro.lab.store import replace_file

    by_cell: Dict[str, Dict[str, Any]] = {}
    rest: List[Dict[str, Any]] = []
    for path in shard_paths:
        try:
            records = list(read_trace(path))
        except (OSError, ValueError):
            continue
        for record in records:
            if record.get("type") == "meta":
                continue
            cell = None
            if record.get("type") == "span" and record.get("name") == "lab.cell":
                attrs = record.get("attrs")
                if isinstance(attrs, dict):
                    cell = attrs.get("cell")
            if cell is None:
                rest.append(record)
                continue
            previous = by_cell.get(cell)
            if previous is None or (record.get("t0") or 0.0) >= (previous.get("t0") or 0.0):
                by_cell[cell] = record

    def _stamp(record: Dict[str, Any]) -> float:
        value = record.get("t0", record.get("t"))
        return float(value) if isinstance(value, (int, float)) else 0.0

    merged = sorted(rest + list(by_cell.values()), key=_stamp)
    header: Dict[str, Any] = {
        "type": "meta",
        "schema": TRACE_SCHEMA,
        "pid": os.getpid(),
        "created_unix": time.time(),
        "merged_shards": len(shard_paths),
    }
    if manifest is not None:
        header["manifest"] = manifest
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(record, sort_keys=True, default=str) for record in merged]
    replace_file(out_path, ("\n".join(lines) + "\n").encode("utf-8"))
    return len(merged)


def validate_trace(records: List[Dict[str, Any]]) -> List[str]:
    """Schema-check a trace; returns human-readable problems ([] = valid)."""
    problems: List[str] = []
    if not records:
        return ["trace is empty (expected a leading meta record)"]
    head = records[0]
    if head.get("type") != "meta":
        problems.append(f"first record must be meta, got {head.get('type')!r}")
    elif head.get("schema") != TRACE_SCHEMA:
        problems.append(
            f"unsupported trace schema {head.get('schema')!r} (expected {TRACE_SCHEMA!r})"
        )
    span_ids = {
        record.get("id")
        for record in records
        if record.get("type") == "span" and record.get("id") is not None
    }
    for index, record in enumerate(records):
        kind = record.get("type")
        where = f"record {index}"
        if kind not in _RECORD_TYPES:
            problems.append(f"{where}: unknown record type {kind!r}")
            continue
        if kind == "span":
            for key in ("name", "t0", "dur_s", "pid", "id"):
                if key not in record:
                    problems.append(f"{where}: span missing {key!r}")
            duration = record.get("dur_s")
            if isinstance(duration, (int, float)) and duration < 0:
                problems.append(f"{where}: negative span duration {duration}")
            parent = record.get("parent")
            if parent is not None and parent not in span_ids:
                problems.append(f"{where}: parent {parent!r} is not a span id")
        elif kind == "event":
            for key in ("name", "t", "pid"):
                if key not in record:
                    problems.append(f"{where}: event missing {key!r}")
    return problems
