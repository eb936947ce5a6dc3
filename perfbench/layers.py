"""Per-layer spans, recorded from the benchmark's side of each layer boundary.

The traced run wraps the public functions and methods of each layer (see
``TARGETS``) with timers that keep everything in memory: per-name call counts,
total and self time, a few exact counters (engine events, ``auto`` picks,
cache hits), and -- while ``Recorder.recording`` is set -- full span records in
the repository's ``repro-trace-v1`` shape, so ``python -m repro trace`` can
validate and render the file written at the end.  Nothing inside ``src/`` is
edited: methods are replaced on their class, and names bound by
``from ... import`` are replaced in the module that looks them up.

The end-to-end runs never call :func:`install`; :func:`assert_unwrapped`
checks that no target carries a wrapper there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Marker attribute set on every wrapper this module installs.
MARK = "__perfbench_wrapper__"


class Recorder:
    """In-memory span sink: aggregates always, full records while recording."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: span name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: exact counters and extra accumulators (events, picks, hits, ...)
        self.values: Dict[str, float] = defaultdict(float)
        self.records: List[Dict[str, Any]] = []
        self.recording = False
        self._stack: List[List[Any]] = []  # frames: [span id, child seconds]
        self._seq = itertools.count(1)

    def open(self) -> Tuple[List[Any], float, float]:
        frame = [f"{self.pid:x}-b{next(self._seq)}", 0.0]
        self._stack.append(frame)
        return frame, time.time(), time.perf_counter()

    def close(
        self, opened: Tuple[List[Any], float, float], name: str
    ) -> Tuple[float, float]:
        frame, t0_unix, t0 = opened
        duration = time.perf_counter() - t0
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        self_s = max(0.0, duration - frame[1])
        self._record(name, frame[0], t0_unix, duration, self_s)
        return duration, self_s

    def leaf(self, name: str, t0_unix: float, duration: float) -> None:
        """A span measured in pieces (a generator's active time); never a parent."""
        self._record(name, f"{self.pid:x}-b{next(self._seq)}", t0_unix, duration, duration)

    def _record(self, name: str, span_id: str, t0_unix: float, duration: float,
                self_s: float) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
        if self.recording:
            self.records.append(
                {
                    "type": "span",
                    "name": name,
                    "t0": t0_unix,
                    "dur_s": duration,
                    "pid": self.pid,
                    "tid": threading.get_ident(),
                    "id": span_id,
                    "parent": parent[0] if parent is not None else None,
                    "attrs": {},
                }
            )

    def add(self, key: str, amount: float = 1.0) -> None:
        self.values[key] += amount

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "stats": {name: list(entry) for name, entry in self.stats.items()},
            "values": dict(self.values),
        }

    def dump(self, path: str) -> None:
        payload = self.snapshot()
        payload["records"] = self.records
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` for two :meth:`Recorder.snapshot` results."""
    stats = {}
    for name, entry in after["stats"].items():
        base = before["stats"].get(name, [0, 0.0, 0.0])
        stats[name] = [a - b for a, b in zip(entry, base)]
    values = {
        key: value - before["values"].get(key, 0.0)
        for key, value in after["values"].items()
    }
    return {"stats": stats, "values": values}


def merge(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum snapshots taken in several processes."""
    stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    values: Dict[str, float] = defaultdict(float)
    for part in parts:
        for name, entry in part["stats"].items():
            stats[name] = [a + b for a, b in zip(stats[name], entry)]
        for key, value in part["values"].items():
            values[key] += value
    return {"stats": dict(stats), "values": dict(values)}


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

After = Callable[["Recorder", Any, tuple, dict, float, float], None]


def _wrap_call(rec: Recorder, name: str, fn: Callable, after: Optional[After]):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            opened = rec.open()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                duration, self_s = rec.close(opened, name)
                if after is not None:
                    after(rec, result, args, kwargs, duration, self_s)

    elif inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Only the time spent producing items counts; the consumer's work
            # between items belongs to the caller's span.
            t0_unix = time.time()
            active = 0.0
            items = 0
            iterator = fn(*args, **kwargs)
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        active += time.perf_counter() - start
                        return
                    active += time.perf_counter() - start
                    items += 1
                    yield item
            finally:
                iterator.close()
                rec.leaf(name, t0_unix, active)
                if after is not None:
                    after(rec, items, args, kwargs, active, active)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = rec.open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration, self_s = rec.close(opened, name)
                if after is not None:
                    after(rec, result, args, kwargs, duration, self_s)

    setattr(wrapper, MARK, True)
    return wrapper


def _wrap_read_request(rec: Recorder, name: str, fn: Callable, after):
    """``read_request`` minus the idle wait for the next keep-alive request.

    The server awaits the next request line inside ``read_request``; that wait
    is client think time, not parsing.  The wrapper waits for the first bytes
    itself (``StreamReader`` has no public peek) and times only the parse.
    """

    @functools.wraps(fn)
    async def wrapper(reader, *args, **kwargs):
        wait = getattr(reader, "_wait_for_data", None)
        if wait is not None and not getattr(reader, "_buffer", b"") and not reader.at_eof():
            await wait("read_request")
        opened = rec.open()
        try:
            return await fn(reader, *args, **kwargs)
        finally:
            rec.close(opened, name)

    setattr(wrapper, MARK, True)
    return wrapper


# -- result hooks: exact counters --------------------------------------------


def _after_resolve_engine(rec, result, args, kwargs, duration, self_s):
    selector = args[0] if args else kwargs.get("selector")
    if selector == "auto":
        rec.add(f"campaign.auto_picks.{result}")


def _after_cache_get(rec, result, args, kwargs, duration, self_s):
    if result is not None:
        rec.add("cache.get_hits")


def _after_iter_rows(rec, items, args, kwargs, duration, self_s):
    rec.add("store.rows_scanned", items)


def _after_run_many(rec, result, args, kwargs, duration, self_s):
    if result is None:
        return
    config = kwargs.get("config")
    engine = getattr(config, "engine", None) or kwargs.get("engine", "python")
    events = sum(result.steps)
    rec.add("engine.events", events)
    rec.add(f"engine.events.{engine}", events)
    rec.add(f"engine.run_many_s.{engine}", duration)


def _after_claim(rec, result, args, kwargs, duration, self_s):
    if result is not None:
        rec.add("backends.claims", 1)
        rec.add("backends.claim_s", duration)


def _after_execute_cell(rec, result, args, kwargs, duration, self_s):
    if result is None:
        return
    kind = "hit" if result[1] else "miss"
    rec.add(f"jobs.execute_cell.{kind}", 1)
    rec.add(f"jobs.execute_cell_self_s.{kind}", self_s)


#: (module, attribute path, span name, result hook, wrapper factory)
TARGETS: List[Tuple[str, str, str, Optional[After], Callable]] = [
    ("repro.lab.campaign", "run_campaign", "campaign.run", None, _wrap_call),
    ("repro.lab.campaign", "Campaign.expand", "campaign.expand", None, _wrap_call),
    ("repro.lab.campaign", "resolve_engine", "campaign.resolve_engine",
     _after_resolve_engine, _wrap_call),
    ("repro.lab.campaign", "spec_fingerprint", "campaign.spec_fingerprint", None, _wrap_call),
    ("repro.lab.campaign", "summarize", "aggregate.summarize", None, _wrap_call),
    ("repro.lab.cache", "ResultCache.get", "cache.get", _after_cache_get, _wrap_call),
    ("repro.lab.cache", "ResultCache.put", "cache.put", None, _wrap_call),
    ("repro.lab.cache", "ResultCache.__len__", "cache.len", None, _wrap_call),
    ("repro.lab.store", "ResultStore.append", "store.append", None, _wrap_call),
    ("repro.lab.store", "ResultStore.iter_rows", "store.scan", _after_iter_rows, _wrap_call),
    ("repro.lab.store", "CellResult.to_dict", "row.to_dict", None, _wrap_call),
    ("repro.lab.executor", "run_cell", "executor.run_cell", None, _wrap_call),
    ("repro.lab.executor", "run_many", "engine.run_many", _after_run_many, _wrap_call),
    ("repro.core.characterization", "build_crn_for", "core.build_crn", None, _wrap_call),
    ("repro.lab.backends", "SharedDirQueue.enqueue", "backends.enqueue", None, _wrap_call),
    ("repro.lab.backends", "SharedDirQueue.claim", "backends.claim", _after_claim, _wrap_call),
    ("repro.lab.backends", "SharedDirQueue.complete", "backends.complete", None, _wrap_call),
    ("repro.lab.backends", "SharedDirQueue.done_ids", "backends.done_poll", None, _wrap_call),
    ("repro.lab.backends", "SharedDirQueue.merged_rows", "backends.merged_rows", None, _wrap_call),
    ("repro.serve.server", "read_request", "serve.read_request", None, _wrap_read_request),
    ("repro.serve.server", "dispatch", "http.dispatch", None, _wrap_call),
    ("repro.serve.protocol", "Response.encode", "serve.encode", None, _wrap_call),
    ("repro.serve.handlers", "single_cell", "jobs.single_cell", None, _wrap_call),
    ("repro.serve.jobs", "JobManager.execute_cell", "jobs.execute_cell",
     _after_execute_cell, _wrap_call),
    ("repro.serve.jobs", "JobManager.cache_lookup", "jobs.cache_lookup", None, _wrap_call),
    ("repro.serve.jobs", "JobManager.cache_publish", "jobs.cache_publish", None, _wrap_call),
]


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Installed:
    """The wrappers currently installed; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []

    def remove(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def install(rec: Recorder) -> Installed:
    installed = Installed()
    for module_name, path, name, after, factory in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        installed.saved.append((owner, attr, original))
        setattr(owner, attr, factory(rec, name, original, after))
    return installed


def assert_unwrapped() -> None:
    """Fail loudly if tracing or any wrapper is active (end-to-end runs)."""
    from repro.obs.trace import get_tracer

    if get_tracer().enabled:
        raise RuntimeError("repro tracer is enabled during an end-to-end run")
    for module_name, path, _name, _after, _factory in TARGETS:
        owner, attr = _resolve(module_name, path)
        if getattr(getattr(owner, attr), MARK, False):
            raise RuntimeError(f"{module_name}.{path} is wrapped during an end-to-end run")
