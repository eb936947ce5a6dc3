"""Content-addressed on-disk cache for campaign cell results.

A cell's cache key is a SHA-256 over the *content* that determines its result:

* the **spec fingerprint** — the function tabulated on a bounded grid plus its
  name and dimension (callables cannot be hashed, but their values can);
* the construction **strategy** (different strategies build different CRNs);
* the **input** vector;
* the full :meth:`~repro.api.config.RunConfig.cache_key` (trials, step budget,
  quiescence window, seed, engine — seeded runs are deterministic, so the seed
  is part of the content);
* the **engine** name (also in the config, kept explicit for readability);
* a **code-version salt** (:data:`CODE_SALT`) bumped whenever simulation
  semantics change, so stale results can never be replayed across a
  behavioural change.

Only seeded, successful cells are cached: an unseeded run is *meant* to be
fresh entropy, and an error may be environmental.  Values are the
:meth:`~repro.lab.store.CellResult.deterministic_dict` payload, appended as
one JSONL line per put to the writer's own segment file under the cache
root (see :class:`ResultCache`); a torn or corrupted line reads as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.api.config import CANONICAL_JSON
from repro.core.specs import FunctionSpec
from repro.lab.store import JsonlLog
from repro.obs.metrics import MetricsRegistry, global_registry

#: Bump when a change to the simulators / constructions changes the row some
#: existing cache key would produce: a seeded stream, an engine's semantics,
#: or a construction.  Adding or removing an engine, or changing what
#: ``"auto"`` resolves to, needs no bump: a cell's key hashes its resolved
#: engine *name*, so every other entry stays valid.
CODE_SALT = "repro-lab-5"

#: Side length of the grid a spec is tabulated on for fingerprinting.
FINGERPRINT_BOUND = 5

#: Default cache root (relative to the working directory; see .gitignore).
DEFAULT_CACHE_DIR = ".repro-cache"

#: File-name prefix of the cache's JSONL segments (see :class:`ResultCache`).
SEGMENT_PREFIX = "seg-"

#: An index entry packs a line's offset and its segment's number into one
#: int, ``offset << _SEGMENT_BITS | segment``.
_SEGMENT_BITS = 24
_SEGMENT_MASK = (1 << _SEGMENT_BITS) - 1


_canonical_json = CANONICAL_JSON.encode


def spec_fingerprint(spec: FunctionSpec, bound: int = FINGERPRINT_BOUND) -> str:
    """A content hash of a spec: name, dimension, and values on ``[0, bound)^d``.

    Two specs with the same name but different behaviour (an edited catalog
    entry, a differently-parameterized factory) fingerprint differently, so
    cached results can never be attributed to the wrong function.
    """
    values = [[list(x), spec(x)] for x in spec.grid(bound)]
    blob = _canonical_json(
        {"name": spec.name, "dimension": spec.dimension, "bound": bound, "values": values}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_cache_key(
    spec_fingerprint_hex: str,
    strategy: str,
    input_value,
    engine: str,
    config_key: str,
    salt: str = CODE_SALT,
) -> str:
    """The content address of one cell's result (see the module docstring)."""
    blob = _canonical_json(
        {
            "spec_fp": spec_fingerprint_hex,
            "strategy": strategy,
            "input": [int(v) for v in input_value],
            "engine": engine,
            "config": config_key,
            "salt": salt,
        }
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed key -> JSON-payload memo under a root directory.

    **Layout.**  The root holds per-writer append-only JSONL *segments*,
    ``seg-<creation time>-<pid>-<random token>.jsonl``, one line
    ``{"k": key, "v": payload}`` per :meth:`put`.  An instance opens its own
    segment lazily, on its first put, and is that segment's only writer; the
    line handling (torn-tail repair, group-committed fsync, reading from an
    offset) is :class:`~repro.lab.store.JsonlLog`'s.  Anything else under the
    root — notably the one-file-per-key shard directories of earlier versions
    — is ignored, never read or migrated, so the first replay after that
    upgrade runs cold once.

    **Index.**  Each instance keeps a ``key -> (segment number, offset)``
    map: no payloads, no per-entry paths, not even the keys — it is keyed by
    ``hash(key)``, and a hit's line carries its key, which must match, so a
    hash collision can cost a miss but never return a foreign payload.  The
    first lookup builds it by reading every segment once; every later miss
    extends it by tailing each segment from where the last read stopped —
    one ``listdir`` plus one ``stat`` per segment, and a read only of
    segments that grew — so a second server process, or a campaign sharing
    the root, sees other writers' entries without a restart.  A hit reads
    its one line back.  Last write wins (segments are read in creation
    order, then as they grow); a torn or garbage line reads as a miss, and
    refreshes the index once, so a key republished since is found.

    **Crash contract.**  A put is written and flushed at once (other
    processes see it immediately) and fsync'd by group commit, always on
    :meth:`close`, which campaigns and the server call when they finish.  A
    crash loses at most the entries since the last commit; they read as
    misses and are recomputed.  The memo never returns a torn entry.

    Every instance reports into a :class:`repro.obs.metrics.MetricsRegistry`
    (the shared default unless one is passed — the server passes its own so
    ``GET /v1/metrics`` and ``/v1/stats`` read the same series):

    * ``repro_result_cache_requests_total{result="hit"|"miss"}`` — ``get``
      outcomes;
    * ``repro_result_cache_get_seconds`` / ``repro_result_cache_put_seconds``
      — lookup and publish latency histograms, the numbers that expose a
      cache root on slow storage.

    A cache is always truthy, empty or not: ``if cache:`` asks whether there
    is a cache, never how full it is.  ``len(cache)`` counts distinct keys
    after bringing the index up to date, which reads every segment that grew;
    it stays off every per-cell and per-request path, and ``repr`` reads
    nothing.
    """

    def __init__(
        self, root: str = DEFAULT_CACHE_DIR, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.root = str(root)
        self.registry = registry if registry is not None else global_registry()
        requests = self.registry.counter(
            "repro_result_cache_requests_total",
            "ResultCache.get outcomes by result (hit/miss).",
            labels=("result",),
        )
        self._hits = requests.labels(result="hit")
        self._misses = requests.labels(result="miss")
        self._get_seconds = self.registry.histogram(
            "repro_result_cache_get_seconds", "ResultCache.get latency."
        )
        self._put_seconds = self.registry.histogram(
            "repro_result_cache_put_seconds",
            "ResultCache.put latency (segment append; fsync by group commit).",
        )
        self._lock = threading.Lock()
        self._index: Dict[int, int] = {}  # see _SEGMENT_BITS
        self._segments: List[JsonlLog] = []
        self._names: Set[str] = set()
        self._read_to: List[int] = []  # per segment: bytes the index covers
        self._sizes: List[int] = []  # per segment: size at the last read
        self._own: Optional[int] = None  # this instance's segment number

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` (corruption reads as a miss)."""
        start = time.perf_counter()
        try:
            data = self._lookup(key)
        finally:
            self._get_seconds.observe(time.perf_counter() - start)
        if data is None:
            self._misses.inc()
            return None
        self._hits.inc()
        return data

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Append ``payload`` under ``key`` to this instance's segment.

        The line is flushed before ``put`` returns, so a reader in another
        process (a second server sharing this root as its memo) finds it on
        its next miss; it can only ever observe the old entry, the complete
        new entry, or a miss — never a torn write.  Last writer wins, which
        is sound because entries are content-addressed: two writers racing on
        one key are writing the same payload.
        """
        start = time.perf_counter()
        line = _canonical_json({"k": key, "v": payload}) + "\n"
        with self._lock:
            if self._own is None:
                os.makedirs(self.root, exist_ok=True)
                self._own = self._add_segment(
                    f"{SEGMENT_PREFIX}{time.time_ns():016x}-{os.getpid()}-"
                    f"{secrets.token_hex(4)}.jsonl"
                )
            offset = self._segments[self._own].append(line.encode("utf-8"))
            self._index[hash(key)] = offset << _SEGMENT_BITS | self._own
        self._put_seconds.observe(time.perf_counter() - start)

    def close(self) -> None:
        """Commit this instance's segment (the final group commit) and release it."""
        with self._lock:
            if self._own is not None:
                self._segments[self._own].close()

    def missing(self, keys: Iterable[str]) -> List[str]:
        """The ``keys`` with no readable entry, after one index refresh.

        For bulk producers: one refresh per call instead of one per missing
        key, and no hit/miss counts.
        """
        with self._lock:
            self._refresh()
        return [key for key in keys if self._lookup(key, refresh=False) is None]

    def _lookup(self, key: str, refresh: bool = True) -> Optional[Dict[str, Any]]:
        """Read ``key``'s indexed line; a miss, or a line that does not parse
        or names another key, refreshes the index once and reads again."""
        with self._lock:
            where = self._index.get(hash(key))
        data = None if where is None else self._read(key, where)
        if data is None and refresh:
            with self._lock:
                self._refresh()
                fresh = self._index.get(hash(key))
            if fresh is not None and fresh != where:
                data = self._read(key, fresh)
        return data

    def _read(self, key: str, where: int) -> Optional[Dict[str, Any]]:
        try:
            line = self._segments[where & _SEGMENT_MASK].read_line(where >> _SEGMENT_BITS)
            entry = json.loads(line)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("k") != key:
            return None
        payload = entry.get("v")
        return payload if isinstance(payload, dict) else None

    def _refresh(self) -> None:
        """Index every complete line written to other segments since the last read."""
        try:
            names = sorted(
                name
                for name in os.listdir(self.root)
                if name.startswith(SEGMENT_PREFIX) and name.endswith(".jsonl")
            )
        except OSError:
            names = []
        for name in names:
            if name not in self._names:
                self._add_segment(name)
        for number, log in enumerate(self._segments):
            if number == self._own:
                continue  # our own puts index themselves
            try:
                size = os.stat(log.path).st_size
            except OSError:
                continue
            if size == self._sizes[number]:
                continue
            self._sizes[number] = size
            keys, self._read_to[number] = log.tail_keys(self._read_to[number])
            for key, offset in keys:
                self._index[hash(key)] = offset << _SEGMENT_BITS | number

    def _add_segment(self, name: str) -> int:
        self._names.add(name)
        self._segments.append(JsonlLog(os.path.join(self.root, name), "k"))
        self._read_to.append(0)
        self._sizes.append(-1)
        return len(self._segments) - 1

    def __contains__(self, key: str) -> bool:
        return self._lookup(key) is not None

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        """Number of distinct keys: reads every segment that grew, for reports only."""
        with self._lock:
            self._refresh()
            return len(self._index)

    def __repr__(self) -> str:
        return f"ResultCache({self.root!r})"
