"""Pluggable work-queue backends for distributed, sharded campaigns.

The executor seam (:func:`~repro.lab.campaign.run_campaign` accepts anything
with ``map(cells) -> iterator of CellResult``) generalizes to a **work
queue**: campaign cells are deterministic, content-addressed, and resumable
from the JSONL store, so shards can be *claimed idempotently* by any number
of hosts and the per-worker results merged by cache key.  Two pieces:

* :class:`SharedDirQueue` — the claim / lease / renew / complete protocol
  over content-addressed cell ids, on a filesystem any number of ``python
  -m repro worker --queue-dir ...`` processes can serve, coordinated purely
  by atomic directory-entry operations (no server, no locks, works on any
  shared POSIX directory);
* :class:`SharedDirBackend` — the executor-seam adapter ``run_campaign``
  consumes; the local backend is :class:`~repro.lab.executor.PoolExecutor`,
  whose forked workers (:class:`~repro.lab.pool.WorkerPool`) share one host.

**The lease contract.**  The work list is the descriptor memo.  Each queue
instance walks its keys with a cursor, skipping ids it knows are done and
ids with a done marker.  A claim takes a *batch* of cells, sized by guided
self-scheduling: the unwalked remainder over a small multiple of the workers
that have joined, so batches shrink toward the end of the walk.  It creates
one dot-named batch file in ``leases/`` and wins each cell by hard-linking
``leases/<cell_id>`` to it; a link, like an ``O_EXCL`` create, has exactly
one winner, and a loser moves on.  At the end of the walk the instance tails
the memo segments for keys written since, so any number of producers may
enqueue at once.  A lease carries a deadline, ``lease_ttl`` or twice the
cell timeout if longer, and the holder renews it before each cell of the
batch by rewriting the batch file in place, which renews every lease linked
to it and creates nothing.  A worker that dies (SIGKILL, host loss) simply
stops renewing, and once the deadline passes any other worker with nothing
left to walk replaces the lease with its own, found by listing ``leases/``
(cells in flight, never the whole queue), and removes the dead worker's
batch file; the same pass removes a batch file a ``lease_ttl`` past its
deadline, which a worker killed between its batch file and its links left.
The races this allows — two reclaimers, or the presumed-dead worker
finishing after its cells were reclaimed — are *harmless by construction*:
cells are deterministic, rows are merged by ``cell_id`` with
last-write-wins, and both writers produce canonical-JSON-identical
deterministic rows.  Leases are an optimization against duplicate *work*,
never a correctness mechanism.  Hard links are required (POSIX filesystems
and NFS have them); there is no fallback.

**Merge-by-cache-key.**  Each worker appends to its own
``results/<worker_id>.jsonl`` (single-writer, so the store's torn-tail
recovery applies per shard).  The merged view is the union of the shards
deduplicated by ``cell_id`` (equivalently the cache key — both are content
addresses of the descriptor), so N workers, duplicated executions, and
resumed runs all collapse to one canonical row per cell, byte-identical in
the deterministic view to a serial run.

Queue directory layout, with how each entry is written (the writers are
:mod:`repro.lab.store`'s; listings skip the dot-named temp files)::

    queue.json          seal: the sorted cell ids enqueued (replace_file;
                        racing producers may drop each other's ids here)
    cells/seg-*.jsonl   Cell descriptors: a ResultCache keyed by cell id, one
                        segment per producer (group-committed appends, closed
                        by enqueue before it writes the seal)
    leases/.batch-*     one per claim: {batch, worker, deadline, ...} (O_EXCL
                        create, unsynced; renew rewrites it in place; removed
                        when the batch completes, by the reclaim that takes
                        over a dead owner's lease, or by a reclaim pass once
                        it is lease_ttl past its deadline)
    leases/<id>         held claims: a hard link to the claim's batch file
                        (exclusive link, unsynced; a reclaim replace_files it)
    done/<id>           completion markers: a hard link to the batch file,
                        made after the batch's rows are fsync'd (exclusive
                        link; only the name is ever read)
    results/<w>.jsonl   per-worker CellResult shards (ResultStore format)
    stats/<w>.json      per-worker counters (replace_file at start, at most
                        once per COMMIT_SECONDS, on the first empty claim
                        after new work, and at finish)
    traces/<w>.jsonl    optional repro-trace-v1 shards (unsynced O_APPEND)

A lost unsynced entry only costs work: a re-run cell.  Queue dirs from
earlier layouts (``pending/`` claim tokens, per-cell ``cells/<id>.json``
files) are not migrated; a re-enqueue re-seals them and republishes every
descriptor the memo lacks.
"""

from __future__ import annotations

import errno
import json
import math
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.api.config import RunConfig
from repro.lab.cache import SEGMENT_PREFIX, ResultCache
from repro.lab.campaign import Cell
from repro.lab.executor import emit_cell_span, run_cell_with_timeout
from repro.lab.store import COMMIT_ROWS, COMMIT_SECONDS, CellResult, JsonlLog, ResultStore
from repro.lab.store import _create_exclusive, _link_exclusive, _rewrite_in_place, _unlink
from repro.lab.store import read_json, write_json
from repro.obs.metrics import MetricsRegistry

#: Schema tag of the queue seal file.
QUEUE_SCHEMA = "repro-queue-v1"

QUEUE_MANIFEST_NAME = "queue.json"

#: Default seconds a claim stays exclusive without renewal.
DEFAULT_LEASE_TTL = 60.0

#: Guided self-scheduling (Polychronopoulos & Kuck, IEEE TC 1987): a claim
#: takes the unwalked remainder over this many times the workers that have
#: joined, so early batches are large and the tail is handed out cell by cell.
BATCH_DIVISOR = 2

#: The most cells one claim takes: one group commit's worth of rows, which
#: bounds what a batch holds in memory and what a worker killed mid-batch
#: loses.  Cell length does not bound it: the holder renews the batch's
#: leases before each cell.
MAX_BATCH = COMMIT_ROWS


def now() -> float:
    """The wall clock lease deadlines are set and checked against.

    Module-level so tests can replace it and advance time instead of sleeping.
    """
    return time.time()


# ---------------------------------------------------------------------------
# Cell serialization: descriptors must cross process/host boundaries as JSON
# ---------------------------------------------------------------------------


def cell_to_dict(cell: Cell) -> Dict[str, Any]:
    """A JSON-safe rendering of a :class:`~repro.lab.campaign.Cell`.

    Specs travel *by registered name* (the same contract as the pickle path):
    the built-in catalog is registered at import in every process, while
    custom factories must be registered in the worker process before it can
    execute cells referencing them.
    """
    return {
        "index": cell.index,
        "spec": cell.spec,
        "strategy": cell.strategy,
        "input": [int(v) for v in cell.input],
        "engine": cell.engine,
        "config": cell.config.to_dict(),
        "spec_fingerprint": cell.spec_fingerprint,
        "cell_id": cell.cell_id,
    }


def cell_from_dict(data: Dict[str, Any]) -> Cell:
    """Rebuild a :class:`~repro.lab.campaign.Cell` from :func:`cell_to_dict`."""
    return Cell(
        index=int(data["index"]),
        spec=str(data["spec"]),
        strategy=str(data["strategy"]),
        input=tuple(int(v) for v in data["input"]),
        engine=str(data["engine"]),
        config=RunConfig.from_dict(data["config"]),
        spec_fingerprint=str(data["spec_fingerprint"]),
        cell_id=str(data["cell_id"]),
    )


def default_worker_id() -> str:
    """``<host>-<pid>`` — unique per live worker process, stable within one."""
    return f"{socket.gethostname()}-{os.getpid()}"


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """The cells one claim won, leased together.

    ``path`` is the claim's dot-named batch file in ``leases/``, holding
    ``lease`` (``worker``, ``deadline``, ...); each cell's ``leases/<id>`` is
    a hard link to it, so rewriting it renews them all.
    """

    path: str
    lease: Dict[str, Any]
    cells: List[Cell] = field(default_factory=list)


class SharedDirQueue:
    """Claim / lease / renew / complete over a shared POSIX directory.

    The contract (see module docs): :meth:`enqueue` publishes descriptors
    idempotently and seals the work list; :meth:`claim` hands each cell of
    its batch to *at most one* worker while its lease is live; :meth:`renew`
    extends a batch's leases; :meth:`complete` durably records a batch's
    rows and releases it (completing twice is harmless); :meth:`follow`
    waits for cells to finish.  Every mutation is an atomic directory operation or an
    append to the writer's own file, so any number of producers and workers
    on any hosts can share it.  An instance keeps its walk over the
    descriptor memo's keys, the ids it has seen done (markers never
    disappear), how far it has read each memo segment and result shard, and
    how many workers had joined when ``stats/`` last changed.
    """

    def __init__(self, root: str, lease_ttl: float = DEFAULT_LEASE_TTL) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.root = str(root)
        self.lease_ttl = float(lease_ttl)
        for name in ("cells", "leases", "done", "results", "stats", "traces"):
            os.makedirs(self._dir(name), exist_ok=True)
        # A registry of its own: descriptor lookups are not result-cache traffic.
        self.descriptors = ResultCache(self._dir("cells"), registry=MetricsRegistry())
        self._ids: List[str] = []  # the claim walk: memo keys in the order read
        self._cursor = 0  # claim's position in _ids
        self._done: Set[str] = set()
        self._scanned: Dict[str, int] = {}  # memo segment / result shard -> bytes read
        self._rows: Dict[str, Tuple[str, int]] = {}  # cell id -> (shard, offset) of its last row
        self._stats_seen: Optional[int] = None  # stats/'s mtime when last listed
        self._joined = 0
        # Count the workers now, so a claim lists stats/ only when it changes.
        self._workers()

    def _dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    def _entry(self, kind: str, cell_id: str) -> str:
        return os.path.join(self.root, kind, cell_id)

    def _list(self, kind: str) -> List[str]:
        """``kind/``'s entries, minus the dot-named temp files of crashed replaces."""
        try:
            names = os.listdir(self._dir(kind))
        except FileNotFoundError:
            return []
        return sorted(name for name in names if not name.startswith("."))

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, QUEUE_MANIFEST_NAME)

    def manifest(self) -> Optional[Dict[str, Any]]:
        return read_json(self.manifest_path)

    def sealed(self) -> bool:
        return self.manifest() is not None

    def _tail(self, kind: str, key: str, prefix: str = "") -> Iterator[Tuple[str, str, int]]:
        """``(file, key, offset)`` of each complete line appended to the
        ``kind/<prefix>*.jsonl`` logs since the last call."""
        for name in self._list(kind):
            if name.startswith(prefix) and name.endswith(".jsonl"):
                log = JsonlLog(self._entry(kind, name), key)
                keys, self._scanned[log.path] = log.tail_keys(self._scanned.get(log.path, 0))
                for found, offset in keys:
                    yield name, found, offset

    def _extend(self) -> bool:
        """Append the keys written to the descriptor memo since the last call
        to the claim walk (a republished descriptor's again); ``True`` if any.
        """
        fresh = [cell_id for _, cell_id, _ in self._tail("cells", "k", SEGMENT_PREFIX)]
        self._ids += fresh
        return bool(fresh)

    def _published(self, manifest: Optional[Dict[str, Any]]) -> List[str]:
        """Every id the memo or the seal ``manifest`` lists (the seal can name
        an id whose descriptor line is torn, the memo one a racing producer
        dropped from the seal)."""
        self._extend()
        return self._ids + (manifest or {}).get("cell_ids", [])

    # -- producer side ------------------------------------------------------

    def enqueue(self, cells: Iterable[Cell]) -> int:
        """Publish the descriptors the memo lacks, then seal every cell id.

        Idempotent, and creates nothing per cell: missing (or unreadable)
        descriptors are appended to this producer's memo segment and
        committed, then ``queue.json`` is replaced with the union of the ids
        it listed and these.  Producers racing on that replace can drop each
        other's ids from the seal, never from the memo, which workers walk.
        Returns the number of ids the seal did not list before.
        """
        by_id = {cell.cell_id: cell for cell in cells}
        for cell_id in self.descriptors.missing(by_id):
            self.descriptors.put(cell_id, cell_to_dict(by_id[cell_id]))
        self.descriptors.close()
        existing = self.manifest() or {}
        listed = set(existing.get("cell_ids", []))
        ids = sorted(listed | set(by_id))
        write_json(
            self.manifest_path,
            {
                "schema": QUEUE_SCHEMA,
                "cell_ids": ids,
                "total": len(ids),
                "lease_ttl": self.lease_ttl,
                "created_unix": existing.get("created_unix") or time.time(),
                "updated_unix": time.time(),
            },
        )
        return len(ids) - len(listed)

    # -- worker side --------------------------------------------------------

    def claim(
        self,
        worker_id: str,
        max_cells: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Optional[Batch]:
        """Atomically claim a batch of cells, or ``None`` if nothing is claimable.

        The batch takes the unwalked remainder over :data:`BATCH_DIVISOR`
        times the workers that have joined, at most :data:`MAX_BATCH` and
        ``max_cells`` cells.  Walks this instance's cursor through the
        published ids, skipping done ones, and wins an id by hard-linking its
        lease to the claim's batch file (exactly one winner, even across
        hosts; a loser moves on).  At the end of the walk it reads what was
        published since; if nothing was and it won nothing, it takes over an
        expired lease.  A failed create or link other than a lost race leaves
        the cursor on its id, so the next claim retries it.  The lease lasts
        :meth:`_lease_span`; :meth:`renew` restarts it.
        """
        if self._cursor == len(self._ids) and not self._extend():
            return self._reclaim_expired(worker_id, timeout)
        remaining = len(self._ids) - self._cursor
        size = min(math.ceil(remaining / (BATCH_DIVISOR * self._workers())), MAX_BATCH)
        if max_cells is not None:
            size = min(size, max_cells)
        batch: Optional[Batch] = None
        failed = False
        try:
            while batch is None or len(batch.cells) < size:
                if self._cursor == len(self._ids) and not self._extend():
                    break
                cell_id = self._ids[self._cursor]
                if not self._is_done(cell_id):
                    if batch is None:
                        batch = self._new_batch(worker_id, timeout)
                    if _link_exclusive(batch.path, self._entry("leases", cell_id)):
                        self._add(batch, cell_id)
                self._cursor += 1
        except OSError:
            failed = True
        if batch is not None and batch.cells:
            return batch
        if batch is not None:
            _unlink(batch.path)
        return None if failed else self._reclaim_expired(worker_id, timeout)

    def _is_done(self, cell_id: str) -> bool:
        if cell_id not in self._done and os.path.exists(self._entry("done", cell_id)):
            self._done.add(cell_id)
        return cell_id in self._done

    def _workers(self) -> int:
        """How many workers have joined: the ``stats/`` entries, listed again
        only when the directory changed since the last look."""
        try:
            changed: Optional[int] = os.stat(self._dir("stats")).st_mtime_ns
        except OSError:
            changed = None
        if changed != self._stats_seen:
            self._stats_seen = changed
            self._joined = sum(name.endswith(".json") for name in self._list("stats"))
        return max(1, self._joined)

    def _lease_span(self, timeout: Optional[float]) -> float:
        """How long a lease lasts from its claim or renewal: ``lease_ttl``, or
        twice the cell ``timeout`` if longer, so one cell run under its
        budget never outlives it."""
        return max(self.lease_ttl, 2 * (timeout or 0.0))

    def _new_batch(self, worker_id: str, timeout: Optional[float]) -> Batch:
        """Create the batch file for a claim."""
        claimed = now()
        name = f".batch-{os.urandom(6).hex()}"
        lease = {
            "batch": name,
            "worker": worker_id,
            "claimed_unix": claimed,
            "deadline": claimed + self._lease_span(timeout),
            "pid": os.getpid(),
            "host": socket.gethostname(),
        }
        path = self._entry("leases", name)
        if not _create_exclusive(path, lease):
            raise FileExistsError(errno.EEXIST, "batch file name taken", path)
        return Batch(path, lease)

    def _add(self, batch: Batch, cell_id: str) -> None:
        """Load the descriptor of ``cell_id``, whose lease ``batch`` holds, into it.

        The lease is dropped instead if the cell is done by now: a worker
        completed it after the caller's check, since a completion links the
        done marker before it unlinks the lease.  It is dropped too for an
        unreadable descriptor, which nothing can ever run, so the damage is
        visible as an unfinished queue rather than silently marked done (a
        re-enqueue republishes it).
        """
        cell_data = None if self._is_done(cell_id) else self.descriptors.get(cell_id)
        if cell_data is None:
            _unlink(self._entry("leases", cell_id))
        else:
            batch.cells.append(cell_from_dict(cell_data))

    def _reclaim_expired(self, worker_id: str, timeout: Optional[float]) -> Optional[Batch]:
        """Take over one expired lease, listing only ``leases/``; ``None`` if none.

        The lease is replaced whole by the taker's (so the cell never goes
        without a lease, and a failed write leaves the expired one for the
        next reclaim), which names a batch file of the taker's own, and the
        dead holder's batch file, which nothing else would remove, goes.  Two
        reclaimers racing cost at most one duplicate execution.  On the way
        the pass clears what killed workers left: a done cell's lease (and
        its batch file, once the lease has expired) and a batch file a
        ``lease_ttl`` past its deadline that no lease led to.
        """
        checked = now()
        try:
            names = sorted(os.listdir(self._dir("leases")))
        except FileNotFoundError:
            return None
        for name in names:
            lease_path = self._entry("leases", name)
            if name.startswith(".batch-"):
                deadline = self._deadline(lease_path, read_json(lease_path) or {})
                if deadline is not None and checked >= deadline + self.lease_ttl:
                    _unlink(lease_path)
                continue
            if name.startswith("."):
                continue  # the temp file of a crashed replace
            meta = read_json(lease_path) or {}
            deadline = self._deadline(lease_path, meta)
            if deadline is None:
                continue
            if self._is_done(name):
                _unlink(lease_path)
                if checked >= deadline:
                    self._drop_batch(meta)
                continue
            if checked < deadline:
                continue
            batch = None
            try:
                batch = self._new_batch(worker_id, timeout)
                write_json(lease_path, batch.lease)
            except OSError:
                if batch is not None:
                    _unlink(batch.path)
                continue  # the expired lease stays, for the next reclaim
            self._drop_batch(meta)
            self._add(batch, name)
            if batch.cells:
                return batch
            _unlink(batch.path)
        return None

    def _deadline(self, path: str, meta: Dict[str, Any]) -> Optional[float]:
        """The lease ``meta``'s deadline; ``None`` if ``path`` is gone.

        Content a power cut lost, or a read that raced an in-place renewal
        tore, falls back to the file's age: its mtime is fresh in the latter.
        """
        deadline = meta.get("deadline")
        if isinstance(deadline, (int, float)):
            return float(deadline)
        try:
            return os.path.getmtime(path) + self.lease_ttl
        except OSError:
            return None

    def _drop_batch(self, meta: Dict[str, Any]) -> None:
        """Remove the batch file the lease ``meta`` names: a dead holder's."""
        name = meta.get("batch")
        if isinstance(name, str) and name.startswith(".batch-") and os.sep not in name:
            _unlink(self._entry("leases", name))

    def renew(self, batch: Batch, timeout: Optional[float] = None) -> bool:
        """Restart the leases of ``batch``, as :meth:`claim` set them.

        Rewrites the batch file in place, so every lease still linked to it
        is renewed and nothing is created; a lease a reclaim took over is a
        file of its own and keeps the taker's deadline.  ``False`` if the
        batch file is gone: a reclaim took this worker for dead, and its
        remaining leases run out (a duplicate run at worst).
        """
        batch.lease["deadline"] = now() + self._lease_span(timeout)
        return _rewrite_in_place(batch.path, batch.lease)

    def worker_store(self, worker_id: str) -> ResultStore:
        return ResultStore(self._entry("results", worker_id + ".jsonl"))

    def worker_trace_path(self, worker_id: str) -> str:
        return self._entry("traces", worker_id + ".jsonl")

    def complete(self, batch: Batch, results: Sequence[CellResult]) -> None:
        """Durably record a batch's rows, then mark them done and release the batch.

        Order matters: every row is appended and the shard committed (one
        fsync for the batch) *before* any done marker appears, so a done
        marker always has a row behind it.  Each marker is a hard link to the
        batch file; one that already exists means an earlier completion:
        harmless.  Then the leases and the batch file go.
        """
        store = self.worker_store(batch.lease["worker"])
        try:
            for result in results:
                store.append(result)
        finally:
            store.close()
        for result in results:
            marker = self._entry("done", result.cell_id)
            try:
                _link_exclusive(batch.path, marker)
            except FileNotFoundError:
                # a reclaim took this worker for dead and removed its batch
                # file; link the markers left to a new one, which no lease names
                batch.path = self._new_batch(batch.lease["worker"], None).path
                _link_exclusive(batch.path, marker)
            self._done.add(result.cell_id)
            _unlink(self._entry("leases", result.cell_id))
        _unlink(batch.path)

    # -- coordinator / merge side ------------------------------------------

    def done_ids(self, ids: Optional[Iterable[str]] = None) -> Set[str]:
        """The done ones among ``ids`` (default: every published id); only
        ids not yet known done cost a ``stat``."""
        ids = self._published(self.manifest()) if ids is None else ids
        return set(filter(self._is_done, ids))

    def all_done(self) -> bool:
        """Whether the queue is sealed and every published id is done."""
        manifest = self.manifest()
        return manifest is not None and all(map(self._is_done, self._published(manifest)))

    def merged_rows(self, wanted: Optional[Iterable[str]] = None) -> Dict[str, CellResult]:
        """The union of every worker shard, deduplicated by ``cell_id``.

        Incremental per instance: a call scans only the complete lines
        appended to each shard since the last call, and reads back and parses
        only the wanted rows.  The row scanned last wins — sound because any
        two rows for one id agree on the deterministic view.
        """
        for shard, cell_id, offset in self._tail("results", "cell_id"):
            self._rows[cell_id] = (shard, offset)
        by_shard: Dict[str, List[int]] = {}
        for cell_id in self._rows.keys() if wanted is None else self._rows.keys() & wanted:
            shard, offset = self._rows[cell_id]
            by_shard.setdefault(shard, []).append(offset)
        rows: Dict[str, CellResult] = {}
        for shard, offsets in sorted(by_shard.items()):
            log = JsonlLog(self._entry("results", shard), "cell_id")
            for line in log.read_lines(offsets):
                try:
                    row = CellResult.from_dict(json.loads(line))
                except (ValueError, TypeError):
                    continue  # accepted by the fast scan, rejected by a parse
                rows[row.cell_id] = row
        return rows

    def follow(self, wanted: Iterable[str]) -> Iterator[Dict[str, CellResult]]:
        """Wait for the ``wanted`` cells: each step yields the newly done rows.

        A step with nothing new yields ``{}``, and the caller picks how to
        wait; the generator ends once every wanted cell is done.  Only wanted
        ids with a row but no known marker cost a ``stat``.
        """
        remaining = set(wanted)
        while remaining:
            rows = self.merged_rows(remaining)
            fresh = {cell_id: rows[cell_id] for cell_id in self.done_ids(rows)}
            remaining.difference_update(fresh)
            yield fresh

    def write_worker_stats(self, worker_id: str, stats: Dict[str, Any]) -> None:
        write_json(self._entry("stats", worker_id + ".json"), stats)

    def worker_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-worker counters, keyed by worker id (for provenance folding)."""
        stats: Dict[str, Dict[str, Any]] = {}
        for name in self._list("stats"):
            if not name.endswith(".json"):
                continue
            payload = read_json(self._entry("stats", name))
            if payload is not None:
                stats[name[: -len(".json")]] = payload
        return stats

    def trace_shards(self) -> List[str]:
        """Paths of every per-worker trace shard present in the queue."""
        return [
            self.worker_trace_path(name[: -len(".jsonl")])
            for name in self._list("traces")
            if name.endswith(".jsonl")
        ]

    def __repr__(self) -> str:
        return f"SharedDirQueue({self.root!r}, lease_ttl={self.lease_ttl})"


# ---------------------------------------------------------------------------
# Backends: the executor-seam adapters run_campaign actually consumes
# ---------------------------------------------------------------------------


class SharedDirBackend:
    """Executor-seam adapter over a :class:`SharedDirQueue`.

    ``map(cells)`` enqueues the cells, optionally participates in serving the
    queue in-process (``participate=True``, the default — a campaign run with
    no external workers still completes), follows the queue
    (:meth:`SharedDirQueue.follow`) until every wanted cell is done, then
    yields the merged rows **in the given cell order** so
    :func:`~repro.lab.campaign.run_campaign`'s ``zip(to_run, ...)`` append
    loop sees exactly what the pool executor would have produced.
    """

    name = "shared-dir"

    def __init__(
        self,
        queue_dir: str,
        participate: bool = True,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        timeout: Optional[float] = None,
        poll: float = 0.2,
        stall_timeout: float = 600.0,
        worker_id: Optional[str] = None,
        trace: bool = False,
    ) -> None:
        self.queue = SharedDirQueue(queue_dir, lease_ttl=lease_ttl)
        self.participate = participate
        self.timeout = timeout
        self.poll = float(poll)
        self.stall_timeout = float(stall_timeout)
        self.worker_id = worker_id or ("coordinator-" + default_worker_id())
        self.trace = trace

    def map(self, cells: Iterable[Cell]) -> Iterator[CellResult]:
        cells = list(cells)
        if not cells:
            return
        queue = self.queue
        queue.enqueue(cells)
        wanted = {cell.cell_id for cell in cells}
        # A non-participating coordinator is not a worker: no session, so no
        # stats file or trace shard in its name.
        worker = (
            _WorkerSession(queue, self.worker_id, timeout=self.timeout, trace=self.trace)
            if self.participate
            else None
        )
        rows: Dict[str, CellResult] = {}
        last_progress = time.monotonic()
        try:
            for fresh in queue.follow(wanted):
                rows.update(fresh)
                if fresh or (worker is not None and worker.serve_one()):
                    last_progress = time.monotonic()
                    continue
                if time.monotonic() - last_progress > self.stall_timeout:
                    raise RuntimeError(
                        f"shared-dir queue stalled: {len(wanted) - len(rows)} of "
                        f"{len(wanted)} cells incomplete after "
                        f"{self.stall_timeout}s without progress "
                        f"(queue_dir={queue.root!r}; are any workers running?)"
                    )
                time.sleep(self.poll)
        finally:
            if worker is not None:
                worker.finish()
        for cell in cells:
            yield rows[cell.cell_id]

    def worker_stats(self) -> Dict[str, Dict[str, Any]]:
        return self.queue.worker_stats()

    def trace_shards(self) -> List[str]:
        return self.queue.trace_shards()

    def __repr__(self) -> str:
        return (
            f"SharedDirBackend({self.queue.root!r}, participate={self.participate}, "
            f"lease_ttl={self.queue.lease_ttl})"
        )


# ---------------------------------------------------------------------------
# The worker loop behind `python -m repro worker`
# ---------------------------------------------------------------------------


class _WorkerSession:
    """Shared claim→run→complete machinery for workers and the coordinator.

    The session publishes its ``stats/<worker_id>.json`` as soon as it
    starts, so a worker that joins and never gets a cell still shows up in
    :meth:`SharedDirQueue.worker_stats`, with ``claimed: 0``.  While it
    runs batches it republishes at most once per
    :data:`~repro.lab.store.COMMIT_SECONDS` of the module clock :func:`now`;
    the first claim that finds nothing publishes any counts still unpublished,
    so a live worker's stats are final within one poll of its last cell, and
    :meth:`finish` publishes the final counts.
    """

    def __init__(
        self,
        queue: SharedDirQueue,
        worker_id: str,
        timeout: Optional[float] = None,
        trace: bool = False,
    ) -> None:
        self.queue = queue
        self.worker_id = worker_id
        self.timeout = timeout
        self.stats: Dict[str, Any] = {
            "worker": worker_id,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "claimed": 0,
            "executed": 0,
            "errors": 0,
            "wall_s": 0.0,
            "cpu_s": 0.0,
            "started_unix": time.time(),
        }
        self._tracer = None
        self._sink = None
        if trace:
            from repro.obs.trace import JsonlTraceSink, Tracer

            self._sink = JsonlTraceSink(
                queue.worker_trace_path(worker_id),
                manifest={"worker": worker_id, "queue_dir": queue.root},
            )
            self._tracer = Tracer(self._sink)
        self._published = 0.0
        self._dirty = True
        self._publish(force=True)

    def _publish(self, force: bool = False) -> None:
        if self._dirty and (force or now() - self._published >= COMMIT_SECONDS):
            self._published = now()
            self._dirty = False
            self.stats["updated_unix"] = time.time()
            self.queue.write_worker_stats(self.worker_id, self.stats)

    def serve_one(self, max_cells: Optional[int] = None) -> bool:
        """Claim and execute one batch of at most ``max_cells`` cells;
        ``False`` when nothing was claimable.

        Each cell starts with a full lease: the claim sets it for the first,
        and a :meth:`SharedDirQueue.renew` restarts it for each later one.
        """
        batch = self.queue.claim(self.worker_id, max_cells, self.timeout)
        if batch is None:
            self._publish(force=True)
            return False
        self.stats["claimed"] += len(batch.cells)
        results = []
        for position, cell in enumerate(batch.cells):
            if position:
                self.queue.renew(batch, self.timeout)
            result = run_cell_with_timeout(cell, self.timeout)
            results.append(result)
            if self._tracer is not None:
                emit_cell_span(self._tracer, result, self.worker_id)
        self.queue.complete(batch, results)
        self.stats["executed"] += len(results)
        self.stats["errors"] += sum(not result.ok for result in results)
        self.stats["wall_s"] += sum(result.wall_time for result in results)
        self.stats["cpu_s"] += sum(result.cpu_time or 0.0 for result in results)
        self._dirty = True
        self._publish()
        return True

    def finish(self) -> Dict[str, Any]:
        self._publish(force=True)
        if self._sink is not None:
            self._sink.close()
        return self.stats


def worker_loop(
    queue_dir: str,
    worker_id: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    timeout: Optional[float] = None,
    poll: float = 0.2,
    max_idle: float = 60.0,
    max_cells: Optional[int] = None,
    trace: bool = False,
) -> Dict[str, Any]:
    """Serve a shared-dir queue until it drains: ``python -m repro worker``.

    Claims a batch at a time, executing each cell under ``timeout`` and
    completing the batch durably before claiming the next.  Exits when the
    queue is sealed and fully done, after ``max_idle`` seconds without a successful
    claim (covers the never-sealed and stuck-foreign-lease cases), or after
    ``max_cells`` completions.  Returns the worker's final counter dict (the
    same payload published to ``stats/<worker_id>.json``).
    """
    queue = SharedDirQueue(queue_dir, lease_ttl=lease_ttl)
    session = _WorkerSession(
        queue, worker_id or default_worker_id(), timeout=timeout, trace=trace
    )
    idle_since: Optional[float] = None
    try:
        while True:
            left = None if max_cells is None else max_cells - session.stats["executed"]
            if left is not None and left <= 0:
                break
            if session.serve_one(left):
                idle_since = None
                continue
            if queue.all_done():
                break
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif now - idle_since > max_idle:
                break
            time.sleep(poll)
    finally:
        session.finish()
    return session.stats
