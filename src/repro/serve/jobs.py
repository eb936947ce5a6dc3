"""The async job layer: campaign grids on a worker pool, memoized by the cache.

A job is a :class:`repro.lab.campaign.Campaign` submitted over HTTP.  The
manager expands it into the same deterministic, content-addressed cells an
in-process ``Workbench.campaign`` run would produce — **the whole point**: a
job cell and a local campaign cell with the same descriptor share a cache
key, per-cell derived seed, and cell id, so their results are interchangeable
and mutually memoizing.

Lifecycle per job (one asyncio task):

1. every cell is looked up once in the shared
   :class:`~repro.lab.cache.ResultCache` by the memo rule of
   :mod:`repro.lab.executor`; hits are resolved without touching the pool;
2. each miss takes the simulate endpoint's own miss path — run on the
   :class:`~repro.lab.pool.WorkerPool`, then published back to the cache —
   and is folded in as it lands; a ``shared-dir`` job enqueues its misses for
   external workers instead;
3. cancellation cancels the awaited work: calls waiting for a pool slot are
   cancelled, in-flight cells are abandoned (their results discarded when
   they land), and the job settles as ``"cancelled"`` with its partial
   results intact.

A simulate request is one cell, built by :func:`single_cell` with the same
constructor ``Campaign.expand()`` uses and the spec's memoized fingerprint,
so the request path does constant work beside the engine.

**Backpressure** is cell-granular: the manager tracks the number of cells not
yet finished across all live jobs, and a submission that would push the total
past ``queue_limit`` is rejected with :class:`QueueFullError` — the HTTP
layer renders that as ``429 Too Many Requests`` with a ``Retry-After`` hint.
The same bound caps what settled jobs keep: once their cells together exceed
``queue_limit``, the oldest settled jobs are evicted and their ids answer 404.
"""

from __future__ import annotations

import asyncio
import collections
import time
import uuid
from typing import Any, Awaitable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.config import RunConfig
from repro.lab.backends import SharedDirQueue
from repro.lab.cache import ResultCache
from repro.lab.campaign import (
    Campaign,
    Cell,
    check_input,
    make_cell,
    registered_fingerprint,
)
from repro.lab.executor import memo_lookup, memo_publish, run_cell
from repro.lab.pool import WorkerPool
from repro.lab.store import CellResult
from repro.serve.metrics import ServerMetrics

#: Terminal job states.
DONE_STATES = ("done", "cancelled", "failed")

#: Seconds between polls of a shared-dir job's queue (workers signal via files).
SHARED_DIR_POLL = 0.2


class QueueFullError(Exception):
    """The job queue is at capacity; retry later (HTTP 429)."""

    def __init__(self, message: str, retry_after: int = 1) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def single_cell(spec_name: str, strategy: str, x: Sequence[int], config: RunConfig) -> Cell:
    """The one campaign cell a simulate request denotes.

    Built by :func:`~repro.lab.campaign.make_cell`, the constructor
    ``Campaign.expand()`` runs for every cell, with the spec's memoized
    fingerprint: the cell id, cache key, and ``"auto"`` engine resolution
    are *definitionally* those of the one-cell campaign over the same
    descriptor with master seed ``None`` (the request config's own seed is
    the cell seed) -- the serve memo and the lab memo are one memo.
    """
    x = tuple(int(v) for v in x)
    check_input(spec_name, x)
    return make_cell(
        0, spec_name, strategy, registered_fingerprint(spec_name), x,
        config.engine, config, None,
    )


class Job:
    """One submitted campaign: cells, progress counters, partial results."""

    def __init__(
        self,
        job_id: str,
        name: str,
        cells: List[Cell],
        queue_dir: Optional[str] = None,
    ) -> None:
        self.id = job_id
        self.name = name
        self.cells = cells
        self.queue_dir = queue_dir
        self.queue: Optional[SharedDirQueue] = None  # opened by _run_shared_dir
        self.state = "queued"
        self.error: Optional[str] = None
        self.created = time.time()
        self.finished: Optional[float] = None
        self.from_cache = 0
        self.executed = 0
        self.errors = 0
        self.cancel_event = asyncio.Event()
        self._rows: Dict[str, CellResult] = {}

    # -- progress ---------------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def done_cells(self) -> int:
        return self.from_cache + self.executed

    @property
    def remaining(self) -> int:
        return self.total - self.done_cells

    @property
    def active(self) -> bool:
        return self.state not in DONE_STATES

    def record(self, cell: Cell, row: CellResult, from_cache: bool) -> None:
        self._rows[cell.cell_id] = row
        if from_cache:
            self.from_cache += 1
        else:
            self.executed += 1
        if not row.ok:
            self.errors += 1

    def results(self) -> List[CellResult]:
        """Rows so far, in deterministic cell order (not completion order)."""
        return list(self.results_iter())

    def results_iter(self) -> Iterator[CellResult]:
        """Stream rows so far in deterministic cell order (never a list).

        The NDJSON results endpoint serializes straight off this iterator, so
        a million-cell job's results are never buffered as one response body.
        """
        for cell in self.cells:
            row = self._rows.get(cell.cell_id)
            if row is not None:
                yield row

    def to_dict(
        self,
        include_results: bool = True,
        workers: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """The job's JSON view; ``workers`` is the queue's current worker stats."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "error": self.error,
            "progress": {
                "total": self.total,
                "done": self.done_cells,
                "from_cache": self.from_cache,
                "executed": self.executed,
                "errors": self.errors,
            },
        }
        if self.queue_dir is not None:
            payload["backend"] = {
                "name": "shared-dir",
                "queue_dir": self.queue_dir,
                "workers": workers or {},
            }
        if include_results:
            payload["results"] = [row.to_dict() for row in self.results()]
        return payload


class JobManager:
    """Owns the job table, the worker pool handle, and the queue bound."""

    def __init__(
        self,
        pool: WorkerPool,
        cache: Optional[ResultCache],
        metrics: ServerMetrics,
        queue_limit: int = 10_000,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.pool = pool
        self.cache = cache
        self.metrics = metrics
        self.queue_limit = queue_limit
        self.jobs: Dict[str, Job] = {}
        self._tasks: Dict[str, asyncio.Task] = {}  # live jobs only
        self._settled: Deque[Job] = collections.deque()  # oldest first
        self._settled_cells = 0  # cells the settled jobs hold, <= queue_limit

    # -- queue accounting ---------------------------------------------------------

    @property
    def pending_cells(self) -> int:
        return sum(self.jobs[job_id].remaining for job_id in self._tasks)

    # -- the one cell path, shared by the simulate endpoint and jobs ---------------

    def cache_lookup(self, cell: Cell) -> Optional[CellResult]:
        """The cached row for a cell, or ``None``; records hit/miss metrics."""
        return memo_lookup(self.cache, cell, self.metrics.record_cache)

    def cache_publish(self, cell: Cell, row: CellResult) -> None:
        memo_publish(self.cache, cell, row)

    async def execute_cell(self, cell: Cell) -> Tuple[CellResult, bool]:
        """Run one cell through the memo: ``(row, was_cache_hit)``."""
        self.metrics.record_engine_request(cell.engine)
        row = self.cache_lookup(cell)
        if row is not None:
            return row, True
        return await self._execute_miss(cell), False

    async def _execute_miss(self, cell: Cell) -> CellResult:
        """The miss half of :meth:`execute_cell`; every pool-job miss takes it."""
        row = await self.pool.run(run_cell, cell)
        self._executed(cell, row)
        return row

    def _executed(self, cell: Cell, row: CellResult) -> None:
        self.metrics.record_engine_executed(cell.engine)
        self.cache_publish(cell, row)

    # -- job lifecycle --------------------------------------------------------------

    def submit(
        self,
        campaign: Campaign,
        cells: Optional[List[Cell]] = None,
        queue_dir: Optional[str] = None,
    ) -> Job:
        """Admit a campaign as a job, or raise :class:`QueueFullError`.

        With ``queue_dir`` the job's cache misses are *enqueued* on a
        :class:`~repro.lab.backends.SharedDirQueue` instead of fanned out to
        the server's own pool: external ``python -m repro worker`` processes
        claim and execute them, and the job task folds rows in as shards
        complete.  Same cells, same cache keys — just a different executor.
        """
        if cells is None:
            cells = campaign.expand()
        backlog = self.pending_cells
        if backlog + len(cells) > self.queue_limit:
            self.metrics.record_job_event("rejected")
            raise QueueFullError(
                f"job queue is full: {backlog} cells pending, job adds "
                f"{len(cells)}, limit is {self.queue_limit}",
                retry_after=max(1, backlog // 100),
            )
        job = Job(uuid.uuid4().hex[:12], campaign.name, cells, queue_dir=queue_dir)
        self.jobs[job.id] = job
        self.metrics.record_job_event("submitted")
        self._tasks[job.id] = asyncio.get_running_loop().create_task(self._run(job))
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; settled jobs keep their terminal state."""
        job = self.jobs.get(job_id)
        if job is not None and job.active:
            job.cancel_event.set()
        return job

    async def _run(self, job: Job) -> None:
        try:
            job.state = "running"
            if await self._until_cancelled(job, self._run_cells(job)):
                job.state = "cancelled"
                self.metrics.record_job_event("cancelled")
            else:
                job.state = "done"
                self.metrics.record_job_event("completed")
        except Exception as exc:  # noqa: BLE001 — a job failure is a recorded state
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self.metrics.record_job_event("failed")
        finally:
            job.finished = time.time()
            del self._tasks[job.id]
            # Admission keeps every job within queue_limit cells, so the job
            # that just settled is never the one evicted.
            self._settled.append(job)
            self._settled_cells += job.total
            while self._settled_cells > self.queue_limit:
                evicted = self._settled.popleft()
                self._settled_cells -= evicted.total
                del self.jobs[evicted.id]

    @staticmethod
    async def _until_cancelled(job: Job, work: Awaitable[None]) -> bool:
        """Await ``work`` unless the job is cancelled first; ``True`` if it was.

        Cancellation cancels the awaited work: whatever it waits on (a pool
        call, a queue poll) raises ``CancelledError`` there, so no row is
        recorded once the job settles.  An exception from ``work`` propagates.
        """
        task = asyncio.ensure_future(work)
        cancelled = asyncio.ensure_future(job.cancel_event.wait())
        try:
            await asyncio.wait((task, cancelled), return_when=asyncio.FIRST_COMPLETED)
        finally:
            cancelled.cancel()
            task.cancel()
        await asyncio.wait((task,))
        if not task.cancelled():
            task.result()
        return job.cancel_event.is_set()

    async def _run_cells(self, job: Job) -> None:
        misses: List[Cell] = []
        for cell in job.cells:
            self.metrics.record_engine_request(cell.engine)
            row = self.cache_lookup(cell)
            if row is None:
                misses.append(cell)
            else:
                job.record(cell, row, from_cache=True)
                self.metrics.record_job_event("cells_from_cache")
        if job.queue_dir is not None:
            await self._run_shared_dir(job, misses)
        else:
            await self._run_pool(job, misses)

    def _record_executed(self, job: Job, cell: Cell, row: CellResult) -> None:
        job.record(cell, row, from_cache=False)
        self.metrics.record_job_event("cells_executed")

    async def _run_pool(self, job: Job, cells: List[Cell]) -> None:
        """Start every miss on :meth:`_execute_miss`; a failing cell cancels the rest."""

        async def run(cell: Cell) -> None:
            self._record_executed(job, cell, await self._execute_miss(cell))

        tasks = [asyncio.ensure_future(run(cell)) for cell in cells]
        try:
            await asyncio.gather(*tasks)
        finally:
            for task in tasks:
                task.cancel()

    async def _run_shared_dir(self, job: Job, cells: List[Cell]) -> None:
        """Drive a job's cache misses through a shared-dir work queue.

        The server never executes these cells itself: it enqueues them and
        steps :meth:`~repro.lab.backends.SharedDirQueue.follow`, the wait
        loop the lab's shared-dir backend runs too, on the loop's thread
        executor, sleeping after steps that find nothing new.  Rows stream
        into the job as workers finish them, so ``GET .../results`` observes
        partial progress exactly as it does for pool jobs.
        """
        loop = asyncio.get_running_loop()
        queue = job.queue = SharedDirQueue(job.queue_dir)
        by_id = {cell.cell_id: cell for cell in cells}
        await loop.run_in_executor(None, queue.enqueue, cells)
        follow = queue.follow(by_id)
        while True:
            rows = await loop.run_in_executor(None, next, follow, None)
            if rows is None:
                return
            for cell_id in sorted(rows):
                self._executed(by_id[cell_id], rows[cell_id])
                self._record_executed(job, by_id[cell_id], rows[cell_id])
            if not rows:
                await asyncio.sleep(SHARED_DIR_POLL)

    async def shutdown(self) -> None:
        """Cancel every live job and wait for their tasks to settle."""
        for job in self.jobs.values():
            if job.active:
                job.cancel_event.set()
        if self._tasks:
            await asyncio.gather(*self._tasks.values(), return_exceptions=True)
