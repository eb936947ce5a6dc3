"""Campaign executors: a supervised worker pool and a serial fallback.

Both executors drive the same pure worker function, :func:`run_cell`, so for
seeded cells they are interchangeable by construction — the parallel pool
must produce bit-identical deterministic rows to the serial loop (enforced by
``tests/test_lab_executor.py``).  The division of labour:

* :func:`run_cell` — resolve the cell's spec by name, check that it is the
  spec the cell was built for (its fingerprint), build (and memoize, per
  process) its CRN, run the configured engine, and fold the outcome into a
  :class:`~repro.lab.store.CellResult`.  *Every* exception is captured as an
  ``status="error"`` row: a failed cell is a data point, not a crashed
  campaign.
* :class:`SerialExecutor` — in-process loop; the debugging baseline (plain
  tracebacks in ``error`` rows, no fork in the way of ``pdb``).
* :class:`PoolExecutor` — chunks of cells on the
  :class:`~repro.lab.pool.WorkerPool` that ``repro.serve`` also runs on,
  read back in chunk order, so the result stream (and hence the JSONL store)
  keeps deterministic cell order regardless of which worker finishes first.
  A dead worker costs its call one retry, not the campaign.
* :func:`memo_lookup` / :func:`memo_publish` — the one cache rule shared by
  campaigns and the HTTP server: which cells consult the cache, what counts
  as a hit, and which rows are published.

Per-cell wall-clock timeouts use ``SIGALRM`` inside the worker (a forked
worker's one thread is its main thread), so a hung cell becomes a timeout
error row without poisoning the pool.  On platforms without ``SIGALRM`` the
timeout is silently unenforced rather than failing the campaign.

New executor backends (async, remote, sharded) plug in by exposing the same
``map(cells) -> iterator of CellResult`` surface and being passed to
:func:`repro.lab.campaign.run_campaign` via ``executor=``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.specs import FunctionSpec
from repro.crn.network import CRN
from repro.lab.campaign import Cell, registered_fingerprint, resolve_spec
from repro.lab.store import CellResult, deterministic_view
from repro.obs.trace import get_tracer
from repro.sim.runner import run_many


class CellTimeoutError(Exception):
    """A cell exceeded its wall-clock budget."""


class StaleSpecError(Exception):
    """The spec registered under a cell's name is not the one it was built for."""


# Per-process CRN memo: workers build each (spec, strategy) CRN once and
# reuse it for every cell that references it.  Each entry keeps the spec it
# was built from, so a name re-registered to another spec is rebuilt.
_CRN_CACHE: Dict[Tuple[str, str], Tuple[FunctionSpec, CRN]] = {}


def _built_crn(spec_name: str, strategy: str) -> CRN:
    key = (spec_name, strategy)
    spec = resolve_spec(spec_name)
    entry = _CRN_CACHE.get(key)
    if entry is None or entry[0] is not spec:
        from repro.core.characterization import build_crn_for

        crn = build_crn_for(spec, name=spec.name, strategy=strategy)
        entry = _CRN_CACHE[key] = (spec, crn)
    return entry[1]


def _error_row(
    cell: Cell, exc: BaseException, wall_time: float, cpu_time: Optional[float] = None
) -> CellResult:
    return CellResult(
        cell_id=cell.cell_id,
        spec=cell.spec,
        strategy=cell.strategy,
        input=cell.input,
        engine=cell.engine,
        config=cell.config.to_dict(),
        status="error",
        error=f"{type(exc).__name__}: {exc}",
        wall_time=wall_time,
        cpu_time=cpu_time,
        worker=os.getpid(),
    )


def run_cell(cell: Cell) -> CellResult:
    """Execute one cell; deterministic for seeded cells, never raises.

    The returned row carries execution provenance next to the deterministic
    payload: wall seconds, CPU seconds (``time.process_time`` — the number
    that exposes a cell starved by oversubscribed workers), and the executing
    worker's PID.  All three live in
    :data:`repro.lab.store.PROVENANCE_FIELDS`, so the serial/parallel
    bit-identity contract and the cache payloads are unaffected.
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        # A process whose registry differs from the one that built the cell
        # (a worker forked before a re-registration) must not answer for it.
        fingerprint = registered_fingerprint(cell.spec)
        if fingerprint != cell.spec_fingerprint:
            raise StaleSpecError(
                f"spec {cell.spec!r} fingerprints {fingerprint} in process "
                f"{os.getpid()}, but the cell was built for {cell.spec_fingerprint}"
            )
        spec = resolve_spec(cell.spec)
        expected = spec(cell.input)
        crn = _built_crn(cell.spec, cell.strategy)
        report = run_many(crn, cell.input, config=cell.config)
        output_mode = report.output_mode
        return CellResult(
            cell_id=cell.cell_id,
            spec=cell.spec,
            strategy=cell.strategy,
            input=cell.input,
            engine=cell.engine,
            config=cell.config.to_dict(),
            status="ok",
            expected=expected,
            outputs=tuple(report.outputs),
            output_mode=output_mode,
            output_unanimous=report.output_unanimous,
            converged=report.all_silent_or_converged,
            correct=(output_mode == expected),
            mean_steps=report.mean_steps,
            total_steps=sum(report.steps),
            wall_time=time.perf_counter() - start,
            cpu_time=time.process_time() - cpu_start,
            worker=os.getpid(),
        )
    except Exception as exc:  # noqa: BLE001 — failure capture is the contract
        return _error_row(
            cell, exc, time.perf_counter() - start, time.process_time() - cpu_start
        )


def run_cell_with_timeout(cell: Cell, timeout: Optional[float] = None) -> CellResult:
    """:func:`run_cell` under a ``SIGALRM`` wall-clock budget (when enforceable)."""
    can_alarm = (
        timeout is not None
        and timeout > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        return run_cell(cell)

    def _on_alarm(signum, frame):
        raise CellTimeoutError(f"cell exceeded the {timeout}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.monotonic()
    prior_timer = signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        # a timeout inside run_cell is caught by its handler and becomes an
        # error row; the except below covers the race where the alarm fires
        # in the gap between run_cell returning and the timer reset
        return run_cell(cell)
    except CellTimeoutError as exc:
        return _error_row(cell, exc, timeout)
    finally:
        # Disarm our timer, restore the saved handler, and only then re-arm
        # any timer the caller had running (minus the time we consumed) so the
        # restored handler — not ours — receives its SIGALRM.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        remaining, interval = prior_timer
        if remaining > 0.0:
            remaining = max(1e-6, remaining - (time.monotonic() - started))
            signal.setitimer(signal.ITIMER_REAL, remaining, interval)


def _run_chunk(cells: List[Cell], timeout: Optional[float]) -> List[CellResult]:
    return [run_cell_with_timeout(cell, timeout) for cell in cells]


def emit_cell_span(tracer, result: CellResult, worker: Any) -> None:
    """Record a finished cell as a ``lab.cell`` span plus a worker heartbeat.

    For cells that ran out of the tracer's sight (a pool worker, a shared-dir
    session): the span's duration is the ``wall_time`` carried on the row.
    """
    tracer.emit_span(
        "lab.cell",
        time.time() - result.wall_time,
        result.wall_time,
        cell=result.cell_id,
        spec=result.spec,
        engine=result.engine,
        status=result.status,
        worker=result.worker,
        cpu_s=result.cpu_time,
    )
    tracer.event("worker.heartbeat", worker=worker, cell=result.cell_id)


class SerialExecutor:
    """In-process, one cell at a time — the debugging fallback."""

    def __init__(self, timeout: Optional[float] = None) -> None:
        self.timeout = timeout

    def map(self, cells: Iterable[Cell]) -> Iterator[CellResult]:
        tracer = get_tracer()
        if not tracer.enabled:
            for cell in cells:
                yield run_cell_with_timeout(cell, self.timeout)
            return
        # In-process cells run inside a live span, so their per-trial
        # kernel.run spans nest under the cell in the trace tree.
        for cell in cells:
            with tracer.span(
                "lab.cell", cell=cell.cell_id, spec=cell.spec, engine=cell.engine
            ) as span:
                result = run_cell_with_timeout(cell, self.timeout)
                span.set(
                    status=result.status, worker=result.worker, cpu_s=result.cpu_time
                )
            tracer.event("worker.heartbeat", worker=result.worker, cell=result.cell_id)
            yield result

    def __repr__(self) -> str:
        return f"SerialExecutor(timeout={self.timeout})"


class PoolExecutor:
    """Cells in chunks on a :class:`~repro.lab.pool.WorkerPool`, yielded in cell order.

    A chunk holds ``len(cells) // (4 * workers)`` cells, clamped to [1, 16]:
    large enough to amortize the pipe round trip, small enough that the tail
    of the campaign still load-balances.  The pool's event loop runs on a
    helper thread, so ``map`` also works under a caller's running loop.  A
    chunk whose worker dies twice is re-run one cell per call; a cell whose
    two workers die is a ``WorkerDied`` error row.  Falls back to the serial
    path for empty or single-cell batches.
    """

    def __init__(self, workers: Optional[int] = None, timeout: Optional[float] = None) -> None:
        if workers is None:
            workers = max(1, (os.cpu_count() or 2) - 1)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout = timeout

    def map(self, cells: Iterable[Cell]) -> Iterator[CellResult]:
        cells = list(cells)
        if len(cells) <= 1 or self.workers == 1:
            yield from SerialExecutor(timeout=self.timeout).map(cells)
            return
        # Imported here: asyncio adds ~35 ms to every campaign's set-up, pooled or not.
        import asyncio

        from repro.lab.pool import WorkerDied, WorkerPool

        async def new_pool() -> WorkerPool:
            # Built on its loop: on Python 3.9 an asyncio.Queue binds to the
            # loop current at construction.
            return WorkerPool(min(self.workers, len(cells)))

        async def rows(chunk: List[Cell]) -> List[CellResult]:
            start = time.perf_counter()
            try:
                return await pool.run(_run_chunk, chunk, self.timeout)
            except WorkerDied as exc:
                if len(chunk) == 1:
                    return [_error_row(chunk[0], exc, time.perf_counter() - start)]
            # The chunk killed two workers: one cell per call, so only the cell at fault is lost.
            return [row for cell in chunk for row in await rows([cell])]

        size = max(1, min(16, len(cells) // (4 * self.workers)))
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, name="repro-pool", daemon=True)
        thread.start()
        pool, futures = None, []
        try:
            pool = asyncio.run_coroutine_threadsafe(new_pool(), loop).result()
            futures = [
                asyncio.run_coroutine_threadsafe(rows(cells[at : at + size]), loop)
                for at in range(0, len(cells), size)
            ]
            tracer = get_tracer()
            for future in futures:  # in cell order, whichever worker finishes first
                for result in future.result():
                    if tracer.enabled:
                        # the parent is each cell's single span writer
                        emit_cell_span(tracer, result, result.worker)
                    yield result
        finally:
            for future in futures:
                future.cancel()
            if pool is not None:
                asyncio.run_coroutine_threadsafe(pool.shutdown(), loop).result()
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.close()

    def __repr__(self) -> str:
        return f"PoolExecutor(workers={self.workers}, timeout={self.timeout})"


# ---------------------------------------------------------------------------
# The memo rule, shared by run_campaign and the HTTP server
# ---------------------------------------------------------------------------


def memo_lookup(
    cache,
    cell: Cell,
    record: Optional[Callable[[bool], None]] = None,
    refresh: bool = True,
) -> Optional[CellResult]:
    """The cached row for ``cell``, or ``None``.

    Only seeded (``cacheable``) cells consult ``cache``.  A payload is a hit
    only if it carries the cell's own ``cell_id``; the returned row is marked
    ``cached=True`` with ``wall_time=0.0``.  ``record``, when given, is told
    the outcome of every consult (``True`` for a hit).  ``refresh=False``
    skips the cache's index refresh on a miss, for a caller that refreshed
    once before its lookups (:meth:`~repro.lab.cache.ResultCache.get`).
    """
    if cache is None or not cell.cacheable:
        return None
    payload = cache.get(cell.cache_key(), refresh=refresh)
    if payload is not None and payload.get("cell_id") != cell.cell_id:
        payload = None  # another cell's entry under this key
    if record is not None:
        record(payload is not None)
    if payload is None:
        return None
    row = CellResult.from_dict(payload)
    row.cached = True
    row.wall_time = 0.0
    return row


def memo_publish(
    cache, cell: Cell, row: CellResult, data: Optional[Mapping[str, Any]] = None
) -> None:
    """Publish an executed row's deterministic view; error rows never are.

    ``data`` is ``row.to_dict()`` when the caller already holds it (a campaign
    reuses the dict ``ResultStore.append`` returns), so a row is serialized once.
    """
    if cache is not None and cell.cacheable and row.ok:
        data = row.to_dict() if data is None else data
        cache.put(cell.cache_key(), deterministic_view(data))
