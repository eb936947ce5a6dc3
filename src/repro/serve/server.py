"""The asyncio HTTP server: connection loop, lifecycle, signals.

:class:`ReproServer` wires the pieces together — a
:class:`~repro.lab.pool.WorkerPool` of forked workers, one pipe each, for
the simulation work (the event loop never runs an engine; a dead worker is
replaced and its call retried once), the shared on-disk
:class:`~repro.lab.cache.ResultCache`, the
:class:`~repro.serve.jobs.JobManager`, and :mod:`repro.serve.handlers`
routing — behind ``asyncio.start_server``.  HTTP/1.1 keep-alive is supported;
parsing and framing live in :mod:`repro.serve.protocol`.

Three ways to run it:

* ``python -m repro serve --host --port --workers`` — the CLI foreground
  server; SIGTERM/SIGINT trigger a graceful drain (stop accepting, cancel
  jobs, shut the pool down) and a zero exit;
* ``async with ReproServer(...) as server:`` — embedded in an existing loop;
* ``with ServerThread(...) as server:`` — a real server on a background
  thread (port 0 picks a free port), for tests and notebooks.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
from typing import Optional

from repro.api.config import RunConfig
from repro.lab.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.lab.pool import WorkerPool
from repro.serve.handlers import ServerState, dispatch, reject_unparsed
from repro.serve.jobs import JobManager
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import ApiError, read_request


class ReproServer:
    """One simulation-as-a-service instance.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        ``self.port`` after :meth:`start`).
    workers:
        Worker processes for simulation work, forked on first use.  ``0``
        runs cells on the event loop's default thread pool instead — slower
        under load (the GIL) but useful where ``fork`` is unavailable.
    cache_dir:
        Root of the shared :class:`~repro.lab.cache.ResultCache` memo;
        ``None`` disables caching (every request simulates).
    config:
        Default :class:`~repro.api.config.RunConfig`; request ``config``
        objects override it field-wise.
    queue_limit:
        Backpressure bound: the maximum number of unfinished job cells across
        all live jobs before ``POST /v1/jobs`` answers 429.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8421,
        workers: int = 2,
        cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
        config: Optional[RunConfig] = None,
        queue_limit: int = 10_000,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.host = host
        self.port = port
        self.workers = workers
        self.cache_dir = cache_dir
        self.config = config if config is not None else RunConfig()
        self.queue_limit = queue_limit
        self.state: Optional[ServerState] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[WorkerPool] = None
        self._connections: set = set()

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        from repro import __version__

        metrics = ServerMetrics()
        self._pool = WorkerPool(self.workers, on_restart=metrics.record_worker_restart)
        # The cache reports into the server's registry, so its hit/miss and
        # latency series show up on GET /v1/metrics alongside the
        # request counters.
        cache = (
            ResultCache(self.cache_dir, registry=metrics.registry)
            if self.cache_dir is not None
            else None
        )
        jobs = JobManager(self._pool, cache, metrics, queue_limit=self.queue_limit)
        self.state = ServerState(
            config=self.config,
            cache=cache,
            pool=self._pool,
            metrics=metrics,
            jobs=jobs,
            version=__version__,
            workers=self.workers,
        )
        self._server = await asyncio.start_server(self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: stop accepting, cancel jobs, shut the pool down.

        Closing the cache last runs its final group commit.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        if self.state is not None:
            await self.state.jobs.shutdown()
        if self._pool is not None:
            await self._pool.shutdown()
            self._pool = None
        if self.state is not None and self.state.cache is not None:
            self.state.cache.close()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- the connection loop --------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ApiError as exc:
                    response = reject_unparsed(self.state, exc)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return

                response = await dispatch(self.state, request)
                if response.stream is not None:
                    # Close-delimited streaming: headers first, then chunks as
                    # they are produced, draining per chunk so a slow client
                    # backpressures the generator instead of buffering the
                    # body server-side.  The connection cannot be kept alive
                    # (no Content-Length), so this request ends it.
                    writer.write(response.encode_stream_head())
                    await writer.drain()
                    for chunk in response.stream:
                        writer.write(chunk)
                        await writer.drain()
                    return
                keep_alive = request.keep_alive
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            # A drain's cancel can land in wait_closed; the task is ending
            # anyway, and a cancelled connection task makes asyncio's stream
            # callback log a CancelledError traceback.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError, asyncio.CancelledError):
                pass

    # -- foreground entry point (the CLI) ---------------------------------------------

    def run(self, announce=print) -> int:
        """Serve until SIGTERM/SIGINT; returns 0 after a graceful drain."""

        async def _main() -> int:
            stop_event = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop_event.set)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without loop signal handlers
            await self.start()
            if announce is not None:
                announce(f"repro.serve listening on {self.address} (workers={self.workers})")
                sys.stdout.flush()
            await stop_event.wait()
            if announce is not None:
                announce("repro.serve draining: cancelling jobs, shutting the pool down")
            await self.stop()
            return 0

        try:
            return asyncio.run(_main())
        except KeyboardInterrupt:
            return 0


class ServerThread:
    """A live :class:`ReproServer` on a daemon thread (for tests, notebooks).

    ::

        with ServerThread(port=0, workers=2, cache_dir=tmp) as server:
            client = ServeClient(port=server.port)
            ...

    The context exit performs the same graceful drain as SIGTERM.
    """

    def __init__(self, **kwargs) -> None:
        self.server = ReproServer(**kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return self.server.address

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("repro.serve thread failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("repro.serve failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as exc:  # noqa: BLE001 — surfaced to __enter__
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            self._loop.run_forever()
        finally:
            self._loop.close()

    def __exit__(self, *exc_info) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), loop)
        try:
            future.result(timeout=30)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=30)
