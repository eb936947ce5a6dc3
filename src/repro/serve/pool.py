"""A pipe-per-worker process pool, awaited with ``loop.add_reader`` and no helper thread."""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import pickle
import signal
import time
from types import SimpleNamespace
from typing import Any, Callable, List

_JOIN_S = 5.0  # how long shutdown waits for idle workers to exit on EOF


class WorkerDied(RuntimeError):
    """A call's worker died (EOF or ``OSError`` on its pipe), and so did its one retry's."""


def _worker_main(conn, inherited) -> None:
    # Shed what the fork shares with the server; kept, it hides EOF and swallows SIGTERM.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C drains the server
    signal.set_wakeup_fd(-1)
    for end in inherited:
        end.close()
    with contextlib.suppress(EOFError, OSError):  # the server has closed its end
        while True:
            fn, args = conn.recv()
            try:
                reply = (True, fn(*args))
            except Exception as exc:  # noqa: BLE001 — raised again in the server
                reply = (False, exc)
            try:
                conn.send(reply)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:  # before any write
                conn.send((False, RuntimeError(f"unpicklable reply from {fn.__name__}: {exc!r}")))


def _read_reply(conn, reply: asyncio.Future) -> None:
    asyncio.get_running_loop().remove_reader(conn.fileno())
    try:
        reply.set_result(conn.recv())
    except Exception as exc:  # noqa: BLE001 — EOF, or a reply that fails to unpickle
        reply.set_exception(exc)


class WorkerPool:
    """``workers`` forked slots; ``workers=0`` runs calls on ``asyncio.to_thread``."""

    def __init__(self, workers: int, on_restart: Callable[[], None] = lambda: None) -> None:
        self._slots = [SimpleNamespace(process=None, conn=None) for _ in range(workers)]
        self._idle: asyncio.Queue = asyncio.Queue()  # FIFO for waiters, safe to cancel
        for slot in self._slots:
            self._idle.put_nowait(slot)
        self._on_restart = on_restart

    @property
    def pids(self) -> List[int]:
        return [slot.process.pid for slot in self._slots if slot.process is not None]

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        if not self._slots:
            return await asyncio.to_thread(fn, *args)
        slot = await self._idle.get()
        loop, reply, dead = asyncio.get_running_loop(), None, []
        try:
            while len(dead) < 2:  # one retry: pool calls are deterministic
                if slot.process is not None and slot.conn.poll():  # EOF on an idle pipe
                    self._on_restart()  # the worker died after its last call: fork anew
                    self._reap(slot)
                if slot.process is None:
                    self._spawn(slot)
                try:
                    slot.conn.send((fn, args))
                    reply = loop.create_future()
                    loop.add_reader(slot.conn.fileno(), _read_reply, slot.conn, reply)
                    ok, value = await asyncio.shield(reply)
                except (EOFError, OSError):
                    dead.append(slot.process.pid)
                    self._on_restart()
                    self._reap(slot)
                    continue
                if ok:
                    return value
                raise value
            raise WorkerDied(f"workers {dead[0]} and {dead[1]} died running {fn.__name__}")
        finally:
            if reply is None or reply.done():
                self._idle.put_nowait(slot)
            else:  # cancelled in flight: the slot stays out until the stale reply lands
                reply.add_done_callback(lambda _stale: self._idle.put_nowait(slot))

    def _spawn(self, slot) -> None:
        context = multiprocessing.get_context("fork")  # workers see runtime registrations
        parent, child = context.Pipe()
        inherited = [other.conn for other in self._slots if other.conn is not None] + [parent]
        process = context.Process(target=_worker_main, args=(child, inherited), daemon=True)
        process.start()  # a failed fork leaves the slot empty; both ends close when collected
        child.close()
        slot.process, slot.conn = process, parent

    def _reap(self, slot, deadline: float = 0.0) -> None:
        """Close the slot's pipe, join its worker until ``deadline`` (monotonic), else kill it."""
        asyncio.get_running_loop().remove_reader(slot.conn.fileno())  # a stale reply's
        slot.conn.close()
        slot.process.join(max(0.0, deadline - time.monotonic()))
        slot.process.kill()  # a no-op once it has exited
        slot.process.join()
        slot.process.close()
        slot.process = slot.conn = None

    async def shutdown(self) -> None:
        """Idle workers exit on EOF within ``_JOIN_S``; busy ones, awaited by no one, die now."""
        idle = {id(self._idle.get_nowait()) for _ in range(self._idle.qsize())}
        deadline = time.monotonic() + _JOIN_S
        for slot in self._slots:
            if slot.process is not None:
                self._reap(slot, deadline if id(slot) in idle else 0.0)
