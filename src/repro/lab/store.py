"""Typed campaign artifacts: :class:`CellResult` rows in a JSONL store.

One campaign produces one ``results.jsonl`` file — one JSON object per line,
one line per cell.  Append-only and flushed per row, so a campaign killed
mid-run leaves a valid store behind; resume reads the completed cell ids back
and schedules only the remainder.  The line handling — torn-tail repair,
group-committed fsync, the last-write-wins index scan, reading from an
offset — is :class:`JsonlLog`, which the result cache's segments and the
shared-dir shard merge use too.

It is also the one module that creates, truncates, replaces or links a file
(``tests/test_durable_io.py`` holds the package to that): :func:`replace_file`
and :func:`write_json` for whole files, :func:`_create_exclusive` for marker
files, and :func:`_link_exclusive` for names that share one.

The **determinism contract**: everything in :meth:`CellResult.deterministic_dict`
is a pure function of the cell descriptor (spec fingerprint, input, config,
engine) for seeded cells, so the serial and parallel executors must produce
bit-identical deterministic rows.  The :data:`PROVENANCE_FIELDS`
(``wall_time``, ``cached``, ``cpu_time``, ``worker``) describe *this*
execution, not the result, and are the only fields excluded.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import tempfile
import time
import warnings
from dataclasses import dataclass, fields
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.api.config import CANONICAL_JSON

#: Fields describing how a row was produced rather than what was computed.
#: Excluded from the deterministic view (and therefore from cache payloads).
PROVENANCE_FIELDS = ("wall_time", "cached", "cpu_time", "worker")


@dataclass
class CellResult:
    """The outcome of one campaign cell (one spec x input x engine x config run).

    ``status`` is ``"ok"`` or ``"error"``; error rows keep the descriptor
    fields populated and carry the exception rendering in ``error`` so a
    failed cell is a recorded data point, never a crashed campaign.
    """

    cell_id: str
    spec: str
    strategy: str
    input: Tuple[int, ...]
    engine: str
    config: Dict[str, Any]
    status: str
    expected: Optional[int] = None
    outputs: Tuple[int, ...] = ()
    output_mode: Optional[int] = None
    output_unanimous: Optional[bool] = None
    converged: Optional[bool] = None
    correct: Optional[bool] = None
    mean_steps: Optional[float] = None
    total_steps: Optional[int] = None
    error: Optional[str] = None
    wall_time: float = 0.0
    cached: bool = False
    cpu_time: Optional[float] = None
    """CPU seconds (``time.process_time``) the executing worker spent on this
    cell; ``None`` for cached rows (provenance, like ``wall_time``)."""
    worker: Optional[int] = None
    """PID of the process that executed the cell (provenance)."""

    def __post_init__(self) -> None:
        self.input = tuple(int(v) for v in self.input)
        self.outputs = tuple(int(v) for v in self.outputs)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        """The full row, provenance included (one JSONL line).

        Built field by field rather than with ``dataclasses.asdict``, whose
        deep copy of every value was the row path's largest fixed cost.  The
        dict is fresh (``config`` is copied too), so a caller may mutate it
        without touching the row.
        """
        return {
            "cell_id": self.cell_id,
            "spec": self.spec,
            "strategy": self.strategy,
            "input": list(self.input),
            "engine": self.engine,
            "config": dict(self.config),
            "status": self.status,
            "expected": self.expected,
            "outputs": list(self.outputs),
            "output_mode": self.output_mode,
            "output_unanimous": self.output_unanimous,
            "converged": self.converged,
            "correct": self.correct,
            "mean_steps": self.mean_steps,
            "total_steps": self.total_steps,
            "error": self.error,
            "wall_time": self.wall_time,
            "cached": self.cached,
            "cpu_time": self.cpu_time,
            "worker": self.worker,
        }

    def deterministic_dict(self) -> Dict[str, Any]:
        """The row minus provenance — the executor-equivalence / cache payload view."""
        return deterministic_view(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellResult":
        """Rebuild a row from :meth:`to_dict` / :meth:`deterministic_dict` output.

        Keys that are not fields (a row written by a newer version) are dropped.
        """
        return cls(**{key: value for key, value in data.items() if key in _ROW_FIELDS})


_ROW_FIELDS = frozenset(f.name for f in fields(CellResult))


def deterministic_view(row: Mapping[str, Any]) -> Dict[str, Any]:
    """A :meth:`CellResult.to_dict` row minus :data:`PROVENANCE_FIELDS`."""
    return {key: value for key, value in row.items() if key not in PROVENANCE_FIELDS}


def replace_file(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` whole: a crash leaves the old file or
    the new one, never a torn one.

    ``data`` goes to a dot-prefixed temp file in the same directory, is
    fsync'd, then renamed over ``path``; on any failure the temp file is
    removed and the error re-raised.  A file already holding ``data`` is
    left alone.  The rename is not fsync'd: a power cut may restore the old file.
    """
    try:
        with open(path, "rb") as handle:
            if handle.read(len(data) + 1) == data:
                return
    except OSError:
        pass
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".tmp-{name}-{os.urandom(6).hex()}")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(fd)
        os.replace(temp, path)
    except BaseException:
        _unlink(temp)
        raise


def write_json(path: str, payload: Mapping[str, Any]) -> None:
    """:func:`replace_file` with ``payload`` as JSON: sorted keys, indent 2, newline."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    replace_file(path, text.encode("utf-8"))


def read_json(path: str) -> Optional[Dict[str, Any]]:
    """The JSON object in ``path``; ``None`` if absent, unreadable or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _create_exclusive(path: str, payload: Mapping[str, Any]) -> bool:
    """``O_EXCL``-create ``path`` holding ``payload``, unsynced: exactly one
    caller wins, the rest get ``False``.  Every caller tolerates its loss."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    return True


def _link_exclusive(source: str, path: str) -> bool:
    """Hard-link ``path`` to ``source``'s file: like :func:`_create_exclusive`,
    exactly one caller wins the name and the rest get ``False``, but nothing
    is created or written.  ``FileNotFoundError`` if ``source`` is gone."""
    try:
        os.link(source, path)
    except FileExistsError:
        return False
    return True


def _rewrite_in_place(path: str, payload: Mapping[str, Any]) -> bool:
    """Overwrite the file ``path`` names with ``payload`` as JSON, in place
    and unsynced: every hard link to it reads the new content, and nothing is
    created.  ``False`` if ``path`` is gone.  A reader racing the write may
    see a torn object; every caller tolerates that."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY)
    except FileNotFoundError:
        return False
    try:
        os.pwrite(fd, data, 0)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return True


def _unlink(path: str) -> None:
    """Remove ``path`` if it is still there (another process may have won)."""
    with contextlib.suppress(OSError):
        os.unlink(path)


#: A temporary directory, removed on exit of the ``with`` it opens.
scratch_dir = tempfile.TemporaryDirectory


#: Read size when searching backwards for the start of a torn final line.
_TAIL_BLOCK = 4096

#: Bytes :meth:`JsonlLog.read_line` asks for per ``pread``.
_LINE_CHUNK = 4096

#: Group commit: a :class:`JsonlLog` fsyncs once this many appended lines are
#: unsynced, or at the first append at least :data:`COMMIT_SECONDS` after its
#: last fsync, whichever comes first; :meth:`JsonlLog.close` always commits.
COMMIT_ROWS = 64
COMMIT_SECONDS = 0.2


@dataclass
class StoreScanStats:
    """What one scan of a store file saw (set on :attr:`ResultStore.last_scan`).

    ``corrupt_tail`` is the torn final line an interrupted writer can leave
    behind — expected, and silently ignored.  ``corrupt_interior`` lines are
    *not* expected (disk fault, manual edit): they are counted, surfaced via a
    :class:`UserWarning` and the campaign report, and the affected cell simply
    reads as not-yet-completed so resume re-runs it.  ``duplicates`` counts
    rows superseded by a later row with the same ``cell_id`` (resume after
    interior corruption, ``--retry-errors``, or a distributed worker racing a
    lease expiry); readers keep the last write.
    """

    lines: int = 0
    rows: int = 0
    duplicates: int = 0
    corrupt_interior: int = 0
    corrupt_tail: int = 0

    @property
    def corrupt_total(self) -> int:
        return self.corrupt_interior + self.corrupt_tail


class JsonlLog:
    """One append-only JSONL file whose lines are keyed by a string field.

    The line-log primitives shared by :class:`ResultStore`, the
    :class:`~repro.lab.cache.ResultCache` segments and
    :meth:`~repro.lab.backends.SharedDirQueue.merged_rows`:

    * **Append.**  :meth:`append` writes and flushes one line through a handle
      kept open between appends, so other processes see the line at once.
      Opening the handle repairs a torn tail first
      (:meth:`_end_at_line_boundary`), and so does an append that finds the
      file no longer ending where this handle left it (another writer touched
      it).  The fsync is *group-committed* (:data:`COMMIT_ROWS`,
      :data:`COMMIT_SECONDS`), and :meth:`close` forces it.
      A failed write or fsync drops the handle, so the next append re-opens
      the file and repairs its tail.  A crash therefore loses at most the
      lines appended since the last commit, and never leaves a torn line for
      a later append to glue onto.
    * **Indexed scan.**  :meth:`index` maps each key to the offset of its last
      line (last write wins) in one streaming pass that pulls only the key
      out of each interior line; :meth:`read_lines` then reads the chosen
      lines back.
    * **Tail.**  :meth:`lines` and :meth:`tail_keys` read from any byte
      offset: how a reader follows a log another process is appending to.
    """

    def __init__(self, path: str, key: str) -> None:
        self.path = str(path)
        self.key = key
        # Lines are written with sorted keys and compact separators, so the
        # *first* match is the real key as long as the key field sorts before
        # every field whose value could embed the pattern as text (true of
        # ``cell_id`` in a row and of ``k`` in a cache line).
        self._key_re = re.compile(b'"' + re.escape(key.encode("utf-8")) + b'":"([^"]+)"')
        self._handle: Optional[BinaryIO] = None
        self._size = 0
        self._unsynced = 0
        self._synced_at = 0.0

    # -- keys ---------------------------------------------------------------

    def fast_key(self, line: bytes) -> Optional[str]:
        """The key of a complete-looking line, without a full JSON parse.

        The regex alone would also match a line truncated *after* the key, so
        a cheap completeness check (object lines end with ``}``) guards it;
        the one line where truncation is actually expected — a file's final
        one — gets :meth:`strict_key` instead.
        """
        if not line.endswith(b"}"):
            return None
        match = self._key_re.search(line)
        if match is not None:
            return match.group(1).decode("utf-8", "replace")
        return self.strict_key(line)  # hand-written / re-ordered line

    def strict_key(self, line: bytes) -> Optional[str]:
        try:
            data = json.loads(line)
        except ValueError:
            return None
        value = data.get(self.key) if isinstance(data, dict) else None
        return value if isinstance(value, str) else None

    # -- reading ------------------------------------------------------------

    def lines(self, start: int = 0) -> Iterator[Tuple[int, bytes]]:
        """``(offset, line)`` for each line from byte ``start`` on, newline kept.

        A final line without its newline is torn, or still being written by
        another process.  A missing file has no lines.
        """
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        with handle:
            handle.seek(start)
            offset = start
            for line in handle:
                yield offset, line
                offset += len(line)

    def tail_keys(self, start: int) -> Tuple[List[Tuple[str, int]], int]:
        """``(key, offset)`` of each complete keyed line from byte ``start`` on,
        and the offset after the last newline, to resume from next time."""
        keys: List[Tuple[str, int]] = []
        for offset, raw in self.lines(start):
            if not raw.endswith(b"\n"):
                break  # torn, or still being written
            start = offset + len(raw)
            key = self.fast_key(raw.strip())
            if key is not None:
                keys.append((key, offset))
        return keys, start

    def read_line(self, offset: int) -> bytes:
        """The line starting at byte ``offset``, newline kept; a final line
        without one comes back as far as it goes.

        One ``pread`` on a raw descriptor reads a line of up to
        :data:`_LINE_CHUNK` bytes: a cache hit pays the syscalls and no
        buffered file object.
        """
        fd = os.open(self.path, os.O_RDONLY)
        try:
            line = b""
            while True:
                chunk = os.pread(fd, _LINE_CHUNK, offset + len(line))
                end = chunk.find(b"\n")
                if end >= 0:
                    return line + chunk[: end + 1]
                if not chunk:
                    return line
                line += chunk
        finally:
            os.close(fd)

    def read_lines(self, offsets: Iterable[int]) -> Iterator[bytes]:
        """The lines starting at ``offsets``, in file order."""
        offsets = sorted(offsets)
        if not offsets:
            return
        with open(self.path, "rb") as handle:
            for offset in offsets:
                handle.seek(offset)
                yield handle.readline()

    def index(self) -> Tuple[Dict[str, int], StoreScanStats]:
        """Map each key to the offset of its *last* line, in one streaming pass.

        Interior lines use :meth:`fast_key` — this is what makes million-row
        resume scans cheap; the final line (the only one an interrupted
        append can tear) gets :meth:`strict_key`, so a torn tail never
        masquerades as a complete entry.  Unreadable interior lines are
        counted and reported with a :class:`UserWarning`.
        """
        last: Dict[str, int] = {}
        stats = StoreScanStats()
        unreadable = 0

        def take(offset: int, key: Optional[str]) -> None:
            nonlocal unreadable
            stats.lines += 1
            if key is None:
                unreadable += 1
                return
            if key in last:
                stats.duplicates += 1
            last[key] = offset

        pending: Optional[Tuple[int, bytes]] = None
        for offset, raw in self.lines():
            line = raw.strip()
            if not line:
                continue
            if pending is not None:
                take(pending[0], self.fast_key(pending[1]))
            pending = (offset, line)
        if pending is not None:
            tail_key = self.strict_key(pending[1])
            take(pending[0], tail_key)
            if tail_key is None:
                unreadable -= 1
                stats.corrupt_tail = 1
        stats.corrupt_interior = unreadable
        stats.rows = len(last)
        if unreadable:
            warnings.warn(
                f"{self.path}: skipped {unreadable} corrupt interior "
                "line(s); the affected cells read as incomplete and will be "
                "re-run on resume",
                UserWarning,
                stacklevel=3,
            )
        return last, stats

    # -- writing ------------------------------------------------------------

    def append(self, line: bytes) -> int:
        """Write and flush one newline-terminated line; returns its offset."""
        try:
            handle = self._open()
            offset = self._size
            handle.write(line)
            handle.flush()
            self._size = offset + len(line)
            self._unsynced += 1
            if (
                self._unsynced >= COMMIT_ROWS
                or time.monotonic() - self._synced_at >= COMMIT_SECONDS
            ):
                self._fsync(handle)
        except BaseException:
            self._drop()
            raise
        return offset

    def close(self) -> None:
        """Commit (fsync) every appended line, then release the handle.

        A later :meth:`append` re-opens the file.
        """
        try:
            if self._handle is not None and self._unsynced:
                self._fsync(self._handle)
        finally:
            self._drop()

    def _fsync(self, handle: BinaryIO) -> None:
        os.fsync(handle.fileno())
        self._unsynced = 0
        self._synced_at = time.monotonic()

    def _open(self) -> BinaryIO:
        handle = self._handle
        if handle is None:
            handle = self._handle = open(self.path, "a+b")
            self._synced_at = time.monotonic()
        elif os.fstat(handle.fileno()).st_size == self._size:
            return handle
        self._end_at_line_boundary(handle)
        self._size = handle.seek(0, os.SEEK_END)
        return handle

    def _drop(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _end_at_line_boundary(self, handle: BinaryIO) -> None:
        """Make the file end with a newline before a line is appended to it.

        An append interrupted mid-write leaves a final line with no newline;
        writing the next line after it would glue the two into one line that
        :meth:`index` and :meth:`read_lines` read differently.  A complete
        line that lost only its newline is terminated; a torn one, which no
        reader counts (so its cell runs again, or its cache key misses), is
        truncated away.
        """
        end = handle.seek(0, os.SEEK_END)
        if end == 0:
            return
        handle.seek(end - 1)
        if handle.read(1) == b"\n":
            return
        start = end
        while start > 0:
            step = min(_TAIL_BLOCK, start)
            handle.seek(start - step)
            newline = handle.read(step).rfind(b"\n")
            if newline >= 0:
                start = start - step + newline + 1
                break
            start -= step
        handle.seek(start)
        if self.strict_key(handle.read(end - start)) is not None:
            handle.write(b"\n")
        else:
            handle.truncate(start)


class ResultStore:
    """Append-only JSONL store for :class:`CellResult` rows.

    The store is one :class:`JsonlLog` keyed by ``cell_id``.  Its append
    handle stays open for the run: every row is written and flushed as it is
    appended, so the file is always a valid prefix of the campaign — the
    property resume depends on — and other processes see each row at once.
    The fsync is group-committed (:data:`COMMIT_ROWS` rows or
    :data:`COMMIT_SECONDS`); :meth:`close` commits and releases the handle,
    which :func:`~repro.lab.campaign.run_campaign` does in a ``finally``.
    A crash loses at most the rows appended since the last commit; resume
    re-runs those cells, and since cells are deterministic their rows come
    out identical.  A trailing partial line (the one a ``kill -9`` can leave
    behind) is ignored on read, and the next :meth:`append` never writes onto
    it.

    Readers deduplicate by ``cell_id`` with last-write-wins semantics: a store
    may legitimately hold several rows for one cell (resume re-ran a cell whose
    earlier row was corrupted, ``--retry-errors`` superseded an error row, or a
    distributed worker duplicated work after a lease expiry), and the newest
    row is the canonical one.  Every read path records what it saw on
    :attr:`last_scan` so callers can surface corruption counts.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.last_scan: StoreScanStats = StoreScanStats()
        self._log = JsonlLog(self.path, "cell_id")

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def append(self, result: CellResult) -> Dict[str, Any]:
        """Append and flush one row; returns the :meth:`CellResult.to_dict` it wrote.

        Callers that need the row's dict form too (the cache payload) reuse
        the returned dict instead of serializing the row a second time.
        """
        data = result.to_dict()
        line = CANONICAL_JSON.encode(data) + "\n"
        self._log.append(line.encode("utf-8"))
        return data

    def close(self) -> None:
        """Commit (fsync) every appended row, then release the append handle."""
        self._log.close()

    def _index(self) -> Dict[str, int]:
        last, self.last_scan = self._log.index()
        return last

    def iter_rows(self, dedupe: bool = True) -> Iterator[CellResult]:
        """Stream rows in file order, one canonical row per ``cell_id``.

        With ``dedupe=True`` (the default) only the last row written for each
        cell is yielded, at the position of that last occurrence; corrupt
        lines are skipped and counted on :attr:`last_scan`.  ``dedupe=False``
        restores the raw historical view (every parseable row, duplicates
        included) for forensics.
        """
        if dedupe:
            for line in self._log.read_lines(self._index().values()):
                try:
                    yield CellResult.from_dict(json.loads(line))
                except (ValueError, TypeError):
                    # a line the fast scan accepted but a strict parse
                    # rejects: treat it like any other interior damage
                    self.last_scan.corrupt_interior += 1
            return
        self.last_scan = StoreScanStats()
        for _offset, raw in self._log.lines():
            line = raw.strip()
            if not line:
                continue
            self.last_scan.lines += 1
            try:
                data = json.loads(line)
            except ValueError:
                continue
            self.last_scan.rows += 1
            yield CellResult.from_dict(data)

    def load(self) -> List[CellResult]:
        return list(self.iter_rows())

    def completed_ids(self) -> Set[str]:
        """Cell ids already recorded (both ok and error rows count as done).

        Streams the file parsing only the ``cell_id`` key — never builds a
        :class:`CellResult` — so resuming a million-cell sweep costs one pass
        of regex scans, not a million dataclass constructions.
        """
        return set(self._index())

    def __len__(self) -> int:
        """Number of distinct completed cells (the deduplicated row count)."""
        return len(self._index())

    def __repr__(self) -> str:
        return f"ResultStore({self.path!r})"
