"""Typed campaign artifacts: :class:`CellResult` rows in a JSONL store.

One campaign produces one ``results.jsonl`` file — one JSON object per line,
one line per cell.  Append-only and flushed per row, so a campaign killed
mid-run leaves a valid store behind; resume reads the completed cell ids back
and schedules only the remainder.

The **determinism contract**: everything in :meth:`CellResult.deterministic_dict`
is a pure function of the cell descriptor (spec fingerprint, input, config,
engine) for seeded cells, so the serial and parallel executors must produce
bit-identical deterministic rows.  The :data:`PROVENANCE_FIELDS`
(``wall_time``, ``cached``, ``cpu_time``, ``worker``) describe *this*
execution, not the result, and are the only fields excluded.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass, fields
from typing import Any, BinaryIO, Dict, Iterator, List, Mapping, Optional, Set, Tuple

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
        """Rebuild a row from :meth:`to_dict` / :meth:`deterministic_dict` output."""
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        return cls(**kwargs)


def deterministic_view(row: Mapping[str, Any]) -> Dict[str, Any]:
    """A :meth:`CellResult.to_dict` row minus :data:`PROVENANCE_FIELDS`."""
    return {key: value for key, value in row.items() if key not in PROVENANCE_FIELDS}


#: Fast path for pulling the ``cell_id`` out of a row without parsing the
#: whole line.  Rows are written by :meth:`ResultStore.append` with sorted
#: keys and compact separators, so the *first* occurrence of the pattern is
#: always the real key (``cached`` and ``cell_id`` sort before every field
#: whose value could embed the pattern as text).
_CELL_ID_RE = re.compile(r'"cell_id":"([^"]+)"')

#: Read size when searching backwards for the start of a torn final line.
_TAIL_BLOCK = 4096


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


class ResultStore:
    """Append-only JSONL store for :class:`CellResult` rows.

    Rows are flushed (and fsync'd) as they are appended, so the store is
    always a valid prefix of the campaign — the property resume depends on.
    A trailing partial line (the one a ``kill -9`` can leave behind) is
    ignored on read, and the next :meth:`append` never writes onto it.

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

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def append(self, result: CellResult) -> Dict[str, Any]:
        """Durably append one row; returns the :meth:`CellResult.to_dict` it wrote.

        Callers that need the row's dict form too (the cache payload) reuse
        the returned dict instead of serializing the row a second time.
        """
        data = result.to_dict()
        line = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        with open(self.path, "a+b") as handle:
            self._end_at_line_boundary(handle)
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        return data

    def _end_at_line_boundary(self, handle: BinaryIO) -> None:
        """Make the file end with a newline before a row is appended to it.

        An append interrupted mid-write leaves a final line with no newline;
        writing the next row after it would glue the two into one line that
        the resume scan and :meth:`iter_rows` read differently.  A complete
        row that lost only its newline is terminated; a torn row, which no
        reader counts as done (so its cell runs again), is truncated away.
        Costs a one-byte read per append unless the tail is actually torn.
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
        fragment = handle.read(end - start).decode("utf-8", errors="replace")
        if self._strict_cell_id(fragment) is not None:
            handle.write(b"\n")
        else:
            handle.truncate(start)

    @staticmethod
    def _fast_cell_id(line: str) -> Optional[str]:
        """``cell_id`` of a complete-looking row, without a full JSON parse.

        The regex alone would also match a line truncated *after* the id, so a
        cheap completeness check (object lines end with ``}``) guards it; the
        one line where truncation is actually expected — the final one — gets
        a strict parse in :meth:`_index` instead.
        """
        if not line.endswith("}"):
            return None
        match = _CELL_ID_RE.search(line)
        if match is not None:
            return match.group(1)
        try:  # hand-written / re-ordered row: fall back to a real parse
            data = json.loads(line)
        except json.JSONDecodeError:
            return None
        cell_id = data.get("cell_id") if isinstance(data, dict) else None
        return cell_id if isinstance(cell_id, str) else None

    @staticmethod
    def _strict_cell_id(line: str) -> Optional[str]:
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            return None
        cell_id = data.get("cell_id") if isinstance(data, dict) else None
        return cell_id if isinstance(cell_id, str) else None

    def _index(self) -> Tuple[Dict[str, int], StoreScanStats]:
        """Map each ``cell_id`` to the line number of its *last* occurrence.

        Single streaming pass, parsing only the ``cell_id`` key — this is what
        makes million-row resume scans cheap.  Interior lines use the fast
        scan; the final line (the only one an interrupted append can tear) is
        fully parsed so a torn tail never masquerades as a completed cell.
        """
        last: Dict[str, int] = {}
        stats = StoreScanStats()
        corrupt_lines = 0

        def take(index: int, line: str, cell_id: Optional[str]) -> None:
            nonlocal corrupt_lines
            stats.lines += 1
            if cell_id is None:
                corrupt_lines += 1
                return
            if cell_id in last:
                stats.duplicates += 1
            last[cell_id] = index

        pending: Optional[Tuple[int, str]] = None
        with open(self.path, "r", encoding="utf-8") as handle:
            for index, raw in enumerate(handle):
                line = raw.strip()
                if not line:
                    continue
                if pending is not None:
                    take(pending[0], pending[1], self._fast_cell_id(pending[1]))
                pending = (index, line)
        if pending is not None:
            tail_id = self._strict_cell_id(pending[1])
            take(pending[0], pending[1], tail_id)
            if tail_id is None and corrupt_lines:
                corrupt_lines -= 1
                stats.corrupt_tail = 1
        stats.corrupt_interior = corrupt_lines
        stats.rows = len(last)
        if stats.corrupt_interior:
            warnings.warn(
                f"{self.path}: skipped {stats.corrupt_interior} corrupt interior "
                "line(s); the affected cells read as incomplete and will be "
                "re-run on resume",
                UserWarning,
                stacklevel=3,
            )
        return last, stats

    def iter_rows(self, dedupe: bool = True) -> Iterator[CellResult]:
        """Stream rows in file order, one canonical row per ``cell_id``.

        With ``dedupe=True`` (the default) only the last row written for each
        cell is yielded, at the position of that last occurrence; corrupt
        lines are skipped and counted on :attr:`last_scan`.  ``dedupe=False``
        restores the raw historical view (every parseable row, duplicates
        included) for forensics.
        """
        if not os.path.exists(self.path):
            self.last_scan = StoreScanStats()
            return
        if dedupe:
            last, stats = self._index()
            self.last_scan = stats
            keep = set(last.values())
            with open(self.path, "r", encoding="utf-8") as handle:
                for index, raw in enumerate(handle):
                    if index not in keep:
                        continue
                    try:
                        yield CellResult.from_dict(json.loads(raw))
                    except (ValueError, TypeError):
                        # a line the fast scan accepted but a strict parse
                        # rejects: treat it like any other interior damage
                        self.last_scan.corrupt_interior += 1
            return
        self.last_scan = StoreScanStats()
        with open(self.path, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                self.last_scan.lines += 1
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
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
        if not os.path.exists(self.path):
            self.last_scan = StoreScanStats()
            return set()
        last, stats = self._index()
        self.last_scan = stats
        return set(last)

    def __len__(self) -> int:
        """Number of distinct completed cells (the deduplicated row count)."""
        if not os.path.exists(self.path):
            self.last_scan = StoreScanStats()
            return 0
        last, stats = self._index()
        self.last_scan = stats
        return len(last)

    def __repr__(self) -> str:
        return f"ResultStore({self.path!r})"
