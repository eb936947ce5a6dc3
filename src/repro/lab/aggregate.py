"""Campaign summaries: convergence / correctness rates and engine throughput.

:func:`summarize` folds :class:`~repro.lab.store.CellResult` rows into a
:class:`CampaignSummary`; :func:`format_report` renders it for humans.
Rates are over *ok* rows; error rows are counted but never averaged in.
Throughput is computed only from rows that actually simulated in this run —
cache replays carry no wall time and would otherwise fake an infinite
steps/sec.

Both :func:`summarize` and :func:`format_profile` are **single-pass streaming
folds**: they consume their row iterable exactly once and hold O(engines) /
O(top) state, never the row list — a million-cell ``report`` reads
``ResultStore.iter_rows()`` straight off disk without materializing anything.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.lab.store import CellResult, read_json, write_json


@dataclass
class EngineStats:
    """Per-engine slice of a campaign."""

    engine: str
    cells: int = 0
    errors: int = 0
    cache_hits: int = 0
    converged: int = 0
    correct: int = 0
    total_steps: int = 0
    wall_time: float = 0.0
    steps_per_sec: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "cells": self.cells,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "converged": self.converged,
            "correct": self.correct,
            "total_steps": self.total_steps,
            "wall_time_s": round(self.wall_time, 6),
            "steps_per_sec": self.steps_per_sec,
        }


@dataclass
class CampaignSummary:
    """The aggregate view written to ``summary.json`` and printed by ``report``."""

    campaign: str
    total_cells: int
    ok: int
    errors: int
    cache_hits: int
    convergence_rate: float
    correct_rate: float
    mean_steps: float
    wall_time: float
    engines: Dict[str, EngineStats] = field(default_factory=dict)
    corrupt_lines_skipped: int = 0
    """Interior store lines that failed to parse (see
    :class:`~repro.lab.store.StoreScanStats`); nonzero means the store was
    damaged and the affected cells were recovered by a re-run."""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "total_cells": self.total_cells,
            "ok": self.ok,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "convergence_rate": round(self.convergence_rate, 6),
            "correct_rate": round(self.correct_rate, 6),
            "mean_steps": round(self.mean_steps, 3),
            "wall_time_s": round(self.wall_time, 6),
            "engines": {name: stats.to_dict() for name, stats in self.engines.items()},
            "corrupt_lines_skipped": self.corrupt_lines_skipped,
        }


def summarize(results: Iterable[CellResult], campaign: str = "") -> CampaignSummary:
    """Fold rows into a :class:`CampaignSummary` (empty input yields zero rates).

    One streaming pass with O(engines) state: ``results`` may be a plain list
    or a one-shot iterator straight off ``ResultStore.iter_rows()`` — the rows
    are never materialized here.
    """
    per_engine: Dict[str, EngineStats] = {}
    # only freshly simulated steps count toward throughput; a cached row's
    # steps were earned in some earlier run
    fresh_steps: Dict[str, int] = {}
    total = ok = errors = cache_hits = converged = correct = 0
    steps_sum = 0.0
    wall_time = 0.0

    for row in results:
        total += 1
        stats = per_engine.setdefault(row.engine, EngineStats(engine=row.engine))
        stats.cells += 1
        if row.cached:
            cache_hits += 1
            stats.cache_hits += 1
        if not row.ok:
            errors += 1
            stats.errors += 1
            continue
        ok += 1
        if row.converged:
            converged += 1
            stats.converged += 1
        if row.correct:
            correct += 1
            stats.correct += 1
        steps_sum += row.mean_steps or 0.0
        if row.total_steps:
            stats.total_steps += row.total_steps
            if not row.cached:
                fresh_steps[row.engine] = fresh_steps.get(row.engine, 0) + row.total_steps
        if not row.cached:
            wall_time += row.wall_time
            stats.wall_time += row.wall_time

    for name, stats in per_engine.items():
        if stats.wall_time > 0:
            stats.steps_per_sec = round(fresh_steps.get(name, 0) / stats.wall_time, 1)

    return CampaignSummary(
        campaign=campaign,
        total_cells=total,
        ok=ok,
        errors=errors,
        cache_hits=cache_hits,
        convergence_rate=(converged / ok) if ok else 0.0,
        correct_rate=(correct / ok) if ok else 0.0,
        mean_steps=(steps_sum / ok) if ok else 0.0,
        wall_time=wall_time,
        engines=per_engine,
    )


#: Schema tag for machine-readable benchmark output (BENCH_results.json).
BENCH_SCHEMA = "repro-bench-v1"

#: Canonical benchmark-output filename (repository root).
BENCH_FILENAME = "BENCH_results.json"


def default_bench_path(start: Optional[str] = None) -> str:
    """The default ``BENCH_results.json`` location: the repository root.

    Walks upward from ``start`` (default: the working directory) looking for a
    repository marker (``.git`` / ``ROADMAP.md`` / ``setup.py``), so both the
    pytest benchmark suite and ``python -m repro bench`` land their records in
    the same tracked file regardless of the directory they were launched from.
    Falls back to ``start`` itself when no marker is found.
    """
    import os

    current = os.path.abspath(start if start is not None else os.getcwd())
    probe = current
    while True:
        if any(
            os.path.exists(os.path.join(probe, marker))
            for marker in (".git", "ROADMAP.md", "setup.py")
        ):
            return os.path.join(probe, BENCH_FILENAME)
        parent = os.path.dirname(probe)
        if parent == probe:
            return os.path.join(current, BENCH_FILENAME)
        probe = parent


def make_bench_record(
    name: str, population: int, wall_time_s: Optional[float], steps: int, **extra
) -> Dict[str, Any]:
    """One ``BENCH_results.json`` record; the single place the shape is defined.

    ``steps_per_sec`` is derived; an unknown or zero wall time yields ``None``
    for both timing fields.  Extra keyword arguments pass through (``batch``,
    ``workers``, ``cells``, ...).
    """
    record = {
        "name": str(name),
        "population": int(population),
        "wall_time_s": round(float(wall_time_s), 6) if wall_time_s else None,
        "steps": int(steps),
        "steps_per_sec": round(steps / wall_time_s, 1) if wall_time_s else None,
    }
    record.update(extra)
    return record


def write_bench_json(
    path: str, records: List[Dict[str, Any]], source: str, merge: bool = False
) -> None:
    """Write benchmark records in the shared ``BENCH_results.json`` schema.

    Each record carries ``name``, ``population``, ``wall_time_s``, ``steps``
    and ``steps_per_sec`` (extra keys pass through).  Both the pytest
    benchmark suite and ``python -m repro bench`` emit this schema, so the
    perf trajectory is comparable across PRs regardless of which producer ran.

    With ``merge=True`` the new records are folded into whatever the file
    already holds: records are keyed by ``name``, fresh measurements replace
    stale ones, and untouched names survive.  This is what keeps the perf
    trajectory *cumulative* — a partial benchmark run (one family, one test)
    no longer wipes every other family's record.
    """
    if merge:
        existing = read_json(path)
        if existing is not None:
            by_name = {
                str(record.get("name", "")): record
                for record in existing.get("results", [])
                if isinstance(record, dict)
            }
            for record in records:
                by_name[str(record.get("name", ""))] = record
            records = list(by_name.values())
    payload = {
        "schema": BENCH_SCHEMA,
        "source": source,
        "results": sorted(records, key=lambda r: str(r.get("name", ""))),
    }
    write_json(path, payload)


def _is_regression(ratio: float, max_regression: float) -> bool:
    """Whether a current/baseline throughput ratio counts as a regression.

    The one definition shared by the plain ``bench-compare`` diff (exit code)
    and the ``--markdown`` trend table, so the two can never disagree about a
    record's status.
    """
    return ratio < 1.0 - max_regression


def _throughput_by_name(payload: Dict[str, Any]) -> Dict[str, float]:
    """Record name -> positive ``steps_per_sec``, the comparable slice of a
    ``BENCH_results.json`` payload (shared by the plain and markdown diffs)."""
    out: Dict[str, float] = {}
    for record in payload.get("results", []):
        if not isinstance(record, dict):
            continue
        value = record.get("steps_per_sec")
        if isinstance(value, (int, float)) and value > 0:
            out[str(record.get("name", ""))] = float(value)
    return out


def compare_bench_results(
    previous: Dict[str, Any],
    current: Dict[str, Any],
    max_regression: float = 0.30,
    name_filter: str = "",
) -> Tuple[List[str], List[str]]:
    """Compare two ``BENCH_results.json`` payloads by per-record throughput.

    Returns ``(regressions, report_lines)``: one human-readable line per
    record name present in *both* payloads with a positive ``steps_per_sec``
    (optionally restricted to names containing ``name_filter``), and a list of
    failure descriptions for every record whose throughput dropped by more
    than ``max_regression`` (e.g. ``0.30`` = fail on >30% slower).  Records
    missing from either side are skipped — a renamed or newly added benchmark
    is not a regression.
    """
    if not 0.0 <= max_regression < 1.0:
        raise ValueError(
            f"max_regression must be a fraction in [0, 1), got {max_regression!r}"
        )

    old = _throughput_by_name(previous)
    new = _throughput_by_name(current)
    regressions: List[str] = []
    lines: List[str] = []
    for name in sorted(set(old) & set(new)):
        if name_filter and name_filter not in name:
            continue
        ratio = new[name] / old[name]
        line = (
            f"{name}: {old[name]:,.0f} -> {new[name]:,.0f} steps/s "
            f"({ratio:.0%} of baseline)"
        )
        if _is_regression(ratio, max_regression):
            regressions.append(
                f"{name}: throughput fell {1.0 - ratio:.0%} "
                f"({old[name]:,.0f} -> {new[name]:,.0f} steps/s; "
                f"limit is {max_regression:.0%})"
            )
            line += "  << REGRESSION"
        lines.append(line)
    return regressions, lines


def format_markdown_trend(
    previous: Dict[str, Any],
    current: Dict[str, Any],
    max_regression: float = 0.30,
    name_filter: str = "",
) -> str:
    """A GitHub-flavoured markdown trend table for two benchmark payloads.

    One row per record name present in both payloads (same matching rules as
    :func:`compare_bench_results`); names only in one side are listed beneath
    the table so added or retired benchmarks stay visible in the job summary.
    Intended for ``python -m repro bench-compare --markdown`` and the CI
    bench-regression job's ``$GITHUB_STEP_SUMMARY``.
    """

    def keep(name: str) -> bool:
        return not name_filter or name_filter in name

    old = _throughput_by_name(previous)
    new = _throughput_by_name(current)
    shared = sorted(name for name in set(old) & set(new) if keep(name))
    lines = [
        "### Benchmark trend"
        + (f" (filter: `{name_filter}`)" if name_filter else ""),
        "",
        "| benchmark | baseline steps/s | current steps/s | ratio | status |",
        "|---|---:|---:|---:|---|",
    ]
    for name in shared:
        ratio = new[name] / old[name]
        if _is_regression(ratio, max_regression):
            status = ":x: regression"
        elif ratio > 1.0 + max_regression:
            status = ":rocket: faster"
        else:
            status = ":white_check_mark: stable"
        lines.append(
            f"| `{name}` | {old[name]:,.0f} | {new[name]:,.0f} | {ratio:.0%} | {status} |"
        )
    if not shared:
        lines.append("| _no overlapping records_ | | | | |")
    added = sorted(name for name in set(new) - set(old) if keep(name))
    removed = sorted(name for name in set(old) - set(new) if keep(name))
    if added:
        lines += ["", "New records (no baseline): " + ", ".join(f"`{n}`" for n in added)]
    if removed:
        lines += ["", "Retired records: " + ", ".join(f"`{n}`" for n in removed)]
    return "\n".join(lines)


def format_profile(rows: Iterable[CellResult], top: int = 10) -> str:
    """A where-did-the-time-go profile over campaign rows (``report --profile``).

    Uses the execution provenance the executors record on every row —
    ``wall_time``, ``cpu_time`` (``time.process_time``), and the worker PID —
    so it works on any ``results.jsonl``, no rerun or tracing required.
    Cached rows carry no execution time and are excluded beyond the headline
    count.  A wall/CPU gap on a cell is the signature of an oversubscribed or
    I/O-starved worker.  Streams ``rows`` in one pass holding only running
    totals and a ``top``-sized heap.
    """
    executed = 0
    wall = 0.0
    cpu = 0.0
    workers: set = set()
    # bounded min-heap of the top-N slowest rows; one pass, O(top) memory
    heap: List[Tuple[float, int, CellResult]] = []
    for row in rows:
        if row.cached:
            continue
        executed += 1
        wall += row.wall_time
        cpu += row.cpu_time or 0.0
        if row.worker is not None:
            workers.add(row.worker)
        if top <= 0:
            continue
        entry = (row.wall_time, -executed, row)
        if len(heap) < top:
            heapq.heappush(heap, entry)
        elif entry[:2] > heap[0][:2]:
            heapq.heappushpop(heap, entry)
    if not executed:
        return "profile: no executed cells (everything cached or recorded earlier)"
    lines = [
        f"profile       : {executed} executed cells, "
        f"{wall:.3f}s wall, {cpu:.3f}s cpu"
        + (f", {len(workers)} workers" if workers else ""),
    ]
    slowest = [entry[2] for entry in sorted(heap, key=lambda e: e[:2], reverse=True)]
    if slowest:
        lines.append(f"slowest cells (top {len(slowest)} by wall time):")
        for row in slowest:
            cpu_part = f" cpu {row.cpu_time:.3f}s" if row.cpu_time is not None else ""
            worker_part = f" worker {row.worker}" if row.worker is not None else ""
            lines.append(
                f"  {row.cell_id}  {row.wall_time:.3f}s{cpu_part}  "
                f"{row.spec}/{row.engine} input={list(row.input)}{worker_part}"
            )
    return "\n".join(lines)


def format_report(summary: CampaignSummary) -> str:
    """A compact human-readable rendering of a summary."""
    lines = [
        f"campaign      : {summary.campaign or '(unnamed)'}",
        f"cells         : {summary.total_cells} "
        f"(ok {summary.ok}, errors {summary.errors}, cache hits {summary.cache_hits})",
        f"convergence   : {summary.convergence_rate:.1%}",
        f"correct       : {summary.correct_rate:.1%}",
        f"mean steps    : {summary.mean_steps:,.1f}",
        f"sim wall time : {summary.wall_time:.3f}s",
    ]
    if summary.corrupt_lines_skipped:
        lines.append(
            f"store warnings: {summary.corrupt_lines_skipped} corrupt interior "
            "line(s) skipped (affected cells re-run on resume)"
        )
    if summary.engines:
        lines.append("per engine    :")
        for name in sorted(summary.engines):
            stats = summary.engines[name]
            throughput = (
                f"{stats.steps_per_sec:,.0f} steps/s"
                if stats.steps_per_sec is not None
                else "throughput n/a (all cached)"
            )
            lines.append(
                f"  {name:<12} {stats.cells} cells, {stats.errors} errors, "
                f"{stats.cache_hits} cached, {throughput}"
            )
    return "\n".join(lines)
