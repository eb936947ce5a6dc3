"""Run outcomes, the traced-pass loop, and the per-layer metric fold."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers
from common import median

#: Counts that must repeat exactly for the same work (same seed).
EXACT_CALLS = ("cache.len", "cache.get", "cache.put", "store.append", "row.to_dict")
EXACT_VALUES = ("engine.events", "campaign.auto_picks.")


@dataclass
class Outcome:
    """What one workload run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    #: traced runs: {"first", "total", "passes", "records", "extras"}
    layers: Optional[Dict[str, Any]] = None
    #: which processes run the program: "self", "children" or "both"
    rss: str = "self"
    #: the spec names the workload's cells use
    specs: Tuple[str, ...] = ()

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def check_row(outcome: Outcome, cell, row) -> None:
    """One cell's row is ok and correct: its output mode is f(x)."""
    from repro.lab.campaign import resolve_spec

    outcome.attempted += 1
    if row is None:
        outcome.fail(f"cell {cell.cell_id} has no row")
        return
    f_x = resolve_spec(cell.spec)(cell.input)
    if not (row.ok and row.correct and row.expected == f_x and row.output_mode == f_x):
        outcome.fail(f"cell {cell.cell_id} {cell.spec}{cell.input}: {row.status} "
                     f"mode={row.output_mode} f(x)={f_x} error={row.error}")


def exact_counts(snapshot: Dict[str, Any]) -> Dict[str, float]:
    counts = {name: snapshot["stats"].get(name, [0])[0] for name in EXACT_CALLS}
    for key, value in snapshot["values"].items():
        if key.startswith(EXACT_VALUES) and not key.startswith("engine.events."):
            counts[key] = value
    return counts


class TracedPasses:
    """Untraced reference passes for half the budget, then traced passes.

    ``make_pass(traced)`` prepares one unit of work and returns an object with
    ``measure() -> wall seconds`` (the program's work, and nothing else) and
    ``finish() -> (subprocess snapshots, subprocess span records)`` (the
    benchmark's checks).  Only ``measure`` falls inside the recorded window.
    The first traced pass keeps full span records; every pass adds to the
    totals.  With ``same_work`` each pass repeats identical work, so the
    exact counts of every pass must agree.
    """

    def __init__(self, outcome: Outcome, same_work: bool = True) -> None:
        self.outcome = outcome
        self.same_work = same_work

    def run(self, make_pass: Callable[[bool], Any], seconds: float,
            extras: Optional[Callable[[], Dict[str, float]]] = None) -> Dict[str, Any]:
        layers.assert_unwrapped()
        reference: List[float] = []
        deadline = time.monotonic() + seconds / 2
        while not reference or time.monotonic() < deadline:
            unit = make_pass(False)
            reference.append(unit.measure())
            unit.finish()
        layers.assert_unwrapped()
        found = extras() if extras is not None else {}

        recorder = layers.Recorder()
        installed = layers.install(recorder)
        traced: List[float] = []
        diffs: List[Dict[str, Any]] = []
        records: List[Dict[str, Any]] = []
        try:
            deadline = time.monotonic() + seconds / 2
            while not diffs or time.monotonic() < deadline:
                unit = make_pass(True)
                recorder.recording = not diffs
                before = recorder.snapshot()
                traced.append(unit.measure())
                local = layers.diff(recorder.snapshot(), before)
                recorder.recording = False
                remote, remote_records = unit.finish()
                diffs.append(layers.merge([local] + remote))
                if len(diffs) == 1:
                    records = list(recorder.records) + remote_records
        finally:
            installed.remove()

        if self.same_work:
            first = exact_counts(diffs[0])
            for index, later in enumerate(diffs[1:], start=2):
                if exact_counts(later) != first:
                    self.outcome.fail(f"traced pass {index} counts differ from pass 1")
        found["obs.trace_overhead_ratio"] = median(traced) / median(reference)
        return {
            "first": diffs[0],
            "total": layers.merge(diffs),
            "passes": len(diffs),
            "records": records,
            "extras": found,
        }


def build_crn_seconds(specs, repeats: int = 5) -> float:
    """Median seconds to build and compile one CRN per spec (``core`` + ``crn``)."""
    from repro.core.characterization import build_crn_for
    from repro.lab.campaign import resolve_spec

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for name in specs:
            build_crn_for(resolve_spec(name), name=name, strategy="auto").compiled()
        times.append(time.perf_counter() - start)
    return median(times)


def _calls(snapshot, name: str) -> float:
    return snapshot["stats"].get(name, [0, 0.0, 0.0])[0]


def _total(snapshot, name: str) -> float:
    return snapshot["stats"].get(name, [0, 0.0, 0.0])[1]


def _self(snapshot, name: str) -> float:
    return snapshot["stats"].get(name, [0, 0.0, 0.0])[2]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(data: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics: counts from the first traced pass, times per pass."""
    first, total, passes = data["first"], data["total"], data["passes"]
    value = lambda key: first["values"].get(key, 0.0)  # noqa: E731
    per_pass = lambda seconds: seconds / passes  # noqa: E731
    events_total = total["values"]
    metrics = {
        "campaign.expand_s": per_pass(_total(total, "campaign.expand")),
        "campaign.auto_picks.python": value("campaign.auto_picks.python"),
        "campaign.auto_picks.vectorized": value("campaign.auto_picks.vectorized"),
        "campaign.spec_fingerprint_calls": _calls(first, "campaign.spec_fingerprint"),
        "campaign.unaccounted_s": per_pass(_self(total, "campaign.run")),
        "cache.get_calls": _calls(first, "cache.get"),
        "cache.get_s": per_pass(_total(total, "cache.get")),
        "cache.hit_ratio": _ratio(value("cache.get_hits"), _calls(first, "cache.get")),
        "cache.put_calls": _calls(first, "cache.put"),
        "cache.put_s": per_pass(_total(total, "cache.put")),
        "cache.len_calls": _calls(first, "cache.len"),
        "cache.len_s": per_pass(_total(total, "cache.len")),
        "store.append_calls": _calls(first, "store.append"),
        "store.append_s": per_pass(_total(total, "store.append")),
        "store.scan_s": per_pass(_total(total, "store.scan")),
        "store.rows_scanned": value("store.rows_scanned"),
        "row.to_dict_calls": _calls(first, "row.to_dict"),
        "row.serialize_s": per_pass(_total(total, "row.to_dict")),
        "executor.run_cell_s": per_pass(_total(total, "executor.run_cell")),
        "engine.run_many_s": per_pass(_total(total, "engine.run_many")),
        "engine.events": value("engine.events"),
        "aggregate.summarize_s": per_pass(_total(total, "aggregate.summarize")),
        "backends.enqueue_s": per_pass(_total(total, "backends.enqueue")),
        "backends.merged_rows_s": per_pass(_total(total, "backends.merged_rows")),
        "backends.done_polls": _calls(first, "backends.done_poll"),
        "backends.claim_ms": 1000 * _ratio(events_total.get("backends.claim_s", 0.0),
                                           events_total.get("backends.claims", 0.0)),
        "backends.complete_ms": 1000 * _ratio(_total(total, "backends.complete"),
                                              _calls(total, "backends.complete")),
        "serve.read_request_s": per_pass(_total(total, "serve.read_request")),
        "serve.encode_s": per_pass(_total(total, "serve.encode")),
        "jobs.single_cell_ms": 1000 * _ratio(_total(total, "jobs.single_cell"),
                                             _calls(total, "jobs.single_cell")),
        "jobs.pool_roundtrip_ms": 1000 * _ratio(
            events_total.get("jobs.execute_cell_self_s.miss", 0.0),
            events_total.get("jobs.execute_cell.miss", 0.0)),
    }
    for engine in ("python", "vectorized"):
        metrics[f"engine.events_per_s.{engine}"] = _ratio(
            events_total.get(f"engine.events.{engine}", 0.0),
            events_total.get(f"engine.run_many_s.{engine}", 0.0),
        )
    metrics.update(data["extras"])
    return metrics
