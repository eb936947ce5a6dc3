"""The campaign workloads: ``campaign-cold`` and ``campaign-replay``.

Both run the same 400-cell campaign -- four paper specs over a fixed 10x10
grid of even 2-D inputs below 20, engine ``"auto"`` (every population is
tiny, so it resolves to ``python``), trials 4 -- through ``run_campaign``
with the serial executor.  The workload seed is the campaign's master seed,
from which every cell's simulation seed is derived; the grid itself is fixed
so that the amount of engine work does not vary with the seed.

* ``campaign-cold`` writes into a fresh out dir and a fresh cache dir each
  pass: expand, engine, row serialization, ``store.append`` + fsync,
  ``cache.put`` + fsync, summarize.
* ``campaign-replay`` replays the cells from a cache warmed once before the
  timed passes into a fresh out dir each pass: ``cache.get`` +
  ``store.append``, and no engine at all.

Each pass ends with ``RESUMES`` resumes of the same out dir, which must
execute nothing.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

from common import Child, fresh_dir, launcher, mean, median, percentile
from harness import Outcome, TracedPasses, check_row

SPECS = ("minimum", "weighted_floor", "fig7", "quilt_2d_fig3b")
AXIS = tuple(range(0, 20, 2))
TRIALS = 4
#: set-up probes, one at the start and the rest spread over the timed passes
SETUP_PROBES = 8
RESUMES = 3


def make_campaign(seed: int):
    from repro.api.config import RunConfig
    from repro.lab.campaign import Campaign, SweepGrid

    return Campaign(
        name=f"perfbench-campaign-{seed}",
        specs=SPECS,
        inputs=SweepGrid((AXIS, AXIS)),
        engines=("auto",),
        configs=(RunConfig(trials=TRIALS),),
        seed=seed,
    )


def canonical(row) -> str:
    return json.dumps(row.deterministic_dict(), sort_keys=True, separators=(",", ":"))


class SetupProbe:
    """Wall times of fresh processes that import, expand and compile the campaign."""

    def __init__(self, campaign, outcome: Outcome) -> None:
        self.manifest = os.path.join(fresh_dir("setup"), "manifest.json")
        campaign.save(self.manifest)
        self.outcome = outcome
        self.times: List[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        code = Child(launcher("--probe", self.manifest)).wait(timeout=120)
        self.times.append(time.perf_counter() - start)
        self.outcome.attempted += 1
        if code != 0:
            self.outcome.fail(f"set-up probe exited with {code}")


def check_rows(run, cells, outcome: Outcome, expected_source: str) -> None:
    """Every cell has one row, ok and correct: output mode == f(x)."""
    by_id = {row.cell_id: row for row in run.results}
    for cell in cells:
        check_row(outcome, cell, by_id.get(cell.cell_id))
    if len(run.results) != len(cells):
        outcome.fail(f"{len(run.results)} rows for {len(cells)} cells")
    counts = {"run": run.executed, "cache": run.from_cache, "done": run.already_done}
    if counts[expected_source] != len(cells):
        outcome.fail(f"expected every cell from {expected_source!r}, got {counts}")


class Pass:
    """One pass (cold or replay) plus its resumes; checks run in :meth:`finish`."""

    def __init__(self, campaign, cells, cache_dir: str, source: str, outcome: Outcome,
                 reference: Dict[str, str]) -> None:
        self.campaign = campaign
        self.cells = cells
        self.cache_dir = cache_dir
        self.source = source
        self.outcome = outcome
        self.reference = reference
        self.out = fresh_dir("pass")
        self.gaps: List[float] = []

    def measure(self) -> float:
        from repro.lab import campaign as lab

        stamps: List[float] = []
        start = time.perf_counter()
        self.run = lab.run_campaign(
            self.campaign, self.out, cache_dir=self.cache_dir,
            progress=lambda row, how: stamps.append(time.perf_counter()))
        self.wall = time.perf_counter() - start
        self.resumes = []
        for _ in range(RESUMES):
            start_resume = time.perf_counter()
            self.resumed = lab.run_campaign(self.campaign, self.out, cache_dir=self.cache_dir)
            self.resumes.append(time.perf_counter() - start_resume)
        self.gaps = [b - a for a, b in zip([start] + stamps, stamps)]
        return self.wall

    def finish(self) -> Tuple[list, list]:
        outcome, resumed = self.outcome, self.resumed
        check_rows(self.run, self.cells, outcome, self.source)
        outcome.attempted += 1
        if resumed.executed or resumed.from_cache or resumed.already_done != len(self.cells):
            outcome.fail(f"resume executed {resumed.executed}, replayed {resumed.from_cache}")
        if self.reference:
            for row in self.run.results:
                if self.reference.get(row.cell_id) != canonical(row):
                    outcome.fail(f"cell {row.cell_id}: row differs from the cold row")
        self.run = self.resumed = None  # keep the benchmark's own memory flat
        return [], []


def run(seed: int, seconds: float, trace: bool, replay: bool) -> Outcome:
    outcome = Outcome(specs=SPECS)
    campaign = make_campaign(seed)
    cells = campaign.expand()

    reference: Dict[str, str] = {}
    cache_dir = ""
    if replay:
        # Warm the cache once (untimed); its rows are what replays must equal.
        cache_dir = os.path.join(fresh_dir("warm"), "cache")
        warm = Pass(campaign, cells, cache_dir, "run", outcome, {})
        warm.measure()
        reference = {row.cell_id: canonical(row) for row in warm.run.results}
        warm.finish()

    def make_pass(traced: bool = False) -> Pass:
        cache = cache_dir or os.path.join(fresh_dir("cache"), "cache")
        return Pass(campaign, cells, cache, "cache" if replay else "run", outcome, reference)

    if trace:
        outcome.layers = TracedPasses(outcome).run(make_pass, seconds)
        return outcome

    # Set-up is probed at evenly spaced moments between passes, so its median
    # covers the whole run rather than one phase of the host.
    probe = SetupProbe(campaign, outcome)
    probe()
    passes: List[Pass] = []
    start = time.monotonic()
    deadline = start + seconds
    while not passes or time.monotonic() < deadline:
        unit = make_pass()
        unit.measure()
        unit.finish()
        passes.append(unit)
        if (len(probe.times) < SETUP_PROBES
                and time.monotonic() - start >= seconds * len(probe.times) / SETUP_PROBES):
            probe()
    gaps = [gap for unit in passes for gap in unit.gaps]
    outcome.metrics = {
        "setup_s": median(probe.times),
        "cells_per_s": len(cells) * len(passes) / sum(unit.wall for unit in passes),
        "resume_s": mean([value for unit in passes for value in unit.resumes]),
    }
    outcome.details = {"passes": len(passes), "cells": len(cells), "cell_samples": len(gaps),
                       "cell_p50_ms": percentile(gaps, 0.50) * 1000,
                       "cell_p99_ms": percentile(gaps, 0.99) * 1000}
    return outcome
