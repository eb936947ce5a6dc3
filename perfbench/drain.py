"""The ``shared-dir-drain`` workload: two workers drain one shared-dir queue.

Each pass starts two ``python -m repro worker`` processes on a fresh queue
dir (their start-up is the pass's set-up), then a non-participating
``SharedDirBackend`` coordinator runs ``run_campaign`` over 135 cells:
``minimum``, ``add`` and ``maximum`` on 40 seeded tiny inputs plus five
fixed large ones (populations 3.5k to 20.5k), engine ``"auto"``, trials 4.
The two inputs above 20k molecules make ``auto`` pick ``vectorized`` for six
cells; every other cell runs on ``python``.  Once the workers have exited,
``RESUMES`` resumes of the same out dir through the same queue follow, and
must execute nothing.

Every pass uses its own campaign seed (derived from the workload seed), so
the order in which workers claim the large cells varies between passes and
the reported totals average over it.  The per-cell latencies on the details
line are each row's ``wall_time``: how long the cell ran on its worker.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from typing import Any, Dict, List, Tuple

import layers
from common import Child, fresh_dir, launcher, mean, median, percentile, wait_for_file
from harness import Outcome, TracedPasses, check_row

SPECS = ("minimum", "add", "maximum")
TINY = 40
TINY_AXIS = 10
LARGE = ((1800, 1700), (4200, 3800), (7000, 6500), (20100, 100), (20300, 200))
TRIALS = 4
WORKERS = 2
POLL = 0.02
RESUMES = 3


def make_campaign(seed: int):
    from repro.api.config import RunConfig
    from repro.lab.campaign import Campaign

    rng = random.Random(seed)
    grid = [(a, b) for a in range(TINY_AXIS) for b in range(TINY_AXIS)]
    return Campaign(
        name=f"perfbench-drain-{seed}",
        specs=SPECS,
        inputs=rng.sample(grid, TINY) + list(LARGE),
        engines=("auto",),
        configs=(RunConfig(trials=TRIALS),),
        seed=seed,
    )


def _read(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Drain:
    """One pass: fresh workers, the drain, its resume, and every check."""

    def __init__(self, seed: int, index: int, outcome: Outcome, traced: bool) -> None:
        self.campaign = make_campaign(seed * 1000 + index)
        self.cells = self.campaign.expand()
        self.outcome = outcome
        self.traced = traced
        self.root = fresh_dir("drain")
        self.queue = os.path.join(self.root, "queue")
        self.ready = [os.path.join(self.root, f"ready-w{i}") for i in range(WORKERS)]
        self.spans = [os.path.join(self.root, f"spans-w{i}.json") for i in range(WORKERS)]

    def measure(self) -> float:
        """Start the workers (set-up), then drain and resume; returns the drain wall."""
        from repro.lab import campaign as lab
        from repro.lab.backends import SharedDirBackend

        workers: List[Child] = []
        try:
            start = time.perf_counter()
            for i in range(WORKERS):
                extra = ["--spans", self.spans[i]] if self.traced else []
                workers.append(Child(launcher(
                    "--ready", self.ready[i], *extra, "--", "worker", "--queue-dir", self.queue,
                    "--worker-id", f"w{i}", "--poll", str(POLL), "--max-idle", "30")))
            for ready, child in zip(self.ready, workers):
                wait_for_file(ready, child)
            self.setup_s = time.perf_counter() - start

            out = os.path.join(self.root, "out")
            cache = os.path.join(self.root, "cache")
            backend = lambda: SharedDirBackend(  # noqa: E731
                self.queue, participate=False, poll=POLL, stall_timeout=60)
            start = time.perf_counter()
            self.run = lab.run_campaign(self.campaign, out, cache_dir=cache, executor=backend())
            self.wall = time.perf_counter() - start
            # Workers exit once they see the queue drained; resume only after
            # that, so their shutdown does not compete for the two cores.
            for child in workers:
                self.outcome.attempted += 1
                code = child.wait(timeout=60)
                if code != 0:
                    self.outcome.fail(f"worker exited with {code}")
            self.resumes = []
            for _ in range(RESUMES):
                start = time.perf_counter()
                self.resumed = lab.run_campaign(self.campaign, out, cache_dir=cache,
                                                executor=backend())
                self.resumes.append(time.perf_counter() - start)
        finally:
            for child in workers:
                child.stop()
        return self.wall

    def finish(self) -> Tuple[list, list]:
        """Check the outputs and read the queue; returns the workers' spans."""
        self.check(self.run, self.resumed)
        self.latencies = [row.wall_time for row in self.run.results]
        self.run = self.resumed = None  # keep the benchmark's own memory flat
        self.found = self.queue_metrics(self.wall)
        remote, records = [], []
        if self.traced:
            for path in self.spans:
                dumped = _read(path)
                remote.append({"stats": dumped["stats"], "values": dumped["values"]})
                records.extend(dumped["records"])
        return remote, records

    def check(self, run, resumed) -> None:
        outcome = self.outcome
        if [row.cell_id for row in run.results] != [cell.cell_id for cell in self.cells]:
            outcome.fail("merged rows do not cover each cell exactly once, in cell order")
        for cell, row in zip(self.cells, run.results):
            check_row(outcome, cell, row)
        outcome.attempted += 1
        if run.executed != len(self.cells) or resumed.executed or resumed.from_cache:
            outcome.fail(f"drain executed {run.executed} of {len(self.cells)}; "
                         f"resume executed {resumed.executed}, replayed {resumed.from_cache}")

    def queue_metrics(self, wall: float) -> Dict[str, float]:
        from repro.lab.store import ResultStore

        results = os.path.join(self.queue, "results")
        executions = sum(
            1
            for name in os.listdir(results)
            for _row in ResultStore(os.path.join(results, name)).iter_rows(dedupe=False)
        )
        stats_dir = os.path.join(self.queue, "stats")
        busy = sum(_read(os.path.join(stats_dir, name))["wall_s"] for name in os.listdir(stats_dir))
        return {
            "backends.worker_busy_ratio": busy / (WORKERS * wall),
            "backends.executions_per_cell": executions / len(self.cells),
        }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome(rss="both", specs=SPECS)

    if trace:
        # Each side counts its own passes, so traced pass 1 drains campaign 0
        # -- the same work as the first untraced pass and the end-to-end run's.
        index = {False: itertools.count(), True: itertools.count()}
        untraced: List[Drain] = []

        def make_pass(traced: bool) -> Drain:
            unit = Drain(seed, next(index[traced]), outcome, traced)
            if not traced:
                untraced.append(unit)
            return unit

        # The queue-file ratios come from the untraced passes.
        outcome.layers = TracedPasses(outcome, same_work=False).run(
            make_pass, seconds,
            extras=lambda: {key: median([unit.found[key] for unit in untraced])
                            for key in untraced[0].found},
        )
        return outcome

    layers.assert_unwrapped()
    passes: List[Drain] = []
    deadline = time.monotonic() + seconds
    while not passes or time.monotonic() < deadline:
        unit = Drain(seed, len(passes), outcome, False)
        unit.measure()
        unit.finish()
        passes.append(unit)
    latencies = [value for unit in passes for value in unit.latencies]
    outcome.metrics = {
        "setup_s": median([unit.setup_s for unit in passes]),
        "cells_per_s": sum(len(unit.cells) for unit in passes) / sum(unit.wall for unit in passes),
        "resume_s": mean([value for unit in passes for value in unit.resumes]),
    }
    outcome.details = {
        "passes": len(passes),
        "drain_s": [unit.wall for unit in passes],
        "cell_samples": len(latencies),
        "cell_p50_ms": percentile(latencies, 0.50) * 1000,
        "cell_p99_ms": percentile(latencies, 0.99) * 1000,
    }
    return outcome
