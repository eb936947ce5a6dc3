"""``repro.lab`` — parallel experiment campaigns over the workbench pipeline.

The orchestration layer on top of :mod:`repro.api`: declare a
:class:`Campaign` (specs x input grids x engines x config variants), and
:func:`run_campaign` expands it into deterministic seeded cells, fans them
across a worker pool, records typed :class:`CellResult` rows in a JSONL
store, content-addresses every seeded result in an on-disk cache (so
re-running is free and interrupted campaigns resume), and aggregates
convergence / correctness / throughput statistics.

Quickstart::

    from repro.lab import Campaign, SweepGrid, run_campaign

    campaign = Campaign(
        name="minimum-sweep",
        specs=["minimum"],
        inputs=SweepGrid.parse("0:10", dimension=2),
        engines=("python", "vectorized"),
        seed=7,
    )
    run = run_campaign(campaign, "runs/minimum-sweep", workers=4)
    print(run.summary.correct_rate, run.from_cache, run.executed)

or from a shell: ``python -m repro run --spec minimum --grid 0:10 --seed 7
--workers 4 --out runs/minimum-sweep`` (then ``resume`` / ``report`` /
``bench`` — see ``python -m repro --help``).

Campaigns also shard across *processes and hosts*: pass ``--backend
shared-dir`` (or ``executor=SharedDirBackend(...)``) and serve the queue
directory with any number of ``python -m repro worker --queue-dir ...``
processes — see :mod:`repro.lab.backends` and DESIGN.md §11.
"""

from repro.lab.aggregate import (
    BENCH_SCHEMA,
    CampaignSummary,
    EngineStats,
    format_report,
    summarize,
    write_bench_json,
)
from repro.lab.backends import SharedDirBackend, SharedDirQueue, worker_loop
from repro.lab.cache import (
    CODE_SALT,
    DEFAULT_CACHE_DIR,
    ResultCache,
    cell_cache_key,
    spec_fingerprint,
)
from repro.lab.campaign import (
    Campaign,
    CampaignRun,
    Cell,
    SweepGrid,
    register_spec_factory,
    resolve_engine,
    resolve_spec,
    resume_campaign,
    run_campaign,
    spec_factory_names,
)
from repro.lab.executor import (
    CellTimeoutError,
    PoolExecutor,
    SerialExecutor,
    StaleSpecError,
    run_cell,
    run_cell_with_timeout,
)
from repro.lab.store import CellResult, ResultStore, read_json, replace_file, write_json

__all__ = [
    "BENCH_SCHEMA",
    "CODE_SALT",
    "DEFAULT_CACHE_DIR",
    "Campaign",
    "CampaignRun",
    "CampaignSummary",
    "Cell",
    "CellResult",
    "CellTimeoutError",
    "EngineStats",
    "PoolExecutor",
    "ResultCache",
    "ResultStore",
    "SerialExecutor",
    "SharedDirBackend",
    "SharedDirQueue",
    "StaleSpecError",
    "SweepGrid",
    "cell_cache_key",
    "format_report",
    "read_json",
    "register_spec_factory",
    "replace_file",
    "resolve_engine",
    "resolve_spec",
    "resume_campaign",
    "run_campaign",
    "run_cell",
    "run_cell_with_timeout",
    "spec_factory_names",
    "spec_fingerprint",
    "summarize",
    "worker_loop",
    "write_bench_json",
    "write_json",
]
