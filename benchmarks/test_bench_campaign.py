"""The simulator benchmark family ported through the ``repro.lab`` executor.

Where ``test_bench_simulators.py`` times raw simulator loops, this suite
times the full campaign path — expansion, worker pool, store, cache — so
orchestration overhead stays visible next to raw engine throughput, and
parallel scaling is measured on the same workload the CLI runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks --benchmark``.
"""

import pytest

from repro.api.config import RunConfig
from repro.lab import (
    Campaign,
    PoolExecutor,
    SerialExecutor,
    SweepGrid,
    run_campaign,
)

from conftest import events_over

POPULATIONS = [100, 1000]
WORKERS = 4


def minimum_family(populations, trials=3):
    return Campaign(
        name="bench-minimum-family",
        specs=[("minimum", "known")],
        inputs=[(p, p) for p in populations],
        engines=("python", "vectorized"),
        configs=(RunConfig(trials=trials, max_steps=10_000_000),),
        seed=1,
    )


@pytest.mark.parametrize("population", POPULATIONS)
def test_campaign_cell_throughput(bench_record, population):
    """Per-cell cost through the serial executor (pure orchestration + engine).

    One pass lasts a few milliseconds, so the record is timed over repeated
    passes until 0.1 s has passed (``runs`` records how many).
    """
    campaign = minimum_family([population])
    cells = campaign.expand()
    steps, seconds, runs, results = events_over(
        0.1,
        lambda _: list(SerialExecutor().map(cells)),
        lambda results: sum(r.total_steps for r in results),
    )
    assert all(r.ok and r.correct for r in results)
    bench_record(
        f"campaign/serial/minimum/pop{2 * population}",
        2 * population,
        seconds,
        steps,
        cells=len(cells),
        runs=runs,
    )


def test_campaign_parallel_scaling(tmp_path, bench_record):
    """Wall-clock for the same campaign: serial vs. a {WORKERS}-worker pool.

    Asserts correctness and records both timings, each over repeated runs
    into fresh out dirs until 0.1 s has passed; it does NOT gate on a
    speedup ratio (cells here are small, so pool overhead can dominate on a
    loaded CI box) — the numbers exist to track the trend.
    """
    campaign = minimum_family(POPULATIONS, trials=4)
    cells = campaign.expand()

    def timed(workers):
        return events_over(
            0.1,
            lambda run: run_campaign(
                campaign, str(tmp_path / f"w{workers}-{run}"), workers=workers, cache_dir=None
            ),
            lambda done: sum(r.total_steps for r in done.results),
        )

    serial_steps, serial_time, serial_runs, serial_run = timed(1)
    parallel_steps, parallel_time, parallel_runs, parallel_run = timed(WORKERS)

    assert serial_run.summary.errors == parallel_run.summary.errors == 0
    assert [r.deterministic_dict() for r in serial_run.results] == [
        r.deterministic_dict() for r in parallel_run.results
    ]
    bench_record(
        "campaign/run_campaign/serial", sum(2 * p for p in POPULATIONS),
        serial_time, serial_steps, cells=len(cells), runs=serial_runs,
    )
    bench_record(
        f"campaign/run_campaign/workers{WORKERS}", sum(2 * p for p in POPULATIONS),
        parallel_time, parallel_steps, cells=len(cells), workers=WORKERS,
        runs=parallel_runs,
    )
    print(
        f"\n[campaign] {len(cells)} cells: serial {serial_time / serial_runs:.3f}s, "
        f"{WORKERS} workers {parallel_time / parallel_runs:.3f}s per run"
    )


def test_campaign_cache_replay_is_near_instant(tmp_path, bench_record):
    """Acceptance gate: a fully cached campaign replays without simulating.

    Replays into fresh out dirs until 0.1 s has passed; every one must
    execute nothing, and the mean replay must stay under 5 s.
    """
    campaign = minimum_family(POPULATIONS)
    cache_dir = str(tmp_path / "cache")
    first = run_campaign(campaign, str(tmp_path / "cold"), workers=2, cache_dir=cache_dir)
    assert first.executed == first.total_cells

    def replay(run):
        second = run_campaign(
            campaign, str(tmp_path / f"warm{run}"), workers=2, cache_dir=cache_dir
        )
        assert second.from_cache == second.total_cells
        return second

    executed, replay_time, runs, second = events_over(0.1, replay, lambda run: run.executed)
    assert executed == 0
    bench_record(
        "campaign/cache-replay", sum(2 * p for p in POPULATIONS),
        replay_time, 0, cells=second.total_cells, runs=runs,
    )
    assert replay_time / runs < 5.0
