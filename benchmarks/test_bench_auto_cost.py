"""Calibration records for the ``engine="auto"`` cost rule.

``"auto"`` picks, among the eligible engines of one class (exact, or
approximate under ``allow_approximate``), the one minimising
``step_cost + trials * trial_step_cost`` (see
:func:`repro.lab.campaign.resolve_engine`).  Engines of one class fire the
same reaction events per trial, so one fixed population per class is enough
to measure both constants: this suite times ``run_many`` on ``add`` for every
auto-eligible built-in engine at trials 4 and 512.  ``add`` fires exactly
``x1 + x2`` events per trial on every engine, so each record's
``steps / trials`` is the per-trial step count the constants are quoted in.

``tests/test_registry.py::TestAutoCostCalibration`` refits the registry
constants from these records (two points per engine give the intercept
``step_cost`` and the slope ``trial_step_cost`` of the per-step wall time
against trials) and checks that ``"auto"`` picks the faster engine of every
measured pair that differs by 1.5x or more.  After re-running this suite on
new hardware, copy the refitted constants that test reports into
``repro.sim.runner.register_builtin_engines``.

Run with ``PYTHONPATH=src python -m pytest benchmarks --benchmark -k auto_cost``.
"""

import time

import pytest

from repro.api.config import RunConfig
from repro.functions.catalog import add_spec
from repro.sim.runner import run_many

TRIALS = (4, 512)
# (engine, input) per class: the exact class at a population the drain
# workload's large cells share, the approximate class past the tau floor.
CELLS = {
    "python": (5_000, 5_000),
    "vectorized": (5_000, 5_000),
    "tau": (50_000, 50_000),
    "tau-vec": (50_000, 50_000),
}
RUNS = 5


@pytest.mark.parametrize("engine", sorted(CELLS))
def test_auto_cost_records(bench_record, engine):
    """Best-of-five ``run_many`` wall time per (engine, trials) point."""
    x = CELLS[engine]
    crn = add_spec().known_crn
    crn.compiled()  # compile outside the timed region
    run_many(crn, x, config=RunConfig(trials=2, seed=1, engine=engine))  # warm-up
    for trials in TRIALS:
        config = RunConfig(trials=trials, seed=1, engine=engine, max_steps=10**7)
        best = float("inf")
        for _ in range(RUNS):
            start = time.perf_counter()
            report = run_many(crn, x, config=config)
            best = min(best, time.perf_counter() - start)
        # every trial drains completely, so the event count is exact
        assert report.outputs == [sum(x)] * trials
        assert report.steps == [sum(x)] * trials
        bench_record(
            f"auto-cost/{engine}/trials{trials}",
            sum(x),
            best,
            sum(report.steps),
            trials=trials,
        )
        print(f"\n[auto-cost] {engine} trials={trials}: {best * 1e3:.1f} ms")
