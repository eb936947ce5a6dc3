"""repro.lab in five acts: declare, run in parallel, cache, resume, aggregate.

Run from the repository root::

    PYTHONPATH=src python examples/campaign_demo.py

Everything here is also reachable from a shell — the equivalent CLI line is
printed before each act.
"""

import shutil
import tempfile
import os

from repro import RunConfig, Workbench
from repro.lab import (
    Campaign,
    SweepGrid,
    format_report,
    run_campaign,
    resume_campaign,
)

scratch = tempfile.mkdtemp(prefix="repro-campaign-demo-")
cache_dir = os.path.join(scratch, "cache")
out_dir = os.path.join(scratch, "minimum-sweep")

# -- 1. Declare -------------------------------------------------------------
# python -m repro run --spec minimum --spec add --grid 0:8 --seed 7 ...
campaign = Campaign(
    name="minimum-and-add",
    specs=["minimum", "add"],                      # catalog names; FunctionSpec works too
    inputs=SweepGrid.parse("0:8", dimension=2),    # 64 inputs, shared by both specs
    engines=("auto",),                             # registry cost rule picks per cell
    configs=(RunConfig(trials=4),),
    seed=7,                                        # master seed -> derived per-cell seeds
)
cells = campaign.expand()
print(f"1. declared {campaign.name!r}: {len(cells)} cells, e.g. {cells[0]}")

# -- 2. Run on a worker pool ------------------------------------------------
# ... --workers 4 --out runs/minimum-and-add
run = run_campaign(campaign, out_dir, workers=4, cache_dir=cache_dir)
print(f"2. executed {run.executed} cells on 4 workers -> {run.out_dir}")

# -- 3. Re-run: the content-addressed cache makes it free -------------------
rerun = run_campaign(campaign, os.path.join(scratch, "again"), workers=4, cache_dir=cache_dir)
print(f"3. re-run: {rerun.from_cache}/{rerun.total_cells} cells from cache, "
      f"{rerun.executed} simulated")

# -- 4. Interrupt and resume ------------------------------------------------
# kill a run mid-flight, then: python -m repro resume runs/minimum-and-add
store = os.path.join(out_dir, "results.jsonl")
with open(store) as handle:
    rows = handle.readlines()
with open(store, "w") as handle:
    handle.writelines(rows[: len(rows) // 2])      # simulate the kill
resumed = resume_campaign(out_dir, workers=4, cache_dir=None)
print(f"4. resumed: {resumed.already_done} rows survived the interrupt, "
      f"{resumed.executed} finished now")

# -- 5. Aggregate -----------------------------------------------------------
# python -m repro report runs/minimum-and-add
print("5. the report:")
print(format_report(resumed.summary))

# The same lifecycle hangs off the workbench facade:
wb = Workbench(RunConfig(trials=4, seed=7))
wb_run = wb.campaign(
    "facade-demo", ["minimum"], SweepGrid.parse("0:4", dimension=2),
    out_dir=os.path.join(scratch, "facade"), cache_dir=cache_dir,
)
print(f"\nWorkbench.campaign: {wb_run.summary.total_cells} cells, "
      f"correct rate {wb_run.summary.correct_rate:.0%}")

shutil.rmtree(scratch)
