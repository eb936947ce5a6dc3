#!/usr/bin/env python3
"""Demo of the vectorized batch simulation engine (repro.sim.engine).

Compiles the Fig. 1 ``min`` and ``max`` CRNs into dense stoichiometry form,
races the scalar Gillespie loop against the batch engine at population 10^4,
and gathers batched repeated-run convergence evidence through the
``engine="vectorized"`` selector.

Run with::

    PYTHONPATH=src python examples/batch_engine_demo.py
"""

import random
import time

from repro.api import RunConfig
from repro.functions.catalog import maximum_spec, minimum_spec
from repro.sim import (
    BatchFairEngine,
    BatchGillespieEngine,
    GillespiePolicy,
    SimulatorCore,
    run_many,
)
from repro.verify import verify_stable_computation


def main() -> None:
    population = 10_000
    batch = 256
    minimum = minimum_spec().known_crn
    maximum = maximum_spec().known_crn

    print("=== Dense compilation ===")
    for crn in (minimum, maximum):
        compiled = crn.compiled()
        print(f"{compiled!r}: species order = {[sp.name for sp in compiled.species]}")
        print(f"  net stoichiometry:\n{compiled.net}")
    print()

    print(f"=== Scalar vs. vectorized Gillespie, min on ({population}, {population}) ===")
    start = time.perf_counter()
    scalar = SimulatorCore(minimum, GillespiePolicy(), rng=random.Random(1)).run_on_input(
        (population, population)
    )
    scalar_rate = scalar.steps / (time.perf_counter() - start)
    print(f"scalar   : 1 trajectory,   {scalar.steps:>9,} events, {scalar_rate:>12,.0f} ev/s")

    engine = BatchGillespieEngine(minimum.compiled(), seed=1)
    start = time.perf_counter()
    result = engine.run_on_input((population, population), batch=batch)
    batch_rate = result.total_steps() / (time.perf_counter() - start)
    print(
        f"batch    : {batch} trajectories, {result.total_steps():>9,} events, "
        f"{batch_rate:>12,.0f} ev/s  ({batch_rate / scalar_rate:.1f}x)"
    )
    assert (result.output_counts() == population).all()
    print(f"all {batch} trajectories settled on the stable output {population}")
    print()

    print("=== Rate-independent batch runs: max on (40, 70), fair engine ===")
    fair = BatchFairEngine(maximum.compiled(), seed=2)
    result = fair.run_on_input((40, 70), batch=batch)
    outputs = sorted(set(int(v) for v in result.output_counts()))
    peak = int(result.max_output_seen.max())
    print(f"outputs across {batch} runs: {outputs} (peak transient output {peak})")
    print()

    print("=== Batched convergence evidence through run_many(config=RunConfig(...)) ===")
    config = RunConfig(trials=100, seed=3, engine="vectorized")
    report = run_many(maximum, (25, 60), config=config)
    print(
        f"max(25, 60): unanimous={report.output_unanimous}, mode={report.output_mode}, "
        f"mean steps={report.mean_steps:.1f}, max overshoot={report.max_overshoot}"
    )
    print()

    print("=== Randomized verification at scale (same config, fewer trials) ===")
    report = verify_stable_computation(
        minimum,
        lambda x: min(x),
        inputs=[(2_000, 3_000), (5_000, 1_000)],
        method="simulation",
        function_name="min",
        config=config.replace(trials=32),
    )
    print(report.describe())


if __name__ == "__main__":
    main()
