"""Simulator throughput benchmarks: scalar loops vs. the vectorized batch engine.

Not a paper figure, but the substrate ablation DESIGN.md calls out: reaction
events per second for the scalar Gillespie/fair schedulers and the numpy batch
engines head-to-head across population sizes up to 10^5, plus the cost of
exhaustive reachability-based verification versus randomized simulation.

Run with ``PYTHONPATH=src python -m pytest benchmarks --benchmark`` (the suite
is skipped without the flag).
"""

import random
import time

import pytest

from repro.api.config import RunConfig
from repro.core.characterization import build_crn_for
from repro.crn.reachability import check_stable_computation_at
from repro.functions.catalog import minimum_spec
from repro.lab.campaign import resolve_spec
from repro.sim._reference import ReferenceGillespieSimulator
from repro.sim.engine import (
    BatchFairEngine,
    BatchGillespieEngine,
    BatchRunResult,
    BatchTauLeapEngine,
)
from repro.sim.kernel import (
    FairPolicy,
    GillespiePolicy,
    SimulatorCore,
    TauLeapPolicy,
)
from repro.sim.registry import get_engine
from repro.verify.stable import verify_stable_computation

from conftest import events_over


SCALAR_POPULATIONS = [10, 100, 1000, 10_000]
BATCH_POPULATIONS = [1000, 10_000, 100_000]
BATCH = 64
#: The ``perfbench`` campaign's cells: four specs on a 10x10 grid of even inputs.
PAPER_SPECS = ("minimum", "weighted_floor", "fig7", "quilt_2d_fig3b")
PAPER_AXIS = range(0, 20, 2)


def best_of(runs, run_once):
    """Best wall time over ``runs`` calls of ``run_once``, with the last result."""
    best = float("inf")
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = run_once()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.parametrize("population", SCALAR_POPULATIONS)
def test_gillespie_throughput(bench_record, population):
    """Events/sec of the scalar Gillespie kernel on ``minimum``.

    One run lasts 50 µs to 20 ms, so each record is timed over consecutive
    seeds until 0.1 s has passed (``runs`` records how many).
    """
    crn = minimum_spec().known_crn

    def run(seed):
        core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(seed))
        return core.run_on_input((population, population))

    events, seconds, runs, result = events_over(0.1, run, lambda result: result.steps)
    assert result.silent
    assert crn.output_count(result.final_configuration) == population
    bench_record(f"scalar/gillespie/pop{2 * population}", 2 * population, seconds, events, runs=runs)


@pytest.mark.parametrize("population", SCALAR_POPULATIONS)
def test_fair_scheduler_throughput(bench_record, population):
    """Events/sec of the scalar fair kernel, timed like ``test_gillespie_throughput``."""
    crn = minimum_spec().known_crn

    def run(seed):
        core = SimulatorCore(crn, FairPolicy(), rng=random.Random(seed))
        return core.run_on_input((population, population))

    events, seconds, runs, result = events_over(0.1, run, lambda result: result.steps)
    assert result.silent
    assert crn.output_count(result.final_configuration) == population
    bench_record(f"scalar/fair/pop{2 * population}", 2 * population, seconds, events, runs=runs)


def test_fair_scheduler_paper_cells(bench_record):
    """Steps/sec of the fair kernel on paper-sized cells, via the ``python`` engine.

    The ``scalar/fair/pop*`` records run ``minimum`` at populations where an
    applicability flag rarely flips.  Campaign cells are the other regime:
    the ``perfbench`` campaign's 400 cells (inputs below 20, trials 4), where
    about one flag flips per step and per-step overhead dominates.  One
    sample runs the whole grid, several hundred milliseconds.
    """
    specs = [resolve_spec(name) for name in PAPER_SPECS]
    crns = [build_crn_for(spec, name=spec.name) for spec in specs]
    for crn in crns:
        crn.compiled()  # compile outside the timed region, as a campaign does
    cells = [
        (spec, crn, (a, b))
        for spec, crn in zip(specs, crns)
        for a in PAPER_AXIS
        for b in PAPER_AXIS
    ]
    config = RunConfig(trials=4, seed=1)
    engine = get_engine("python")

    def run_grid():
        return [engine.run_many(crn, x, config) for _, crn, x in cells]

    run_grid()  # warm-up
    wall, reports = best_of(3, run_grid)
    for (spec, _, x), report in zip(cells, reports):
        assert report.all_silent_or_converged
        assert report.outputs == [spec(x)] * config.trials, (spec.name, x)
    steps = sum(sum(report.steps) for report in reports)
    bench_record(
        "scalar/fair/paper-cells",
        max(sum(x) for _, _, x in cells),
        wall,
        steps,
        cells=len(reports),
        trials=config.trials,
    )
    print(f"\n[paper-cells] {len(reports)} cells, {steps:,} steps -> {steps / wall:,.0f} steps/s")


@pytest.mark.parametrize("population", BATCH_POPULATIONS)
def test_batch_gillespie_throughput(bench_record, population):
    """Head-to-head counterpart of ``test_gillespie_throughput``: 64 rows at once.

    Per-event cost is what to compare (each call fires ``BATCH`` x population
    reactions, the scalar benchmark fires population).  Timed over
    consecutive seeds until 0.1 s has passed, like the scalar records.
    """
    compiled = minimum_spec().known_crn.compiled()

    def run(seed):
        engine = BatchGillespieEngine(compiled, seed=seed)
        return engine.run_on_input((population, population), batch=BATCH)

    events, seconds, runs, result = events_over(0.1, run, BatchRunResult.total_steps)
    assert result.silent.all()
    assert (result.output_counts() == population).all()
    bench_record(
        f"batch/gillespie/pop{2 * population}",
        2 * population,
        seconds,
        events,
        batch=BATCH,
        runs=runs,
    )


@pytest.mark.parametrize("population", BATCH_POPULATIONS)
def test_batch_fair_throughput(bench_record, population):
    """Head-to-head counterpart of ``test_fair_scheduler_throughput``."""
    compiled = minimum_spec().known_crn.compiled()

    def run(seed):
        engine = BatchFairEngine(compiled, seed=seed)
        return engine.run_on_input((population, population), batch=BATCH)

    events, seconds, runs, result = events_over(0.1, run, BatchRunResult.total_steps)
    assert result.silent.all()
    assert (result.output_counts() == population).all()
    bench_record(
        f"batch/fair/pop{2 * population}",
        2 * population,
        seconds,
        events,
        batch=BATCH,
        runs=runs,
    )


def test_vectorized_speedup_at_population_1e4(bench_record):
    """Acceptance gate: >= 10x event throughput over the dict-backed scalar
    loop at 10^4 (the baseline this gate was originally calibrated against,
    now preserved verbatim in ``repro.sim._reference`` — the production
    scalar simulator is the much faster kernel, benchmarked separately in
    ``test_scalar_kernel_speedup_at_population_1e4``).

    Both sides get a warm-up and the best of three timed samples so one GC
    pause or CPU-contention spike cannot flip the gate either way.
    """
    population = 10_000
    crn = minimum_spec().known_crn
    compiled = crn.compiled()

    ReferenceGillespieSimulator(crn, rng=random.Random(1)).run_on_input(
        (population // 10, population // 10)
    )  # warm-up
    scalar_time, scalar_result = best_of(
        3,
        lambda: ReferenceGillespieSimulator(crn, rng=random.Random(1)).run_on_input(
            (population, population)
        ),
    )
    scalar_events_per_sec = scalar_result.steps / scalar_time

    engine = BatchGillespieEngine(compiled, seed=1)
    engine.run_on_input((population // 10, population // 10), batch=8)  # warm-up
    batch_time, batch_result = best_of(
        3, lambda: engine.run_on_input((population, population), batch=256)
    )
    batch_events_per_sec = batch_result.total_steps() / batch_time

    assert scalar_result.silent and batch_result.silent.all()
    bench_record(
        "speedup-gate/scalar-gillespie/pop20000",
        2 * population,
        scalar_time,
        scalar_result.steps,
    )
    bench_record(
        "speedup-gate/batch-gillespie/pop20000",
        2 * population,
        batch_time,
        batch_result.total_steps(),
        batch=256,
    )
    speedup = batch_events_per_sec / scalar_events_per_sec
    print(
        f"\n[speedup] scalar {scalar_events_per_sec:,.0f} ev/s, "
        f"vectorized {batch_events_per_sec:,.0f} ev/s -> {speedup:.1f}x"
    )
    assert speedup >= 10.0


def test_scalar_kernel_speedup_at_population_1e4(bench_record):
    """Acceptance gate: the kernel-backed scalar Gillespie simulator is >= 3x
    faster than the frozen dict-backed loop at population 10^4.

    This is the before/after record for the scalar-kernel rebase: the
    "before" side runs the pre-kernel implementation preserved verbatim in
    ``repro.sim._reference``, the "after" side the kernel, on identical
    seeds (the two produce bit-identical trajectories, so the comparison is
    event-for-event).  Both get a warm-up; then each side is timed over
    consecutive seeds until 0.1 s has passed (one kernel run lasts ~20 ms),
    and the gate compares summed events per second.
    """
    population = 10_000
    crn = minimum_spec().known_crn
    crn.compiled()  # compile outside the timed region, as a caller would

    def run_legacy(seed):
        return ReferenceGillespieSimulator(crn, rng=random.Random(seed)).run_on_input(
            (population, population)
        )

    def run_kernel(seed):
        core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(seed))
        return core.run_on_input((population, population))

    ReferenceGillespieSimulator(crn, rng=random.Random(1)).run_on_input(
        (population // 10, population // 10)
    )  # warm-up
    legacy_events, legacy_time, legacy_runs, legacy_result = events_over(
        0.1, run_legacy, lambda result: result.steps
    )
    SimulatorCore(crn, GillespiePolicy(), rng=random.Random(1)).run_on_input(
        (population // 10, population // 10)
    )  # warm-up
    kernel_events, kernel_time, kernel_runs, kernel_result = events_over(
        0.1, run_kernel, lambda result: result.steps
    )

    assert legacy_result.silent and kernel_result.silent
    assert kernel_result.final_configuration == legacy_result.final_configuration
    assert kernel_result.steps == legacy_result.steps
    bench_record(
        "scalar-kernel/legacy-dict-loop/gillespie/pop20000",
        2 * population,
        legacy_time,
        legacy_events,
        runs=legacy_runs,
    )
    bench_record(
        "scalar-kernel/kernel/gillespie/pop20000",
        2 * population,
        kernel_time,
        kernel_events,
        runs=kernel_runs,
    )
    legacy_rate = legacy_events / legacy_time
    kernel_rate = kernel_events / kernel_time
    speedup = kernel_rate / legacy_rate
    print(
        f"\n[scalar-kernel] legacy {legacy_rate:,.0f} ev/s, "
        f"kernel {kernel_rate:,.0f} ev/s -> {speedup:.1f}x"
    )
    assert speedup >= 3.0


def test_tau_leap_step_collapse_at_population_1e5(bench_record):
    """Acceptance gate: tau-leaping needs >= 5x fewer scheduler iterations
    than exact SSA at population 10^5, with the exact answer intact.

    This is the before/after record for the tau-leaping PR: the "before"
    side is the exact kernel Gillespie loop (one select per event — the
    regime where exact SSA at 10^5+ stops being practical), the "after" side
    fires Poisson batches under the default epsilon=0.03 error knob.  The
    recorded ``steps`` are *scheduler iterations* (events for the exact side,
    leaps/bursts for tau), so steps/sec measures how fast each algorithm
    advances through its own schedule; both sides fire the same 10^5 reaction
    events and end in the same silent configuration.
    """
    population = 100_000
    crn = minimum_spec().known_crn
    crn.compiled()  # compile outside the timed region

    def run_exact():
        core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(1))
        return core.run_on_input((population, population), max_steps=10_000_000)

    def run_tau():
        core = SimulatorCore(crn, TauLeapPolicy(), rng=random.Random(1))
        return core.run_on_input((population, population), max_steps=10_000_000)

    SimulatorCore(crn, GillespiePolicy(), rng=random.Random(1)).run_on_input(
        (population // 10, population // 10)
    )  # warm-up
    exact_time, exact_result = best_of(3, run_exact)
    SimulatorCore(crn, TauLeapPolicy(), rng=random.Random(1)).run_on_input(
        (population // 10, population // 10)
    )  # warm-up
    tau_time, tau_result = best_of(3, run_tau)

    assert exact_result.silent and tau_result.silent
    assert crn.output_count(exact_result.final_configuration) == population
    assert crn.output_count(tau_result.final_configuration) == population
    assert exact_result.steps == tau_result.steps == population

    bench_record(
        "tau-leap/exact-gillespie/pop200000",
        2 * population,
        exact_time,
        exact_result.selections,
    )
    bench_record(
        "tau-leap/tau/pop200000",
        2 * population,
        tau_time,
        tau_result.selections,
        events=tau_result.steps,
        epsilon=0.03,
    )
    collapse = exact_result.selections / tau_result.selections
    print(
        f"\n[tau-leap] exact {exact_result.selections:,} selections "
        f"({exact_time:.3f}s), tau {tau_result.selections:,} selections "
        f"({tau_time:.3f}s) -> {collapse:.0f}x step-count collapse, "
        f"{exact_time / tau_time:.1f}x wall speedup"
    )
    assert collapse >= 5.0
    # The exact engine's seeded stream must be untouched by the tau machinery
    # (the bit-for-bit lock, restated at benchmark scale).
    replay = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(1)).run_on_input(
        (population, population), max_steps=10_000_000
    )
    assert replay.final_configuration == exact_result.final_configuration
    assert replay.steps == exact_result.steps


def test_batch_tau_throughput_compounds_scalar_tau(bench_record):
    """Acceptance gate: tau-vec sustains >= 10x the reaction-event throughput
    of scalar tau at population 10^5 with a batch of 512 trials.

    This is the before/after record for the batched tau-leaping PR, measured
    in the engine's recommended operating regime: large populations draining
    under leaps (a ``max_steps`` budget of half the population stops both
    sides before the shared ``n_critical`` rule degrades the tail to exact
    stepping — the leap phase is precisely what the batch engine
    accelerates, and its ``min_recommended_population`` floor tells callers
    to keep it there).  Unlike the ``tau-leap/*`` records (which store
    scheduler iterations as ``steps``), both ``batch-tau/*`` records store
    *reaction events* as ``steps`` so ``steps_per_sec`` is events/sec and
    the CI bench-compare leg gates the actual throughput; the seed-1 run's
    leap-round count rides along as ``selections``.  One scalar run lasts
    about a millisecond, so each side is timed over consecutive seeds until
    0.1 s has passed (``runs`` records how many), and the gate compares
    summed events per second rather than one timer-resolution-scale sample.
    """
    population = 100_000
    budget = population // 2
    batch = 512
    crn = minimum_spec().known_crn
    compiled = crn.compiled()  # compile outside the timed region

    def run_scalar(seed):
        core = SimulatorCore(crn, TauLeapPolicy(), rng=random.Random(seed))
        return core.run_on_input((population, population), max_steps=budget)

    def run_batch(seed):
        engine = BatchTauLeapEngine(compiled, seed=seed)
        return engine.run_on_input(
            (population, population), batch=batch, max_steps=budget
        )

    SimulatorCore(crn, TauLeapPolicy(), rng=random.Random(1)).run_on_input(
        (population // 10, population // 10)
    )  # warm-up
    scalar_events, scalar_time, scalar_runs, scalar_result = events_over(
        0.1, run_scalar, lambda result: result.steps
    )
    BatchTauLeapEngine(compiled, seed=1).run_on_input(
        (population // 10, population // 10), batch=batch
    )  # warm-up
    batch_events, batch_time, batch_runs, batch_result = events_over(
        0.1, run_batch, lambda result: int(result.steps.sum())
    )

    # Both sides stop on the step budget (overshooting by at most one leap)
    # with the population still deep in the leap regime.
    assert scalar_result.steps >= budget
    assert (batch_result.steps >= budget).all()
    assert (batch_result.counts >= 0).all()

    bench_record(
        f"batch-tau/scalar-tau/pop{2 * population}",
        2 * population,
        scalar_time,
        scalar_events,
        selections=scalar_result.selections,
        runs=scalar_runs,
        epsilon=0.03,
    )
    bench_record(
        f"batch-tau/tau-vec/pop{2 * population}",
        2 * population,
        batch_time,
        batch_events,
        selections=batch_result.stats.selections,
        batch=batch,
        runs=batch_runs,
        epsilon=0.03,
    )
    scalar_rate = scalar_events / scalar_time
    batch_rate = batch_events / batch_time
    speedup = batch_rate / scalar_rate
    print(
        f"\n[batch-tau] scalar tau {scalar_events:,} events over {scalar_runs} runs "
        f"({scalar_time:.3f}s, {scalar_rate:,.0f} ev/s), tau-vec x{batch} "
        f"{batch_events:,} events over {batch_runs} runs "
        f"({batch_time:.3f}s, {batch_rate:,.0f} ev/s) "
        f"-> {speedup:.1f}x event throughput"
    )
    assert speedup >= 10.0
    # The scalar tau engine's seeded stream must be untouched by the batched
    # machinery (the bit-for-bit lock, restated at benchmark scale).
    replay = SimulatorCore(
        crn, TauLeapPolicy(), rng=random.Random(1)
    ).run_on_input((population, population), max_steps=budget)
    assert replay.final_configuration == scalar_result.final_configuration
    assert replay.steps == scalar_result.steps
    assert replay.selections == scalar_result.selections


def test_exhaustive_vs_simulation_verification(benchmark):
    crn = minimum_spec().known_crn

    def run():
        exhaustive = check_stable_computation_at(crn, (6, 6), 6)
        simulated = verify_stable_computation(
            crn, lambda x: min(x), inputs=[(6, 6)], method="simulation", trials=3
        )
        return exhaustive, simulated

    exhaustive, simulated = benchmark.pedantic(run, rounds=1, iterations=1)
    assert exhaustive.holds and simulated.passed
    print(f"\n[ablation] exhaustive check explored {exhaustive.reachable_count} configurations; "
          "the randomized check ran 3 fair-scheduler trials")


def test_vectorized_verification_throughput(benchmark):
    """The randomized verification path through ``engine='vectorized'``."""
    crn = minimum_spec().known_crn

    def run():
        return verify_stable_computation(
            crn,
            lambda x: min(x),
            inputs=[(500, 500)],
            method="simulation",
            trials=16,
            engine="vectorized",
        )

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.passed
