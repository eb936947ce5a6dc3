"""Observability overhead gate: disabled tracing/stats must be (nearly) free.

PR 8 added :class:`~repro.obs.stats.RunStats` bookkeeping to the scalar
kernel's steppers (plain-int increments at the RNG draw sites, one extra add
per ``start``/``select``/``fired``) and a once-per-run tracer check.  The
contract is that with tracing *disabled* — the default — the kernel pays at
most ``MAX_OVERHEAD`` relative to the same stepper with the per-event
instrumentation stripped.

The baseline is a subclass of the shipped ``_GillespieStepper`` whose
``start``/``select`` bodies are byte-for-byte the shipped ones minus the
counter increments, bound through the same :class:`SimulatorCore` run loop —
so the two timings differ *only* by the instrumentation, not by call
structure.  (The O(1) per-run additions — one ``perf_counter`` pair, one
``RunStats`` allocation, one ``tracer.enabled`` check — amortize to nothing
over the thousands of events each run fires and are shared by both sides
here.)

Timing discipline: best-of-``REPEATS`` samples per side, alternating sides
sample by sample, and up to ``ATTEMPTS`` rounds before declaring a regression
— min-of-N is robust to scheduler noise, the retries keep a single noisy
round from failing CI.  One run fires only ~1.5 ms of events, so each sample
repeats the run until it has timed at least ``MIN_SAMPLE_S`` and reports the
mean per run: a lone run is too short for a 2% gate to resolve anything but
timer and scheduler noise.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py
--benchmark``; the ``obs/*`` records land in ``BENCH_results.json`` and the
CI bench-compare gate diffs them with ``--filter obs``.
"""

import random
import time

from repro.functions.catalog import minimum_spec
from repro.obs.trace import get_tracer
from repro.sim.kernel import (
    _SILENT,
    _TIMED_OUT,
    GillespiePolicy,
    SimulatorCore,
    _GillespieStepper,
)

POPULATION = 1_000
REPEATS = 5
ATTEMPTS = 5
MAX_OVERHEAD = 0.02
MIN_SAMPLE_S = 0.1


class _UninstrumentedGillespieStepper(_GillespieStepper):
    """The shipped stepper with the PR 8 counter increments stripped."""

    __slots__ = ()

    def start(self, counts):
        self.props = [
            self._propensity(r, counts) for r in range(self.compiled.n_reactions)
        ]

    def select(self, time_now, max_time):
        props = self.props
        self.propensity_ops += len(props)
        total = sum(props)
        if total <= 0.0:
            return _SILENT, time_now
        rng = self.rng
        time_now += rng.expovariate(total)
        if time_now > max_time:
            return _TIMED_OUT, max_time
        choice = rng.random() * total
        cumulative = 0.0
        for j, a in enumerate(props):
            cumulative += a
            if choice <= cumulative:
                if a <= 0.0:
                    raise ValueError(
                        f"reaction {self.compiled.crn.reactions[j]} is not "
                        f"applicable (zero propensity)"
                    )
                return j, time_now
        for j in range(len(props) - 1, -1, -1):
            if props[j] > 0.0:
                return j, time_now
        raise AssertionError("positive total propensity but no positive term")


class _UninstrumentedGillespiePolicy(GillespiePolicy):
    def bind(self, compiled, rng):
        return _UninstrumentedGillespieStepper(compiled, rng)


def _sample_seconds(crn, policy_cls):
    """Mean wall time per seeded run under ``policy_cls`` over one sample.

    The sample repeats the run until the runs add up to ``MIN_SAMPLE_S``;
    only ``core.run`` is inside the timed region.
    """
    initial = crn.initial_configuration((POPULATION, POPULATION))
    elapsed = 0.0
    runs = 0
    while elapsed < MIN_SAMPLE_S:
        core = SimulatorCore(crn, policy_cls(), rng=random.Random(7))
        t0 = time.perf_counter()
        result = core.run(initial, max_steps=10_000_000)
        elapsed += time.perf_counter() - t0
        runs += 1
    return elapsed / runs, result.steps


def test_disabled_observability_overhead_is_bounded(bench_record):
    assert not get_tracer().enabled, "the gate measures the *disabled* path"
    crn = minimum_spec().known_crn

    ratio = float("inf")
    for _attempt in range(ATTEMPTS):
        # Alternate sides sample by sample so drift hits both equally, and
        # keep each side's best of REPEATS samples.
        baseline_s = shipped_s = float("inf")
        for _ in range(REPEATS):
            sample_s, baseline_steps = _sample_seconds(
                crn, _UninstrumentedGillespiePolicy
            )
            baseline_s = min(baseline_s, sample_s)
            sample_s, shipped_steps = _sample_seconds(crn, GillespiePolicy)
            shipped_s = min(shipped_s, sample_s)
        assert shipped_steps == baseline_steps  # same seed, same stream
        ratio = shipped_s / baseline_s
        if ratio <= 1.0 + MAX_OVERHEAD:
            break

    bench_record(
        f"obs/kernel-disabled/pop{2 * POPULATION}",
        2 * POPULATION,
        shipped_s,
        shipped_steps,
        overhead_ratio=round(ratio, 4),
    )
    bench_record(
        f"obs/kernel-uninstrumented/pop{2 * POPULATION}",
        2 * POPULATION,
        baseline_s,
        baseline_steps,
    )
    assert ratio <= 1.0 + MAX_OVERHEAD, (
        f"disabled-observability overhead {ratio - 1.0:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%} (shipped {shipped_s:.4f}s vs baseline "
        f"{baseline_s:.4f}s over {shipped_steps} events)"
    )


def test_run_stats_survive_the_overhead_configuration(bench_record):
    """The gated configuration still reports full RunStats (no silent stub)."""
    crn = minimum_spec().known_crn
    core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(7))
    result = core.run(
        crn.initial_configuration((POPULATION, POPULATION)), max_steps=10_000_000
    )
    stats = result.stats
    assert stats is not None
    assert stats.events == result.steps == stats.selections
    assert stats.rng_draws == 2 * stats.events
    bench_record(
        f"obs/runstats/pop{2 * POPULATION}",
        2 * POPULATION,
        stats.wall_s,
        stats.events,
        propensity_ops=stats.propensity_ops,
        rng_draws=stats.rng_draws,
    )
