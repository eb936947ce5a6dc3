"""Observability overhead gate: disabled tracing/stats must be (nearly) free.

The scalar kernel's steppers keep :class:`~repro.obs.stats.RunStats`
bookkeeping (a local ``propensity_ops`` tally folded in once per ``advance``
burst, one increment at the rare ``max_time`` draw site) and the core makes
a once-per-run tracer check.  The contract is that with tracing *disabled* —
the default — the kernel pays at most ``MAX_OVERHEAD`` relative to the same
stepper with the counter updates stripped.

The baseline is a subclass of the shipped ``_GillespieStepper`` whose
``start``/``advance`` bodies are the shipped ones minus the counter updates,
bound through the same :class:`SimulatorCore` run loop — so the two timings
differ *only* by the instrumentation, not by call structure.  (The O(1)
per-run additions — one ``perf_counter`` pair, one ``RunStats`` allocation,
one ``tracer.enabled`` check — amortize to nothing over the thousands of
events each run fires and are shared by both sides here.)  Keep the
baseline's ``advance`` in step with the shipped one: a stale copy measures
the wrong loop.

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

import math
import random
import time

from repro.functions.catalog import minimum_spec
from repro.obs.trace import get_tracer
from repro.sim.kernel import (
    _NO_WINDOW,
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
    """The shipped stepper with the RunStats counter updates stripped."""

    __slots__ = ()

    def start(self, counts):
        self.props = [
            self._propensity(r, counts) for r in range(self.compiled.n_reactions)
        ]
        self.time_now = 0.0
        self._reset_run(counts)

    def advance(self, counts, budget, max_time, window):
        compiled = self.compiled
        props = self.props
        n_props = len(props)
        rate_list = compiled.rate_list
        reactant_terms = compiled.reactant_terms
        net_terms = compiled.net_terms
        dependency_graph = compiled.dependency_graph
        output_index = compiled.output_index
        expovariate = self.rng.expovariate
        uniform = self.rng.random
        comb = math.comb
        limit = window or _NO_WINDOW
        time_now = self.time_now
        max_output = self.max_output
        last_output = self.last_output
        unchanged = self.unchanged_for
        fired = 0
        while fired < budget and time_now < max_time:
            total = sum(props)
            if total <= 0.0:
                self.silent = True
                break
            time_now += expovariate(total)
            if time_now > max_time:
                time_now = max_time
                break
            choice = uniform() * total
            cumulative = 0.0
            for j, a in enumerate(props):
                cumulative += a
                if choice <= cumulative:
                    if a <= 0.0:
                        raise ValueError(
                            f"reaction {compiled.crn.reactions[j]} is not "
                            f"applicable (zero propensity)"
                        )
                    break
            else:
                j = next(r for r in range(n_props - 1, -1, -1) if props[r] > 0.0)
            for s, delta in net_terms[j]:
                counts[s] += delta
            for r in dependency_graph[j]:
                p = rate_list[r]
                for s, k in reactant_terms[r]:
                    n = counts[s]
                    if n < k:
                        p = 0.0
                        break
                    p *= n if k == 1 else comb(n, k)
                props[r] = p
            fired += 1
            current = counts[output_index]
            if current == last_output:
                unchanged += 1
            else:
                unchanged = 0
                last_output = current
                if current > max_output:
                    max_output = current
            if unchanged >= limit:
                self.converged = True
                break
        self.time_now = time_now
        self.max_output = max_output
        self.last_output = last_output
        self.unchanged_for = unchanged
        self.selections += fired
        return fired


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
