"""High-level simulation runners and convergence reporting.

Every repeated-run entry point accepts either the legacy keyword cloud
(``trials`` / ``max_steps`` / ``quiescence_window`` / ``seed`` / ``engine``)
or a single :class:`repro.api.config.RunConfig`; the keywords are forwarded
into a ``RunConfig`` internally, so both spellings hit the same code path.

Engines are resolved through the pluggable registry of
:mod:`repro.sim.registry`.  The two built-ins are registered here:

* ``"python"`` (default) — the scalar simulators, now backed by the shared
  kernel (:mod:`repro.sim.kernel`): one trajectory at a time over the
  ``CompiledCRN`` IR with dependency-graph propensity updates.  Seeded runs
  reproduce the historical dict-backed behaviour bit for bit.
* ``"vectorized"`` — the numpy batch engines of :mod:`repro.sim.engine`, which
  advance all trials simultaneously and remain the best option for very large
  populations or trial counts.  Seeded runs are reproducible, but draw from a
  numpy random stream distinct from the python engine's (see DESIGN.md).
* ``"nrm"`` — exact SSA via the Gibson–Bruck next-reaction method
  (:class:`repro.sim.kernel.NextReactionPolicy`): per-reaction putative firing
  times in an indexed priority queue, so each step costs O(|deps| log R)
  instead of the direct method's O(R) propensity scan — the engine of choice
  for the dozens-of-reactions networks the general construction emits.
  Scheduling is *kinetic only* (``supports_fair=False``); results are
  statistically — not bit-for-bit — equivalent to the other exact engines.
* ``"tau"`` — approximate SSA via tau-leaping
  (:class:`repro.sim.kernel.TauLeapPolicy`): many reactions fire per
  scheduler iteration when propensities are quasi-constant, controlled by the
  ``epsilon`` error knob on :class:`~repro.api.config.RunConfig`.  Scheduling
  is *kinetic* (Gillespie rates, not the fair scheduler), and results are
  statistically — not bit-for-bit — equivalent to the exact engines
  (``tests/test_statistical_equivalence.py`` gates this).  Intended for
  populations around 10^4 and above; under its recommended floor it degrades
  gracefully to exact stepping.
* ``"tau-vec"`` — batched tau-leaping
  (:class:`repro.sim.engine.BatchTauLeapEngine`): the whole trial batch
  advances one Cao–Gillespie–Petzold leap per round through dense numpy
  kinetics, compounding the batch engines' vectorization with tau's
  scheduler-iteration collapse.  Same ``epsilon`` knob, same kinetic-only
  scheduling and statistical (KS-gated) equivalence contract as ``"tau"``,
  same exact-fallback rule per trial — but on the numpy random stream, an
  order of magnitude faster at populations of 10^5 and above.

Third-party backends plug in via
:func:`repro.sim.registry.register_engine` and become addressable as
``engine="<name>"`` everywhere without touching any dispatch code.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.config import RunConfig
from repro.crn.network import CRN
from repro.sim.fair import FairRunResult, FairScheduler
from repro.sim.gillespie import GillespieSimulator
from repro.sim.kernel import (
    NextReactionPolicy,
    SimulatorCore,
    TauLeapPolicy,
    default_quiescence_window,
)
from repro.sim.registry import check_engine, engine_names, get_engine, register_engine

__all__ = [
    "ConvergenceReport",
    "default_quiescence_window",  # re-exported; defined in repro.sim.kernel
    "run_to_convergence",
    "run_many",
    "estimate_expected_output",
    "sweep_inputs",
    "register_builtin_engines",
    "PythonEngine",
    "VectorizedEngine",
    "NextReactionEngine",
    "TauLeapEngine",
    "TauVecEngine",
]


def __getattr__(name: str):
    # Back-compat: the hard-coded ``ENGINES`` tuple is now a live view of the
    # registry, so engines registered at runtime show up too.
    if name == "ENGINES":
        return engine_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class ConvergenceReport:
    """Aggregate statistics over repeated runs of one CRN on one input."""

    input_value: Tuple[int, ...]
    outputs: List[int]
    max_outputs: List[int]
    steps: List[int]
    all_silent_or_converged: bool

    @property
    def output_mode(self) -> int:
        """The most frequent final output (ties broken by smallest value)."""
        if not self.outputs:
            raise ValueError(
                "ConvergenceReport aggregates zero runs; output_mode is undefined"
            )
        counts: Dict[int, int] = {}
        for value in self.outputs:
            counts[value] = counts.get(value, 0) + 1
        best = max(counts.values())
        return min(value for value, count in counts.items() if count == best)

    @property
    def output_unanimous(self) -> bool:
        """True if every run ended with the same output count."""
        return len(set(self.outputs)) == 1

    @property
    def mean_steps(self) -> float:
        """Mean number of reactions fired per run."""
        return statistics.fmean(self.steps) if self.steps else 0.0

    @property
    def max_overshoot(self) -> int:
        """The largest amount by which any run's peak output exceeded its final output.

        Zero when the report aggregates zero runs (no run overshot).
        """
        return max(
            (peak - final for peak, final in zip(self.max_outputs, self.outputs)),
            default=0,
        )


def run_to_convergence(
    crn: CRN,
    x: Sequence[int],
    max_steps: int = 1_000_000,
    quiescence_window: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> FairRunResult:
    """Run the fair scheduler once on input ``x`` until silence or quiescence.

    The quiescence window defaults to a value scaled with the input size so
    that catalytic CRNs (which never fall silent) still terminate.
    """
    if quiescence_window is None:
        quiescence_window = default_quiescence_window(x)
    scheduler = FairScheduler(crn, rng=rng)
    return scheduler.run_on_input(
        x, max_steps=max_steps, quiescence_window=quiescence_window
    )


# ---------------------------------------------------------------------------
# The built-in engines, registered through repro.sim.registry
# ---------------------------------------------------------------------------


def _aggregate_scalar_trials(crn: CRN, x: Sequence[int], config: RunConfig, run_one) -> ConvergenceReport:
    """Fold one scalar run per trial seed into a :class:`ConvergenceReport`.

    ``run_one(trial_seed)`` returns any result exposing
    ``final_configuration`` / ``max_output_seen`` / ``steps`` / ``silent`` /
    ``converged`` — the shared aggregation of the per-trajectory engines.
    """
    outputs: List[int] = []
    max_outputs: List[int] = []
    steps: List[int] = []
    all_done = True
    for trial_seed in config.trial_seeds():
        result = run_one(trial_seed)
        outputs.append(crn.output_count(result.final_configuration))
        max_outputs.append(result.max_output_seen)
        steps.append(result.steps)
        if not (result.silent or result.converged):
            all_done = False
    return ConvergenceReport(
        input_value=tuple(x),
        outputs=outputs,
        max_outputs=max_outputs,
        steps=steps,
        all_silent_or_converged=all_done,
    )


class PythonEngine:
    """The scalar reference engine: one trajectory at a time, ``random.Random``.

    Backed by the shared scalar kernel (:mod:`repro.sim.kernel`) through the
    :class:`~repro.sim.fair.FairScheduler` /
    :class:`~repro.sim.gillespie.GillespieSimulator` shims, so seeded runs
    stay bit-for-bit reproducible while populations of 10^4+ remain practical.
    """

    def run_many(self, crn: CRN, x: Sequence[int], config: RunConfig) -> ConvergenceReport:
        return _aggregate_scalar_trials(
            crn,
            x,
            config,
            lambda trial_seed: run_to_convergence(
                crn,
                x,
                max_steps=config.max_steps,
                quiescence_window=config.quiescence_window,
                rng=random.Random(trial_seed),
            ),
        )

    def estimate_expected_output(
        self, crn: CRN, x: Sequence[int], config: RunConfig
    ) -> float:
        total = 0.0
        for trial_seed in config.trial_seeds():
            simulator = GillespieSimulator(crn, rng=random.Random(trial_seed))
            result = simulator.run_on_input(x, max_steps=config.max_steps)
            total += crn.output_count(result.final_configuration)
        return total / config.trials


class VectorizedEngine:
    """The numpy batch engine (all trials advance simultaneously, one row each)."""

    def run_many(self, crn: CRN, x: Sequence[int], config: RunConfig) -> ConvergenceReport:
        from repro.sim.engine import BatchFairEngine

        quiescence_window = config.quiescence_window
        if quiescence_window is None:
            quiescence_window = default_quiescence_window(x)
        batch_engine = BatchFairEngine(crn.compiled(), seed=config.seed)
        result = batch_engine.run_on_input(
            x,
            batch=config.trials,
            max_steps=config.max_steps,
            quiescence_window=quiescence_window,
        )
        return ConvergenceReport(
            input_value=tuple(int(v) for v in x),
            outputs=[int(v) for v in result.output_counts()],
            max_outputs=[int(v) for v in result.max_output_seen],
            steps=[int(v) for v in result.steps],
            all_silent_or_converged=result.all_silent_or_converged(),
        )

    def estimate_expected_output(
        self, crn: CRN, x: Sequence[int], config: RunConfig
    ) -> float:
        from repro.sim.engine import BatchGillespieEngine

        batch_engine = BatchGillespieEngine(crn.compiled(), seed=config.seed)
        result = batch_engine.run_on_input(
            x, batch=config.trials, max_steps=config.max_steps
        )
        return float(result.output_counts().mean())


class NextReactionEngine:
    """Exact kinetic engine: Gibson–Bruck next-reaction method.

    One :class:`~repro.sim.kernel.SimulatorCore` trajectory per trial under
    :class:`~repro.sim.kernel.NextReactionPolicy`.  Samples the same CTMC as
    exact Gillespie, but each step repairs only the dependency-graph
    neighbours of the fired reaction (O(|deps| log R) against the direct
    method's O(R) scan).  Like ``"tau"``, ``run_many`` samples the *kinetic*
    process (``supports_fair=False``), and seeded runs are reproducible but
    on a differently-consumed stream than ``"python"`` — cross-engine
    agreement is gated by ``tests/test_statistical_equivalence.py``.
    """

    def run_many(self, crn: CRN, x: Sequence[int], config: RunConfig) -> ConvergenceReport:
        quiescence_window = config.quiescence_window
        if quiescence_window is None:
            quiescence_window = default_quiescence_window(x)
        policy = NextReactionPolicy()
        return _aggregate_scalar_trials(
            crn,
            x,
            config,
            lambda trial_seed: SimulatorCore(
                crn, policy, rng=random.Random(trial_seed)
            ).run_on_input(
                x,
                max_steps=config.max_steps,
                quiescence_window=quiescence_window,
            ),
        )

    def estimate_expected_output(
        self, crn: CRN, x: Sequence[int], config: RunConfig
    ) -> float:
        policy = NextReactionPolicy()
        total = 0.0
        for trial_seed in config.trial_seeds():
            core = SimulatorCore(crn, policy, rng=random.Random(trial_seed))
            result = core.run_on_input(x, max_steps=config.max_steps)
            total += crn.output_count(result.final_configuration)
        return total / config.trials


class TauLeapEngine:
    """Approximate kinetic engine: tau-leaping over the scalar kernel.

    One :class:`~repro.sim.kernel.SimulatorCore` trajectory per trial under
    :class:`~repro.sim.kernel.TauLeapPolicy`, with ``config.epsilon`` as the
    error knob.  Unlike the ``"python"`` / ``"vectorized"`` fair-scheduler
    paths, ``run_many`` here samples the *kinetic* process (quiescence is
    still detected through the shared window mechanism, at leap granularity);
    both entry points are statistically equivalent to exact Gillespie
    sampling, which the KS suite in ``tests/test_statistical_equivalence.py``
    enforces.
    """

    def run_many(self, crn: CRN, x: Sequence[int], config: RunConfig) -> ConvergenceReport:
        quiescence_window = config.quiescence_window
        if quiescence_window is None:
            quiescence_window = default_quiescence_window(x)
        policy = TauLeapPolicy(epsilon=config.epsilon)
        return _aggregate_scalar_trials(
            crn,
            x,
            config,
            lambda trial_seed: SimulatorCore(
                crn, policy, rng=random.Random(trial_seed)
            ).run_on_input(
                x,
                max_steps=config.max_steps,
                quiescence_window=quiescence_window,
            ),
        )

    def estimate_expected_output(
        self, crn: CRN, x: Sequence[int], config: RunConfig
    ) -> float:
        policy = TauLeapPolicy(epsilon=config.epsilon)
        total = 0.0
        for trial_seed in config.trial_seeds():
            core = SimulatorCore(crn, policy, rng=random.Random(trial_seed))
            result = core.run_on_input(x, max_steps=config.max_steps)
            total += crn.output_count(result.final_configuration)
        return total / config.trials


class TauVecEngine:
    """Approximate kinetic engine: batched tau-leaping over dense numpy rows.

    One :class:`~repro.sim.engine.BatchTauLeapEngine` run advances all trials
    simultaneously, one Cao–Gillespie–Petzold leap per round, with
    ``config.epsilon`` as the error knob — the same shared tau-selection
    math as the scalar ``"tau"`` engine (:mod:`repro.sim.tau`), so the two
    cannot disagree on the bound.  Like ``"tau"``, ``run_many`` samples the
    *kinetic* process with quiescence detected at leap granularity; like
    ``"vectorized"``, trials live on one numpy random stream seeded from
    ``config.seed``.  Statistical (KS-gated) equivalence to the exact
    engines is enforced by ``tests/test_statistical_equivalence.py``.
    """

    def run_many(self, crn: CRN, x: Sequence[int], config: RunConfig) -> ConvergenceReport:
        from repro.sim.engine import BatchTauLeapEngine

        quiescence_window = config.quiescence_window
        if quiescence_window is None:
            quiescence_window = default_quiescence_window(x)
        batch_engine = BatchTauLeapEngine(
            crn.compiled(), seed=config.seed, epsilon=config.epsilon
        )
        result = batch_engine.run_on_input(
            x,
            batch=config.trials,
            max_steps=config.max_steps,
            quiescence_window=quiescence_window,
        )
        return ConvergenceReport(
            input_value=tuple(int(v) for v in x),
            outputs=[int(v) for v in result.output_counts()],
            max_outputs=[int(v) for v in result.max_output_seen],
            steps=[int(v) for v in result.steps],
            all_silent_or_converged=result.all_silent_or_converged(),
        )

    def estimate_expected_output(
        self, crn: CRN, x: Sequence[int], config: RunConfig
    ) -> float:
        from repro.sim.engine import BatchTauLeapEngine

        batch_engine = BatchTauLeapEngine(
            crn.compiled(), seed=config.seed, epsilon=config.epsilon
        )
        result = batch_engine.run_on_input(
            x, batch=config.trials, max_steps=config.max_steps
        )
        return float(result.output_counts().mean())


def register_builtin_engines(names: Optional[Iterable[str]] = None) -> None:
    """(Re-)register the built-in engines (all of them, or just ``names``).

    Idempotent (``replace=True``), so module re-execution under
    ``importlib.reload`` / IPython autoreload is safe, and the registry can
    restore a built-in that a test unregistered without touching the others.

    The ``step_cost`` / ``trial_step_cost`` constants are the two-point fits
    of the ``auto-cost/*`` records in ``BENCH_results.json`` (measured on a
    2-vCPU Xeon VM; ``tests/test_registry.py`` refits and checks them).
    ``"nrm"`` is neither fair-capable nor approximate, so ``"auto"`` never
    considers it and it carries no cost constants.
    """
    names = (
        {"python", "vectorized", "nrm", "tau", "tau-vec"}
        if names is None
        else set(names)
    )
    if "python" in names:
        register_engine(
            "python",
            supports_gillespie=True,
            supports_fair=True,
            step_cost=2.33e-7,
            trial_step_cost=2.54e-6,
            description=(
                "Scalar kernel (shared CompiledCRN IR, sparse incremental "
                "propensities); historical seeded behaviour, bit for bit"
            ),
            replace=True,
        )(PythonEngine)
    if "vectorized" in names:
        register_engine(
            "vectorized",
            supports_gillespie=True,
            supports_fair=True,
            batch_capable=True,
            step_cost=7.45e-5,
            trial_step_cost=2.18e-7,
            description=(
                "numpy batch engines advancing all trials per step; "
                "reproducible but on a numpy random stream"
            ),
            replace=True,
        )(VectorizedEngine)
    if "nrm" in names:
        register_engine(
            "nrm",
            supports_gillespie=True,
            supports_fair=False,
            description=(
                "Gibson-Bruck next-reaction method (indexed priority queue of "
                "putative firing times, dependency-graph clock repair); exact, "
                "O(|deps| log R) per step, kinetic scheduling only"
            ),
            replace=True,
        )(NextReactionEngine)
    if "tau" in names:
        register_engine(
            "tau",
            supports_gillespie=True,
            supports_fair=False,
            min_recommended_population=10_000,
            approximate=True,
            trial_step_cost=3.98e-8,
            description=(
                "tau-leaping approximate SSA (Cao-Gillespie tau selection, "
                "Poisson firing batches, exact fallback); error knob "
                "RunConfig.epsilon, statistically equivalent to exact engines"
            ),
            replace=True,
        )(TauLeapEngine)
    if "tau-vec" in names:
        register_engine(
            "tau-vec",
            supports_gillespie=True,
            supports_fair=False,
            min_recommended_population=10_000,
            approximate=True,
            batch_capable=True,
            step_cost=6.17e-7,
            trial_step_cost=6.73e-9,
            description=(
                "batched tau-leaping: the whole trial batch advances one "
                "Cao-Gillespie leap per round (dense numpy kinetics, batched "
                "Poisson firings, per-trial exact fallback); error knob "
                "RunConfig.epsilon, statistically equivalent to exact engines"
            ),
            replace=True,
        )(TauVecEngine)


register_builtin_engines()


# ---------------------------------------------------------------------------
# Public entry points (legacy keyword signatures forwarded into RunConfig)
# ---------------------------------------------------------------------------


def run_many(
    crn: CRN,
    x: Sequence[int],
    trials: int = 10,
    max_steps: int = 1_000_000,
    quiescence_window: Optional[int] = None,
    seed: Optional[int] = None,
    engine: str = "python",
    config: Optional[RunConfig] = None,
) -> ConvergenceReport:
    """Run the fair scheduler several times on input ``x`` and aggregate results.

    Pass either the individual keywords or a ready-made ``config``; an
    explicit ``config`` takes precedence over the keywords.  The engine is
    resolved through :mod:`repro.sim.registry`, so any registered backend is
    addressable here.
    """
    if config is None:
        config = RunConfig(
            trials=trials,
            max_steps=max_steps,
            quiescence_window=quiescence_window,
            seed=seed,
            engine=engine,
        )
    return get_engine(config.engine).run_many(crn, x, config)


def estimate_expected_output(
    crn: CRN,
    x: Sequence[int],
    trials: int = 20,
    max_steps: int = 500_000,
    seed: Optional[int] = None,
    engine: str = "python",
    config: Optional[RunConfig] = None,
) -> float:
    """Monte-Carlo estimate of the expected final output under Gillespie kinetics."""
    if config is None:
        config = RunConfig(trials=trials, max_steps=max_steps, seed=seed, engine=engine)
    return get_engine(config.engine).estimate_expected_output(crn, x, config)


def sweep_inputs(
    crn: CRN,
    inputs: Iterable[Sequence[int]],
    trials: int = 5,
    seed: Optional[int] = None,
    config: Optional[RunConfig] = None,
    **kwargs,
) -> List[ConvergenceReport]:
    """Run :func:`run_many` over a collection of inputs.

    Each input gets an independent derived seed
    (:meth:`~repro.api.config.RunConfig.per_input`), so no two inputs of one
    sweep replay the same random stream while the whole sweep stays
    reproducible from the master ``seed``.
    """
    if config is None:
        config = RunConfig(trials=trials, seed=seed, **kwargs)
    inputs = list(inputs)
    return [
        run_many(crn, x, config=derived)
        for x, derived in zip(inputs, config.per_input(len(inputs)))
    ]
