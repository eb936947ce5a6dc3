"""High-level simulation runners and convergence reporting.

Every repeated-run entry point accepts either the legacy keyword cloud
(``trials`` / ``max_steps`` / ``quiescence_window`` / ``seed`` / ``engine``)
or a single :class:`repro.api.config.RunConfig`; the keywords are forwarded
into a ``RunConfig`` internally, so both spellings hit the same code path.

Engines are resolved through the pluggable registry of
:mod:`repro.sim.registry`.  The built-ins are registry data:
:data:`BUILTIN_ENGINES` maps each name to an instance of one of two generic
adapters plus its capability metadata.

* :class:`ScalarEngine` runs one :class:`~repro.sim.kernel.SimulatorCore`
  trajectory per trial seed under a :class:`~repro.sim.kernel.StepPolicy`.
* :class:`BatchEngine` advances all trials at once through one of the numpy
  batch engines of :mod:`repro.sim.engine`, seeded from ``config.seed``.

Each adapter holds two factories: the sampler ``run_many`` uses and the
kinetic one ``estimate_expected_output`` (and
:func:`repro.verify.statistical.sample_kinetic_distribution`) uses.  The
four built-ins:

* ``"python"`` (default) — scalar, :class:`~repro.sim.kernel.FairPolicy` /
  :class:`~repro.sim.kernel.GillespiePolicy`: the scalar kernel over the
  ``CompiledCRN`` IR with dependency-graph propensity updates.  Seeded runs
  reproduce the historical dict-backed simulators bit for bit.
* ``"vectorized"`` — batch, :class:`~repro.sim.engine.BatchFairEngine` /
  :class:`~repro.sim.engine.BatchGillespieEngine`.  Seeded runs are
  reproducible, but draw from a numpy random stream distinct from the
  python engine's (see DESIGN.md).
* ``"tau"`` — scalar, :class:`~repro.sim.kernel.TauLeapPolicy` for both:
  approximate SSA via tau-leaping, many reactions per scheduler iteration,
  with ``RunConfig.epsilon`` as the error knob.  Scheduling is *kinetic*
  (``supports_fair=False``), and results are statistically — not bit for
  bit — equivalent to the exact engines
  (``tests/test_statistical_equivalence.py`` gates this).  Under its
  recommended population floor it degrades gracefully to exact stepping.
* ``"tau-vec"`` — batch, :class:`~repro.sim.engine.BatchTauLeapEngine` for
  both: one Cao–Gillespie–Petzold leap per round for the whole trial batch.
  Same ``epsilon`` knob, kinetic-only scheduling and KS-gated contract as
  ``"tau"``, but on the numpy random stream.

Third-party backends plug in via
:func:`repro.sim.registry.register_engine` and become addressable as
``engine="<name>"`` everywhere without touching any dispatch code.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.config import RunConfig
from repro.crn.network import CRN
from repro.sim.engine import (
    BatchFairEngine,
    BatchGillespieEngine,
    BatchTauLeapEngine,
    CompiledCRN,
)
from repro.sim.fair import FairRunResult, FairScheduler
from repro.sim.kernel import (
    FairPolicy,
    GillespiePolicy,
    SimulatorCore,
    StepPolicy,
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
    "BUILTIN_ENGINES",
    "ScalarEngine",
    "BatchEngine",
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
# The built-in engines: two generic adapters, registered from one table
# ---------------------------------------------------------------------------


def _quiescence_window(config: RunConfig, x: Sequence[int]) -> int:
    if config.quiescence_window is None:
        return default_quiescence_window(x)
    return config.quiescence_window


class ScalarEngine:
    """One :class:`~repro.sim.kernel.SimulatorCore` trajectory per trial seed.

    ``run_policy(config)`` builds the step policy ``run_many`` samples with,
    under the config's quiescence window (default: population-scaled);
    ``kinetic_policy(config)`` builds the one ``estimate_expected_output``
    samples with, with no window.  Trial ``i`` draws from
    ``random.Random(config.trial_seeds()[i])``.
    """

    def __init__(
        self,
        run_policy: Callable[[RunConfig], StepPolicy],
        kinetic_policy: Callable[[RunConfig], StepPolicy],
    ) -> None:
        self.run_policy = run_policy
        self.kinetic_policy = kinetic_policy

    def run_many(self, crn: CRN, x: Sequence[int], config: RunConfig) -> ConvergenceReport:
        policy = self.run_policy(config)
        quiescence_window = _quiescence_window(config, x)
        outputs: List[int] = []
        max_outputs: List[int] = []
        steps: List[int] = []
        all_done = True
        initial = crn.initial_configuration(x)
        for trial_seed in config.trial_seeds():
            core = SimulatorCore(crn, policy, rng=random.Random(trial_seed))
            result = core.run(
                initial, max_steps=config.max_steps, quiescence_window=quiescence_window
            )
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

    def estimate_expected_output(
        self, crn: CRN, x: Sequence[int], config: RunConfig
    ) -> float:
        policy = self.kinetic_policy(config)
        total = 0.0
        initial = crn.initial_configuration(x)
        for trial_seed in config.trial_seeds():
            core = SimulatorCore(crn, policy, rng=random.Random(trial_seed))
            result = core.run(initial, max_steps=config.max_steps)
            total += crn.output_count(result.final_configuration)
        return total / config.trials


class BatchEngine:
    """All trials advance simultaneously, one numpy row each.

    ``run_engine(compiled, config)`` builds the batch engine ``run_many``
    runs, under the config's quiescence window (default: population-scaled);
    ``kinetic_engine(compiled, config)`` builds the one
    ``estimate_expected_output`` runs, with no window.  One batch of
    ``config.trials`` rows is seeded with ``config.seed``.
    """

    def __init__(
        self,
        run_engine: Callable[[CompiledCRN, RunConfig], Any],
        kinetic_engine: Callable[[CompiledCRN, RunConfig], Any],
    ) -> None:
        self.run_engine = run_engine
        self.kinetic_engine = kinetic_engine

    def run_many(self, crn: CRN, x: Sequence[int], config: RunConfig) -> ConvergenceReport:
        result = self.run_engine(crn.compiled(), config).run_on_input(
            x,
            batch=config.trials,
            max_steps=config.max_steps,
            quiescence_window=_quiescence_window(config, x),
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
        result = self.kinetic_engine(crn.compiled(), config).run_on_input(
            x, batch=config.trials, max_steps=config.max_steps
        )
        return float(result.output_counts().mean())


def _tau_policy(config: RunConfig) -> StepPolicy:
    return TauLeapPolicy(epsilon=config.epsilon)


def _tau_vec_engine(compiled: CompiledCRN, config: RunConfig) -> BatchTauLeapEngine:
    return BatchTauLeapEngine(compiled, seed=config.seed, epsilon=config.epsilon)


#: The built-in engines, in registration order: name -> (adapter, the
#: capability metadata passed to :func:`~repro.sim.registry.register_engine`).
#: The ``step_cost`` / ``trial_step_cost`` constants are the two-point fits
#: of the ``auto-cost/*`` records in ``BENCH_results.json`` (measured on a
#: 2-vCPU Xeon VM; ``tests/test_registry.py`` refits and checks them).
BUILTIN_ENGINES: Dict[str, Tuple[Any, Dict[str, Any]]] = {
    "python": (
        ScalarEngine(lambda config: FairPolicy(), lambda config: GillespiePolicy()),
        dict(
            supports_fair=True,
            trial_step_cost=7.3e-7,
            description=(
                "Scalar kernel (shared CompiledCRN IR, sparse incremental "
                "propensities); historical seeded behaviour, bit for bit"
            ),
        ),
    ),
    "vectorized": (
        BatchEngine(
            lambda compiled, config: BatchFairEngine(compiled, seed=config.seed),
            lambda compiled, config: BatchGillespieEngine(compiled, seed=config.seed),
        ),
        dict(
            supports_fair=True,
            batch_capable=True,
            step_cost=7.52e-5,
            trial_step_cost=3.0e-7,
            description=(
                "numpy batch engines advancing all trials per step; "
                "reproducible but on a numpy random stream"
            ),
        ),
    ),
    "tau": (
        ScalarEngine(_tau_policy, _tau_policy),
        dict(
            supports_fair=False,
            min_recommended_population=10_000,
            approximate=True,
            step_cost=5.19e-8,
            trial_step_cost=3.1e-8,
            description=(
                "tau-leaping approximate SSA (Cao-Gillespie tau selection, "
                "Poisson firing batches, exact fallback); error knob "
                "RunConfig.epsilon, statistically equivalent to exact engines"
            ),
        ),
    ),
    "tau-vec": (
        BatchEngine(_tau_vec_engine, _tau_vec_engine),
        dict(
            supports_fair=False,
            min_recommended_population=10_000,
            approximate=True,
            batch_capable=True,
            step_cost=6.44e-7,
            trial_step_cost=1.72e-9,
            description=(
                "batched tau-leaping: the whole trial batch advances one "
                "Cao-Gillespie leap per round (dense numpy kinetics, batched "
                "Poisson firings, per-trial exact fallback); error knob "
                "RunConfig.epsilon, statistically equivalent to exact engines"
            ),
        ),
    ),
}


def register_builtin_engines(names: Optional[Iterable[str]] = None) -> None:
    """(Re-)register the built-in engines (all of them, or just ``names``).

    Idempotent (``replace=True``), so module re-execution under
    ``importlib.reload`` / IPython autoreload is safe, and the registry can
    restore a built-in that a test unregistered without touching the others.
    """
    names = set(BUILTIN_ENGINES if names is None else names)
    for name, (adapter, metadata) in BUILTIN_ENGINES.items():
        if name in names:
            register_engine(name, replace=True, **metadata)(adapter)


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
