"""Simulators for discrete CRNs: one scalar kernel + a numpy batch engine.

Two scheduling semantics are provided, each in a scalar and a vectorized form:

* **Gillespie** — the exact stochastic simulation algorithm (Gillespie 1977),
  sampling the continuous-time Markov process the paper describes.  Used for
  kinetic experiments and throughput benchmarks.
* **Fair** — a rate-agnostic scheduler that repeatedly fires a uniformly
  random applicable reaction.  Stable computation is defined purely by
  reachability, so a fair random scheduler converges to the stable output with
  probability 1; this is the workhorse of the empirical verification harness
  for inputs too large for exhaustive search.

Both forms run over the single :class:`~repro.sim.engine.CompiledCRN` IR.
The scalar side is the kernel (:mod:`repro.sim.kernel`): one
:class:`~repro.sim.kernel.SimulatorCore` step loop with pluggable
:class:`~repro.sim.kernel.StepPolicy` strategies and Gibson–Bruck
dependency-graph propensity updates; ``GillespieSimulator`` / ``FairScheduler``
are thin compatibility shims over it.  The batch engines
(:mod:`repro.sim.engine`) advance ``B`` trajectories per numpy step and are
selected via ``engine="vectorized"`` in the runner helpers.  Engines are
looked up in the pluggable registry (:mod:`repro.sim.registry`) — register a
new backend with ``@register_engine("name")`` and it becomes addressable
everywhere an ``engine=`` selector is accepted.  See ``DESIGN.md`` §5 for the
kernel architecture and seeding policy.

API
---

======================================  =======================================================
Symbol                                  Purpose
======================================  =======================================================
``GillespieSimulator`` / ``..Result``   Scalar exact SSA over one trajectory (kernel shim).
``FairScheduler`` / ``FairRunResult``   Scalar rate-independent scheduler (kernel shim).
``output_producing_bias``               Adversarial bias: prefer output-producing reactions.
``output_consuming_bias``               Adversarial bias: prefer output-consuming reactions.
``SimulatorCore``                       The scalar step loop over the compiled IR.
``StepPolicy``                          Base class for pluggable scheduling strategies.
``GillespiePolicy`` / ``FairPolicy``    The two exact built-in step policies.
``TauLeapPolicy``                       Approximate SSA: Poisson firing batches per leap
                                        (``engine="tau"``, ``RunConfig.epsilon`` knob).
``KernelRunResult``                     Raw result of one ``SimulatorCore.run``.
``CompiledCRN``                         The shared IR: dense stoichiometry + sparse terms +
                                        reaction dependency graph.
``BatchGillespieEngine``                Vectorized SSA: B independent trajectories per step.
``BatchTauLeapEngine``                  Vectorized tau-leaping: the whole batch advances one
                                        CGP leap per round (``engine="tau-vec"``).
``BatchFairEngine``                     Vectorized fair scheduler with quiescence windows.
``BatchRunResult``                      Array-valued result of a batch run.
``Trajectory`` / ``TrajectoryPoint``    Recorded species counts along a scalar run.
``ConvergenceReport``                   Aggregate statistics over repeated runs.
``run_to_convergence``                  One fair run until silence / quiescence.
``run_many``                            Repeated runs
                                        (``engine="python"|"vectorized"|"tau"|"tau-vec"``).
``estimate_expected_output``            Monte-Carlo mean output under Gillespie kinetics.
``sweep_inputs``                        ``run_many`` over a collection of inputs (per-input seeds).
``default_quiescence_window``           Population-scaled convergence-detection window.
``register_engine`` / ``EngineInfo``    Pluggable engine registry (capability metadata).
``get_engine`` / ``engine_names``       Registry lookup / the registered selector values.
``check_engine``                        Validate an ``engine=`` selector against the registry.
``ENGINES``                             Live tuple of registered engine names (back-compat).
======================================  =======================================================
"""

from repro.sim.gillespie import GillespieSimulator, GillespieResult
from repro.sim.fair import (
    FairScheduler,
    FairRunResult,
    output_consuming_bias,
    output_producing_bias,
)
from repro.sim.engine import (
    BatchFairEngine,
    BatchGillespieEngine,
    BatchRunResult,
    BatchTauLeapEngine,
    CompiledCRN,
)
from repro.sim.kernel import (
    FairPolicy,
    GillespiePolicy,
    KernelRunResult,
    SimulatorCore,
    StepPolicy,
    TauLeapPolicy,
    default_quiescence_window,
)
from repro.sim.trajectory import Trajectory, TrajectoryPoint
from repro.sim.registry import (
    EngineInfo,
    check_engine,
    engine_names,
    get_engine,
    register_engine,
    registered_engines,
    unregister_engine,
)
from repro.sim.runner import (
    ConvergenceReport,
    run_to_convergence,
    run_many,
    estimate_expected_output,
    sweep_inputs,
)


def __getattr__(name: str):
    # ``ENGINES`` used to be a hard-coded tuple; it is now a live view of the
    # engine registry so runtime registrations show up too.
    if name == "ENGINES":
        return engine_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GillespieSimulator",
    "GillespieResult",
    "FairScheduler",
    "FairRunResult",
    "output_producing_bias",
    "output_consuming_bias",
    "CompiledCRN",
    "BatchGillespieEngine",
    "BatchTauLeapEngine",
    "BatchFairEngine",
    "BatchRunResult",
    "SimulatorCore",
    "StepPolicy",
    "GillespiePolicy",
    "FairPolicy",
    "TauLeapPolicy",
    "KernelRunResult",
    "Trajectory",
    "TrajectoryPoint",
    "ConvergenceReport",
    "run_to_convergence",
    "run_many",
    "estimate_expected_output",
    "sweep_inputs",
    "default_quiescence_window",
    "EngineInfo",
    "register_engine",
    "registered_engines",
    "unregister_engine",
    "get_engine",
    "engine_names",
    "check_engine",
    "ENGINES",
]
