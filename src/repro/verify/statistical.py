"""Cross-engine statistical equivalence: KS distribution gates.

The exact engines (``"python"`` scalar kernel, ``"vectorized"`` numpy batch)
can be compared output-for-output on stable computations, and the kernel is
even bit-for-bit against the frozen reference loops.  An *approximate* engine
(``"tau"`` tau-leaping, a future numba/C backend with its own random stream)
admits no such check: the only meaningful contract is that it samples the
same continuous-time Markov chain, i.e. that its *distributions* over
trajectory statistics match the exact engines'.  This module is that
contract's toolkit:

* :func:`ks_two_sample` — the two-sample Kolmogorov–Smirnov statistic with
  the standard asymptotic p-value (no scipy dependency; the Kolmogorov tail
  sum is a dozen lines).  On the integer-valued samples compared here the
  asymptotic test is *conservative* (ties reduce the attainable statistic),
  which is the right failure direction for a CI gate: a pass is never
  manufactured by discreteness, and the deliberately-biased-engine tests in
  ``tests/test_statistical_equivalence.py`` show the power that remains.
* :func:`sample_kinetic_distribution` — one seeded sample of per-trajectory
  completion step counts and final output counts for a CRN under a named
  kinetic sampler: a registered engine's kinetic half (``"python"`` exact
  scalar, ``"vectorized"`` exact batch, ``"tau"`` tau-leaping, ``"tau-vec"``
  batched tau-leaping), or any :class:`~repro.sim.kernel.StepPolicy`.
  All samplers target the same CTMC, so their step/output distributions must
  agree up to sampling noise.
* :func:`assert_distributions_match` — the gate: KS-test a metric between two
  samples and fail with a readable report when the p-value drops under alpha.

The test suite (``tests/test_statistical_equivalence.py``, ``-m
statistical``) runs these gates python-vs-vectorized-vs-tau-vs-tau-vec
across every construction strategy family on a fixed seed matrix, so the
gates are deterministic in CI while still rejecting a subtly rate-biased
backend.  The same machinery admits any new engine with its own random
stream: bit-for-bit comparison against ``"python"`` is impossible by
construction, but distributional identity is exactly what "samples the same
CTMC" means, so passing these gates is the admission contract.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

from repro.api.config import RunConfig
from repro.crn.network import CRN
from repro.sim.kernel import SimulatorCore, StepPolicy
from repro.sim.registry import get_engine

__all__ = [
    "KSResult",
    "ks_statistic",
    "kolmogorov_pvalue",
    "ks_two_sample",
    "DistributionSample",
    "sample_kinetic_distribution",
    "assert_distributions_match",
]


@dataclass(frozen=True)
class KSResult:
    """A two-sample Kolmogorov–Smirnov comparison."""

    statistic: float
    pvalue: float
    n: int
    m: int

    def rejects(self, alpha: float) -> bool:
        """True when the samples differ significantly at level ``alpha``."""
        return self.pvalue < alpha

    def describe(self) -> str:
        return (
            f"KS D={self.statistic:.4f}, p={self.pvalue:.4g} "
            f"(n={self.n}, m={self.m})"
        )


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """The two-sample KS statistic ``sup_x |F_a(x) - F_b(x)|``.

    Tie-safe: both empirical CDFs are evaluated after consuming *all* values
    equal to the current point, so repeated integer values (the common case
    for step and output counts) are handled exactly.
    """
    if not a or not b:
        raise ValueError("ks_statistic needs two nonempty samples")
    xs = sorted(a)
    ys = sorted(b)
    n, m = len(xs), len(ys)
    i = j = 0
    d = 0.0
    while i < n and j < m:
        point = xs[i] if xs[i] <= ys[j] else ys[j]
        while i < n and xs[i] <= point:
            i += 1
        while j < m and ys[j] <= point:
            j += 1
        gap = abs(i / n - j / m)
        if gap > d:
            d = gap
    return d


def kolmogorov_pvalue(statistic: float, n: int, m: int) -> float:
    """Asymptotic two-sample KS p-value (Kolmogorov distribution tail).

    Uses the standard small-sample correction
    ``lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D`` with effective size
    ``ne = n*m/(n+m)``, then the alternating tail series
    ``Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2)``.
    """
    if n < 1 or m < 1:
        raise ValueError("kolmogorov_pvalue needs positive sample sizes")
    effective = math.sqrt(n * m / (n + m))
    lam = (effective + 0.12 + 0.11 / effective) * statistic
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = sign * math.exp(-2.0 * (k * lam) ** 2)
        total += term
        if abs(term) < 1e-12:
            break
        sign = -sign
    return max(0.0, min(1.0, 2.0 * total))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KSResult:
    """Two-sample KS test: statistic plus asymptotic p-value."""
    d = ks_statistic(a, b)
    return KSResult(statistic=d, pvalue=kolmogorov_pvalue(d, len(a), len(b)), n=len(a), m=len(b))


@dataclass
class DistributionSample:
    """Per-trajectory statistics from repeated seeded kinetic runs."""

    engine: str
    steps: List[int] = field(default_factory=list)
    """Reaction events fired per trajectory (completion step counts)."""
    outputs: List[int] = field(default_factory=list)
    """Final output-species count per trajectory."""
    all_completed: bool = True
    """True when every trajectory fell silent or detected quiescence."""

    def metric(self, name: str) -> List[int]:
        try:
            return {"steps": self.steps, "outputs": self.outputs}[name]
        except KeyError:
            raise ValueError(
                f"unknown metric {name!r}; expected 'steps' or 'outputs'"
            ) from None


#: Engine selectors accepted by :func:`sample_kinetic_distribution`, or any
#: StepPolicy instance for ad-hoc (e.g. deliberately biased) samplers.
EngineLike = Union[str, StepPolicy]


def sample_kinetic_distribution(
    crn: CRN,
    x: Sequence[int],
    engine: EngineLike = "python",
    n_seeds: int = 40,
    base_seed: int = 0,
    max_steps: int = 1_000_000,
    quiescence_window: int = 0,
    epsilon: float = 0.03,
) -> DistributionSample:
    """Sample completion-step and output distributions under one kinetic sampler.

    Every sampler targets the same CTMC (stochastic mass-action kinetics), so
    two samples of the same CRN/input must agree distributionally no matter
    which engine produced them — that is the property the KS gates check.

    Parameters
    ----------
    engine:
        A registered engine name, sampled through the kinetic half of its
        adapter (:mod:`repro.sim.runner`): a scalar engine's
        ``kinetic_policy`` (``"python"``: exact Gillespie; ``"tau"``:
        tau-leaping with ``epsilon``) or a batch engine's ``kinetic_engine``
        (``"vectorized"``: exact numpy batch; ``"tau-vec"``: batched
        tau-leaping with ``epsilon``).  Or a
        :class:`~repro.sim.kernel.StepPolicy` instance to sample an arbitrary
        — e.g. deliberately biased — scalar policy.
    n_seeds / base_seed:
        The fixed seed matrix: scalar trajectories use seeds ``base_seed + i``
        for ``i < n_seeds``; a batch engine runs one ``n_seeds``-row batch
        seeded with ``base_seed``.  Fixed seeds make the gates deterministic
        in CI.
    quiescence_window:
        Optional kinetic quiescence detection for CRNs that never fall
        silent (scalar samplers only — the batch engines are sampled on a
        pure ``max_steps`` budget here, so requesting both raises
        ``ValueError``).
    """
    if n_seeds < 2:
        raise ValueError(f"n_seeds must be >= 2 for a distribution, got {n_seeds}")
    batch_engine = None
    if isinstance(engine, StepPolicy):
        policy = engine
        label = type(engine).__name__
    else:
        # The registered engine's kinetic half: a scalar adapter's
        # ``kinetic_policy`` or a batch adapter's ``kinetic_engine``.
        adapter = get_engine(engine).implementation
        config = RunConfig(
            trials=n_seeds, max_steps=max_steps, seed=base_seed, epsilon=epsilon
        )
        label = engine
        if hasattr(adapter, "kinetic_policy"):
            policy = adapter.kinetic_policy(config)
        elif hasattr(adapter, "kinetic_engine"):
            batch_engine = adapter.kinetic_engine(crn.compiled(), config)
        else:
            raise ValueError(
                f"engine {engine!r} has no kinetic sampler (neither "
                f"kinetic_policy nor kinetic_engine); pass a StepPolicy "
                f"instance instead"
            )

    sample = DistributionSample(engine=label)
    if batch_engine is not None:
        if quiescence_window:
            raise ValueError(
                "batch engines are sampled on a max_steps budget here "
                "(quiescence_window=0) so every engine sees the identical "
                "stopping rule; drop quiescence_window for cross-engine "
                "sampling"
            )
        result = batch_engine.run_on_input(x, batch=n_seeds, max_steps=max_steps)
        sample.steps = [int(v) for v in result.steps]
        sample.outputs = [int(v) for v in result.output_counts()]
        sample.all_completed = bool(result.silent.all())
        return sample

    for i in range(n_seeds):
        core = SimulatorCore(crn, policy, rng=random.Random(base_seed + i))
        result = core.run_on_input(
            x, max_steps=max_steps, quiescence_window=quiescence_window
        )
        sample.steps.append(result.steps)
        sample.outputs.append(crn.output_count(result.final_configuration))
        if not (result.silent or result.converged):
            sample.all_completed = False
    return sample


def assert_distributions_match(
    reference: DistributionSample,
    candidate: DistributionSample,
    metrics: Tuple[str, ...] = ("steps", "outputs"),
    alpha: float = 1e-3,
) -> List[Tuple[str, KSResult]]:
    """KS-gate ``candidate`` against ``reference`` on the given metrics.

    Raises ``AssertionError`` naming the engine pair, metric, and KS numbers
    when any gate rejects at level ``alpha``; returns the per-metric results
    otherwise (so callers can log or archive them).  ``alpha`` is the false
    alarm probability per gate under the null — keep it small (the default
    1e-3 keeps a full strategy-family matrix stable across CI runs) and rely
    on the biased-engine tests for evidence of power.
    """
    results: List[Tuple[str, KSResult]] = []
    for metric in metrics:
        ks = ks_two_sample(reference.metric(metric), candidate.metric(metric))
        results.append((metric, ks))
        if ks.rejects(alpha):
            raise AssertionError(
                f"{candidate.engine!r} disagrees with {reference.engine!r} on "
                f"the {metric} distribution: {ks.describe()} < alpha={alpha}"
            )
    return results
