"""A rate-agnostic fair random scheduler for stable-computation testing.

Stable computation is a reachability property: correctness does not depend on
reaction rates.  The fair scheduler fires a uniformly random applicable
reaction at each step.  Under this scheduler every configuration that remains
reachable infinitely often is eventually reached with probability 1, so a CRN
that stably computes ``f`` converges to the correct stable output on every run
(footnote 2 of the paper lists this as an equivalent definition).

The scheduler also supports *biased* adversarial modes used by the
overproduction-witness search (:mod:`repro.verify.overproduction`), which
prefer reactions that produce the output species in order to surface
overshooting behaviour quickly.

:class:`FairScheduler` is a thin compatibility shim over the shared scalar
kernel (:class:`repro.sim.kernel.SimulatorCore` with
:class:`~repro.sim.kernel.FairPolicy`): same public API, same result type,
and bit-for-bit identical seeded runs (``tests/test_kernel.py`` locks this
against :mod:`repro.sim._reference`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.crn.configuration import Configuration
from repro.crn.network import CRN
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.sim.kernel import FairPolicy, SimulatorCore
from repro.sim.trajectory import Trajectory


@dataclass
class FairRunResult:
    """Result of a single fair-scheduler run."""

    final_configuration: Configuration
    steps: int
    silent: bool
    """True if the run stopped because no reaction was applicable."""
    converged: bool
    """True if the run stopped because the output was quiescent for the window."""
    max_output_seen: int
    """The maximum output count observed at any point during the run."""
    trajectory: Optional[Trajectory] = None

    def output_count(self, crn: CRN) -> int:
        """The output count at the end of the run."""
        return crn.output_count(self.final_configuration)


class FairScheduler:
    """Uniform-random (or biased) scheduler over applicable reactions (kernel-backed).

    Parameters
    ----------
    crn:
        The network to run.
    rng:
        Optional random generator for reproducibility.
    bias:
        Optional weighting function mapping a reaction to a positive weight;
        reactions are then chosen proportionally to their weight among the
        applicable ones.  ``None`` means uniform choice.  The kernel evaluates
        the bias once per reaction per run (every in-repo bias is a pure
        function of the reaction, so this is observationally identical).
    """

    def __init__(
        self,
        crn: CRN,
        rng: Optional[random.Random] = None,
        bias: Optional[Callable[[Reaction], float]] = None,
    ) -> None:
        self.crn = crn
        self.rng = rng or random.Random()
        self.bias = bias

    def run(
        self,
        initial: Configuration,
        max_steps: int = 1_000_000,
        quiescence_window: int = 0,
        track: Sequence[Species] = (),
        record_every: int = 1,
    ) -> FairRunResult:
        """Run from ``initial`` until silence, quiescence, or the step bound.

        Parameters
        ----------
        quiescence_window:
            If positive, stop once the output count has not changed for this
            many consecutive steps while reactions were still firing.  This is
            a heuristic convergence detector for CRNs that never fall silent
            (e.g. those with catalytic reactions).
        """
        core = SimulatorCore(self.crn, FairPolicy(bias=self.bias), rng=self.rng)
        result = core.run(
            initial,
            max_steps=max_steps,
            quiescence_window=quiescence_window,
            track=track,
            record_every=record_every,
        )
        return FairRunResult(
            final_configuration=result.final_configuration,
            steps=result.steps,
            silent=result.silent,
            converged=result.converged,
            max_output_seen=result.max_output_seen,
            trajectory=result.trajectory,
        )

    def run_on_input(self, x: Sequence[int], **kwargs) -> FairRunResult:
        """Run from the CRN's initial configuration for input ``x``."""
        return self.run(self.crn.initial_configuration(x), **kwargs)


def output_producing_bias(crn: CRN, strength: float = 20.0) -> Callable[[Reaction], float]:
    """A bias preferring reactions that increase the output count.

    Used by the adversarial overproduction search: a schedule that greedily
    produces output surfaces the overshoot of non-output-oblivious CRNs
    (e.g. the four-reaction ``max`` CRN of Fig. 1) very quickly.
    """
    output = crn.output_species

    def bias(rxn: Reaction) -> float:
        delta = rxn.net_change(output)
        if delta > 0:
            return strength * delta
        if delta < 0:
            return 1.0 / strength
        return 1.0

    return bias


def output_consuming_bias(crn: CRN, strength: float = 20.0) -> Callable[[Reaction], float]:
    """The opposite bias: prefer reactions that consume the output species."""
    output = crn.output_species

    def bias(rxn: Reaction) -> float:
        delta = rxn.net_change(output)
        if delta < 0:
            return strength * (-delta)
        if delta > 0:
            return 1.0 / strength
        return 1.0

    return bias
