"""FROZEN reference copies of the pre-kernel dict-backed scalar simulators.

These are the original Gillespie direct-method and fair-scheduler ``run``
loops, verbatim, from before the scalar simulators were rebased onto
:mod:`repro.sim.kernel`.  They advance an immutable
:class:`~repro.crn.configuration.Configuration` one reaction at a time and
recompute every propensity / applicability flag from scratch at every step.

They exist for exactly two purposes:

* the **equivalence oracle** — ``tests/test_kernel.py`` asserts that seeded
  kernel runs reproduce these loops bit for bit (same draw order, same final
  configuration, same step/time/convergence bookkeeping);
* the **benchmark baseline** — the ``scalar-kernel/`` before/after entries in
  ``BENCH_results.json`` measure the kernel against this implementation.

Do not extend, optimize, or "fix" this module: its value is that it does not
change.  It is not part of the public API: every public scalar run is a
:class:`~repro.sim.kernel.SimulatorCore` under a
:class:`~repro.sim.kernel.GillespiePolicy` or
:class:`~repro.sim.kernel.FairPolicy`.  Each run returns a plain record whose
fields are named as the matching :class:`~repro.sim.kernel.KernelRunResult`
fields.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence

from repro.crn.configuration import Configuration
from repro.crn.network import CRN
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.sim.trajectory import Trajectory


class ReferenceGillespieSimulator:
    """The legacy dict-backed Gillespie direct-method loop (frozen)."""

    def __init__(self, crn: CRN, rng: Optional[random.Random] = None) -> None:
        self.crn = crn
        self.rng = rng or random.Random()

    def run(
        self,
        initial: Configuration,
        max_steps: int = 1_000_000,
        max_time: float = math.inf,
        track: Sequence[Species] = (),
        record_every: int = 1,
        stop_when: Optional[Callable[[Configuration], bool]] = None,
    ):
        config = initial
        time_now = 0.0
        trajectory = Trajectory(track) if track else None
        if trajectory is not None:
            trajectory.record(time_now, 0, config)

        steps = 0
        silent = False
        while steps < max_steps and time_now < max_time:
            if stop_when is not None and stop_when(config):
                break
            propensities: List[float] = []
            total = 0.0
            for rxn in self.crn.reactions:
                a = rxn.propensity(config)
                propensities.append(a)
                total += a
            if total <= 0.0:
                silent = True
                break
            time_now += self.rng.expovariate(total)
            if time_now > max_time:
                time_now = max_time
                break
            choice = self.rng.random() * total
            cumulative = 0.0
            fired: Optional[Reaction] = None
            for rxn, a in zip(self.crn.reactions, propensities):
                cumulative += a
                if choice <= cumulative:
                    fired = rxn
                    break
            if fired is None:  # numerical edge case: fall back to the last positive one
                fired = next(
                    rxn for rxn, a in zip(reversed(self.crn.reactions), reversed(propensities)) if a > 0
                )
            config = fired.apply(config)
            steps += 1
            if trajectory is not None and steps % record_every == 0:
                trajectory.record(time_now, steps, config)

        if trajectory is not None and (len(trajectory) == 0 or trajectory[-1].step != steps):
            trajectory.record(time_now, steps, config)
        return SimpleNamespace(
            final_configuration=config,
            final_time=time_now,
            steps=steps,
            silent=silent,
            trajectory=trajectory,
        )

    def run_on_input(self, x: Sequence[int], **kwargs):
        """Simulate from the CRN's initial configuration for input ``x``."""
        return self.run(self.crn.initial_configuration(x), **kwargs)


class ReferenceFairScheduler:
    """The legacy dict-backed fair-scheduler loop (frozen)."""

    def __init__(
        self,
        crn: CRN,
        rng: Optional[random.Random] = None,
        bias: Optional[Callable[[Reaction], float]] = None,
    ) -> None:
        self.crn = crn
        self.rng = rng or random.Random()
        self.bias = bias

    def _choose(self, applicable: List[Reaction]) -> Reaction:
        if self.bias is None:
            return self.rng.choice(applicable)
        weights = [max(self.bias(rxn), 0.0) for rxn in applicable]
        total = sum(weights)
        if total <= 0:
            return self.rng.choice(applicable)
        pick = self.rng.random() * total
        cumulative = 0.0
        for rxn, weight in zip(applicable, weights):
            cumulative += weight
            if pick <= cumulative:
                return rxn
        return applicable[-1]

    def run(
        self,
        initial: Configuration,
        max_steps: int = 1_000_000,
        quiescence_window: int = 0,
        track: Sequence[Species] = (),
        record_every: int = 1,
    ):
        config = initial
        trajectory = Trajectory(track) if track else None
        if trajectory is not None:
            trajectory.record(0.0, 0, config)

        output_species = self.crn.output_species
        max_output = config[output_species]
        steps = 0
        silent = False
        converged = False
        steps_since_output_change = 0
        last_output = config[output_species]

        while steps < max_steps:
            applicable = self.crn.applicable_reactions(config)
            if not applicable:
                silent = True
                break
            rxn = self._choose(applicable)
            config = rxn.apply(config)
            steps += 1
            current_output = config[output_species]
            max_output = max(max_output, current_output)
            if current_output == last_output:
                steps_since_output_change += 1
            else:
                steps_since_output_change = 0
                last_output = current_output
            if trajectory is not None and steps % record_every == 0:
                trajectory.record(float(steps), steps, config)
            if quiescence_window and steps_since_output_change >= quiescence_window:
                converged = True
                break

        if trajectory is not None and (len(trajectory) == 0 or trajectory[-1].step != steps):
            trajectory.record(float(steps), steps, config)
        return SimpleNamespace(
            final_configuration=config,
            steps=steps,
            silent=silent,
            converged=converged,
            max_output_seen=max_output,
            trajectory=trajectory,
        )

    def run_on_input(self, x: Sequence[int], **kwargs):
        """Run from the CRN's initial configuration for input ``x``."""
        return self.run(self.crn.initial_configuration(x), **kwargs)
