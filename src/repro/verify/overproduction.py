"""Searching for output overproduction (the composability failure mode).

Section 1.2 of the paper: the four-reaction ``max`` CRN can overshoot its
correct output before retracting the excess, which is precisely why renaming
its output into a downstream CRN fails (the downstream CRN may consume the
transient excess and "lock it in").  This module hunts for such overshoots with
an adversarial scheduler biased towards output-producing reactions, and
measures overshoot factors used by the Fig. 6 and composition benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.crn.network import CRN
from repro.sim.fair import output_producing_bias
from repro.sim.kernel import FairPolicy, run_trials


@dataclass
class OverproductionWitness:
    """Evidence that a CRN's output can exceed the target value transiently or permanently."""

    input_value: Tuple[int, ...]
    target: int
    max_output_seen: int
    final_output: int
    steps: int

    @property
    def overshoot(self) -> int:
        """How far above the target the output climbed."""
        return max(0, self.max_output_seen - self.target)

    @property
    def permanent(self) -> bool:
        """True if the run *ended* above the target (the excess was never retracted)."""
        return self.final_output > self.target


def find_overproduction(
    crn: CRN,
    func: Callable[[Sequence[int]], int],
    x: Sequence[int],
    trials: int = 20,
    max_steps: int = 200_000,
    seed: Optional[int] = 11,
    bias_strength: float = 25.0,
) -> Optional[OverproductionWitness]:
    """Search for a schedule on input ``x`` whose output exceeds ``func(x)``.

    Returns the worst witness found (largest overshoot), or ``None`` if no run
    ever exceeded the target — which is guaranteed for output-oblivious CRNs
    that stably compute ``func``, since they can never retract output.
    """
    x = tuple(int(v) for v in x)
    target = int(func(x))
    # The master generator feeds only the trial seeds, so drawing them up
    # front gives the seeds that drawing one per trial would.
    rng = random.Random(seed)
    seeds = [rng.getrandbits(64) for _ in range(trials)]
    policy = FairPolicy(bias=output_producing_bias(crn, strength=bias_strength))
    runs = run_trials(crn, policy, x, seeds, max_steps, 50 * (sum(x) + 2))
    # The first trial with the highest peak has the largest overshoot.
    peaks = runs.max_outputs
    worst = max(range(trials), key=peaks.__getitem__, default=None)
    if worst is None or peaks[worst] <= target:
        return None
    return OverproductionWitness(
        input_value=x,
        target=target,
        max_output_seen=peaks[worst],
        final_output=runs.outputs[worst],
        steps=runs.steps[worst],
    )

def measure_overshoot(
    crn: CRN,
    func: Callable[[Sequence[int]], int],
    inputs: Sequence[Sequence[int]],
    trials: int = 10,
    seed: Optional[int] = 13,
) -> dict:
    """The maximum overshoot observed across a set of inputs (0 for output-oblivious CRNs)."""
    per_input = {}
    for x in inputs:
        witness = find_overproduction(crn, func, x, trials=trials, seed=seed)
        per_input[tuple(int(v) for v in x)] = witness.overshoot if witness else 0
    return {
        "per_input": per_input,
        "max_overshoot": max(per_input.values(), default=0),
    }
