"""Adversarial bias functions for the rate-agnostic fair scheduler.

Stable computation is a reachability property: correctness does not depend on
reaction rates.  The fair scheduler (:class:`repro.sim.kernel.FairPolicy`)
fires a uniformly random applicable reaction at each step.  Under this
scheduler every configuration that remains reachable infinitely often is
eventually reached with probability 1, so a CRN that stably computes ``f``
converges to the correct stable output on every run (footnote 2 of the paper
lists this as an equivalent definition).

The biases below weight that choice for the overproduction-witness search
(:mod:`repro.verify.overproduction`): preferring reactions that produce the
output species surfaces overshooting behaviour quickly.  Pass one as
``FairPolicy(bias=...)``.
"""

from __future__ import annotations

from typing import Callable

from repro.crn.network import CRN
from repro.crn.reaction import Reaction


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
