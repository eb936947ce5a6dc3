"""Shared tau-leap selection math (Cao–Gillespie–Petzold 2006).

Both tau-leaping engines — the scalar :class:`repro.sim.kernel.TauLeapPolicy`
stepper and the vectorized :class:`repro.sim.engine.BatchTauLeapEngine` —
select their leap length with the largest-relative-change bound of Cao,
Gillespie & Petzold, *J. Chem. Phys.* 124, 044109 (2006): choose the largest
``tau`` such that no species is expected to drift (in mean or in standard
deviation) by more than ``epsilon * x_i / g_i``, where ``g_i`` is the
highest-order-reaction factor for species ``i``.

This module is the single home of that math so the two engines cannot
disagree on the bound:

* :func:`build_g_candidates` precomputes, per reactant species, the distinct
  ``(reaction order, own coefficient)`` pairs over the reactions consuming
  it — the data ``g_i`` is computed from.
* :func:`g_factor` / :func:`select_tau` are the scalar forms, moved here
  verbatim from the PR 5 kernel stepper (plain-python float ops in the same
  order, so seeded scalar ``engine="tau"`` streams are bit-for-bit
  unchanged by the refactor).
* :class:`BatchTauSelector` is the numpy form used by the batched engine:
  one ``(B,)`` tau per trial from dense ``(B, R)`` propensities and
  ``(B, S)`` counts.  It computes the same bound up to float summation
  order (dense matrix products accumulate drift sums in a different order
  than the scalar dict loop), which is why the batched engine is admitted
  statistically (KS gates), not bit-for-bit.
* :func:`is_critical` / :func:`critical_mask` encode the shared
  ``n_critical`` rule deciding when a leap is too small to be worth the
  approximation error and the engine should fall back to exact SSA steps.

See ``DESIGN.md`` §10 for how the batched engine composes these helpers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - numpy loads only where a batch engine runs
    import numpy as np

__all__ = [
    "GCandidates",
    "build_g_candidates",
    "g_factor",
    "select_tau",
    "BatchTauSelector",
    "is_critical",
    "critical_mask",
]

#: Per reactant species index: the distinct (reaction order, own coefficient)
#: pairs over the reactions consuming it, sorted for determinism.
GCandidates = Dict[int, Tuple[Tuple[int, int], ...]]


def build_g_candidates(
    reactant_terms: Sequence[Sequence[Tuple[int, int]]],
) -> GCandidates:
    """Precompute the ``g_i`` factor data from the IR's ``reactant_terms``.

    For each species ``s`` consumed by at least one reaction, collect the
    distinct ``(order, k)`` pairs where ``order`` is the total reactant count
    of a consuming reaction and ``k`` is ``s``'s own coefficient in it.
    ``g_i = order`` for coefficient 1; higher self-coefficients get the Cao
    et al. small-count correction (``order + (k - 1) / (x - 1)``).
    """
    candidates: Dict[int, set] = {}
    for terms in reactant_terms:
        order = sum(k for _, k in terms)
        for s, k in terms:
            candidates.setdefault(s, set()).add((order, k))
    return {s: tuple(sorted(pairs)) for s, pairs in candidates.items()}


def g_factor(pairs: Tuple[Tuple[int, int], ...], x: int) -> float:
    """The highest-order-reaction factor ``g_i`` of Cao et al. (2006)."""
    g = 1.0
    for order, k in pairs:
        if k <= 1:
            g = max(g, float(order))
        else:
            g = max(g, order + (k - 1) / float(max(x - 1, 1)))
    return g


def select_tau(
    g_candidates: GCandidates,
    net_terms: Sequence[Sequence[Tuple[int, int]]],
    props: Sequence[float],
    counts: List[int],
    epsilon: float,
) -> float:
    """The largest leap over which no propensity should drift by more than
    ``epsilon`` relatively (species-wise mean/variance bound, scalar form).

    Returns ``math.inf`` when no reactant species ever changes (purely
    catalytic kinetics: propensities are constant, so any leap is exact).
    """
    mean_drift: Dict[int, float] = {}
    var_drift: Dict[int, float] = {}
    for j, a in enumerate(props):
        if a <= 0.0:
            continue
        for s, delta in net_terms[j]:
            mean_drift[s] = mean_drift.get(s, 0.0) + delta * a
            var_drift[s] = var_drift.get(s, 0.0) + delta * delta * a
    tau = math.inf
    for s, pairs in g_candidates.items():
        mu = abs(mean_drift.get(s, 0.0))
        sigma2 = var_drift.get(s, 0.0)
        if mu == 0.0 and sigma2 == 0.0:
            continue
        bound = max(epsilon * counts[s] / g_factor(pairs, counts[s]), 1.0)
        if mu > 0.0:
            tau = min(tau, bound / mu)
        if sigma2 > 0.0:
            tau = min(tau, bound * bound / sigma2)
    return tau


class BatchTauSelector:
    """Precompiled batch CGP tau selection for one :class:`CompiledCRN` IR.

    Everything shape-dependent is materialized once at construction so the
    per-round :meth:`select` is a fixed, species-loop-free sequence of dense
    numpy ops (the hot path of the batched tau engine):

    * ``net`` / ``net_sq`` — the dense ``(R, S)`` net-change matrix
      (``CompiledCRN.net``) and its elementwise square as floats, so
      ``props @ net`` is the per-species mean drift rate and
      ``props @ net_sq`` the variance drift rate (the two sums
      :func:`select_tau` accumulates sparsely), restricted to the
      *constrained* species columns (the keys of ``g_candidates``: species consumed by at least
      one reaction; species that are only produced never bound tau, exactly
      as in the scalar :func:`select_tau` loop).
    * ``base_g`` — the count-independent part of ``g_i`` (the max reaction
      order over pairs with own-coefficient 1).
    * ``corrections`` — the rare ``(column, order, k)`` triples with own
      coefficient ``k > 1`` that need the count-dependent Cao et al.
      small-count term; networks without higher self-coefficients (all five
      paper strategy families) skip this loop entirely.
    """

    __slots__ = ("columns", "net", "net_sq", "base_g", "corrections")

    def __init__(
        self,
        g_candidates: GCandidates,
        net: np.ndarray,
    ) -> None:
        import numpy as np

        self.columns = np.array(sorted(g_candidates), dtype=np.intp)
        self.net = np.ascontiguousarray(
            np.asarray(net, dtype=np.float64)[:, self.columns]
        )
        self.net_sq = self.net * self.net
        self.base_g = np.ones(self.columns.size, dtype=np.float64)
        self.corrections: List[Tuple[int, float, int]] = []
        for c, s in enumerate(self.columns.tolist()):
            for order, k in g_candidates[s]:
                if k <= 1:
                    self.base_g[c] = max(self.base_g[c], float(order))
                else:
                    self.corrections.append((c, float(order), int(k)))

    def select(
        self, props: np.ndarray, counts: np.ndarray, epsilon: float
    ) -> np.ndarray:
        """One CGP tau bound per batch row (the vectorized :func:`select_tau`).

        ``props`` is ``(B, R)``, ``counts`` is ``(B, S)``.  Rows with no
        drifting reactant species get ``inf`` (the caller applies the
        catalytic-kinetics cap).
        """
        import numpy as np

        if self.columns.size == 0:
            return np.full(props.shape[0], np.inf, dtype=np.float64)
        x = counts[:, self.columns].astype(np.float64)
        g = self.base_g
        if self.corrections:
            g = np.broadcast_to(g, x.shape).copy()
            for c, order, k in self.corrections:
                np.maximum(
                    g[:, c],
                    order + (k - 1) / np.maximum(x[:, c] - 1.0, 1.0),
                    out=g[:, c],
                )
        bound = np.maximum(epsilon * x / g, 1.0)
        mu = np.abs(props @ self.net)  # (B, S_c): |sum_j delta_js * a_j|
        sigma2 = props @ self.net_sq  # (B, S_c): sum_j delta_js^2 * a_j
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.minimum(
                np.where(mu > 0.0, bound / mu, np.inf),
                np.where(sigma2 > 0.0, bound * bound / sigma2, np.inf),
            )
        return ratio.min(axis=1)


def is_critical(tau: float, total: float, n_critical: float) -> bool:
    """The shared fallback rule: a leap expecting fewer than ``n_critical``
    firings buys nothing over exact SSA and risks bias, so don't leap."""
    return tau * total < n_critical


def critical_mask(
    tau: np.ndarray, totals: np.ndarray, n_critical: float
) -> np.ndarray:
    """Vectorized :func:`is_critical`: True per row where leaping is not worth it."""
    return tau * totals < n_critical
