"""The scalar simulation kernel: one run driver, pluggable step policies.

Historically the package carried two parallel scalar hot loops — the Gillespie
direct method in :mod:`repro.sim.gillespie` and the fair scheduler in
:mod:`repro.sim.fair` — each advancing an immutable dict-backed
:class:`~repro.crn.configuration.Configuration` one reaction at a time and
re-deriving every propensity / applicability flag from scratch at every step.
That duplicated the applicability, propensity, and quiescence logic already
present in the batch engines and capped scalar runs at populations around
10^3 (every step paid a full dict copy plus ``R`` dict-lookup propensity
evaluations).

This module replaces both loops with a single :class:`SimulatorCore` driving
steppers over the shared :class:`~repro.sim.engine.CompiledCRN` IR:

* species counts live in one mutable dense list, so firing a reaction is a
  handful of integer adds over the reaction's sparse ``net_terms``;
* propensities / applicability flags are recomputed *incrementally*: after
  reaction ``j`` fires, the Gillespie stepper refreshes only the reactions
  listed in ``CompiledCRN.dependency_graph[j]`` (those whose reactants share
  a species with the species ``j`` changed) — the Gibson–Bruck dependency
  trick, which makes exact SSA scale with the number of *affected* reactions
  instead of the number of reactions.  A flag changes only when a count
  crosses one of its thresholds, so the fair stepper narrows that further:
  for each ``(s, bar, readers)`` in ``CompiledCRN.crossings[j]`` it
  rechecks ``readers`` only when the new ``counts[s] < bar``.  That is
  exact: a term ``(s, k)`` changes truth only if ``min(old, new) < k <=
  max(old, new)``, and ``k`` is at most ``kmax``, the largest coefficient on
  ``s``, so ``min(old, new) < kmax`` — which is the bar test (``bar`` is
  ``kmax`` when ``j`` consumes ``s``, ``kmax + delta`` when it produces
  ``delta``).  ``start`` likewise checks only the readers of nonzero
  species: every coefficient is at least 1.  The fair policy also keeps the
  ascending list of applicable indices it chooses from, editing it only for
  the flags that flip (about one per step on the paper's CRNs), so no step
  rebuilds it.  Its ``propensity_ops`` still counts ``|deps(j)|`` per event,
  not the rechecks made, so pinned :class:`~repro.obs.stats.RunStats` hold;
* scheduling semantics are pluggable :class:`StepPolicy` strategies —
  :class:`GillespiePolicy` (exponential clocks, propensity-proportional
  choice), :class:`FairPolicy` (uniform or statically biased choice among
  applicable reactions), and :class:`TauLeapPolicy` (approximate SSA firing
  Poisson batches of reactions per leap) — while the step bound,
  trajectory recording and ``stop_when`` predicates live once in the core.

Every bound stepper exposes one method, ``advance``, which fires events until
its budget is spent, the run falls silent, ``max_time`` passes, or the
quiescence window converges.  The exact steppers own that loop outright: one
tight Python loop per burst draws the reaction, applies its ``net_terms``,
refreshes the affected flags or propensities, and tracks the output count
(``max_output``, ``last_output``, ``unchanged_for``) inline, with the
``CompiledCRN`` tables and the generator's bound methods held in locals —
no Python call per event beyond the draws themselves.  The core keeps
``max_steps``, trajectories and ``stop_when``, and sets each burst's budget
from them: the steps left, 1 under ``stop_when``, the events left until the
next trajectory record.  Tau-leaping fires a whole Poisson batch per
scheduler iteration and observes the output only at leap boundaries; its
exact fallback is one call to the embedded Gillespie stepper's ``advance``.

The fair stepper also fires *forced stretches* in one step.  On large inputs
most of a fair run has one applicable reaction ``j`` (once the smaller input
of ``add``, ``max`` or ``min`` is used up, the rest drains through one
reaction).  The stepper then fires the ``m`` events of ``j`` after which no
flag can change, where ``m`` is the smallest of: the budget less one; for
each species ``j`` consumes, the firings that keep it at or above ``j``'s own
threshold; for each species ``j`` produces, the firings that keep it below
the next threshold above its count among the other reactions consuming it;
and, when ``j`` leaves the output unchanged, the events left in the
quiescence window less one.  The limits are exact because a falling count
cannot make an inapplicable reaction applicable, and every other reaction is
inapplicable.  The stretch makes the same draws as ``m`` single events, in a
tight loop (``getrandbits(1)`` until it reads 0, the inlined ``choice()``
over one index, or one ``random()`` for a positive weight), applies ``j``'s
net change times ``m`` once, adds ``|deps(j)|`` per event to
``propensity_ops`` as the per-event loop does, and advances
``unchanged_for`` in closed form.  The event that ends the stretch goes
through the per-event loop, which refreshes the flags and, when ``j`` moves
the output, records it.  A non-forced event pays one extra int compare.
The :class:`KernelRunResult` distinguishes ``steps`` (reaction events fired)
from ``selections`` (scheduler iterations); for exact policies the two are
equal, while a tau-leap run collapses thousands of events into a handful of
leaps.  Every run also carries a uniform :class:`repro.obs.stats.RunStats`
block (``result.stats``: events, selections, propensity_ops, rng_draws,
wall_s) — the counters are locals folded into plain per-stepper ints once
per burst, or, for draws that come at a fixed number per fired event, a
class constant ``rng_draws_per_event`` folded in once per run.  The random
stream and the seeded draw order are untouched, and the disabled-tracing
overhead stays inside the ≤ 2% bench ceiling
(``benchmarks/test_bench_obs.py``).

Seeding / reproducibility policy
--------------------------------

The kernel consumes a :class:`random.Random` generator with *exactly* the
draw order of the legacy loops: Gillespie draws ``expovariate(total)`` then
``random()`` per step; the fair policy draws one ``choice()`` (unbiased) or
one ``random()`` (biased) per step over the ascending applicable indices
(the kept list equals the one the legacy loop rebuilt every step), and
propensities are multiplied in each reaction's own term order.  The fair
stepper makes the ``choice()`` draw inline — ``Random.choice``'s own
rejection draw over ``getrandbits(n.bit_length())`` — so it consumes the
same bits; ``tests/test_kernel.py`` checks the two agree.  Seeded runs
therefore reproduce the historical scalar simulators bit for bit —
``tests/test_kernel.py`` locks this against the frozen legacy implementation
in :mod:`repro.sim._reference`.  The one documented divergence: a
:class:`FairPolicy` bias function is evaluated once per reaction per run (it
is static in every in-repo use), not once per step, so a *stateful* bias
callable would observe fewer calls than under the legacy scheduler.
"""

from __future__ import annotations

import math
import random
import sys
import time as _time
from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.crn.configuration import Configuration
from repro.crn.species import Species
from repro.obs.stats import RunStats
from repro.obs.trace import get_tracer
from repro.sim.engine import CompiledCRN
from repro.sim.tau import build_g_candidates, g_factor, is_critical, select_tau
from repro.sim.trajectory import Trajectory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crn.network import CRN
    from repro.crn.reaction import Reaction


def default_quiescence_window(x: Sequence[int]) -> int:
    """The default quiescence window, scaled with the input population.

    Catalytic CRNs never fall silent, so convergence is detected by the output
    count staying unchanged for this many consecutive steps.  This is the
    single definition shared by the scalar kernel, the runner entry points,
    and the vectorized engines (it used to be duplicated per call site).
    """
    population = sum(int(v) for v in x) + 2
    return max(200, 50 * population)


@dataclass
class KernelRunResult:
    """Result of one :meth:`SimulatorCore.run` — the union of what the two
    scalar result dataclasses need, so the compatibility shims are pure field
    mappings."""

    final_configuration: Configuration
    steps: int
    silent: bool
    """True if the run ended because no reaction was applicable."""
    converged: bool
    """True if the run stopped because the output was quiescent for the window."""
    final_time: float
    """Simulated time (Gillespie clocks); 0.0 under time-free policies."""
    max_output_seen: int
    """The maximum output count observed at any point during the run.

    Under a batch-firing policy (tau-leaping) the output is only observed at
    leap boundaries, so an intra-leap peak can be missed; exact policies
    observe every step.
    """
    trajectory: Optional[Trajectory] = None
    selections: int = 0
    """Scheduler iterations: equal to ``steps`` for exact policies, the number
    of leaps / fallback bursts for a batch-firing policy."""
    stats: Optional[RunStats] = None
    """The uniform :class:`repro.obs.stats.RunStats` counter block (events,
    selections, propensity_ops, rng_draws, wall_s) — populated by
    :meth:`SimulatorCore.run` for every policy, including tau-leaping."""


class StepPolicy:
    """A scheduling strategy for :class:`SimulatorCore`.

    A policy owns reaction *selection* (and, for kinetic policies, the clock)
    and the per-event loop; the core owns the counts, the step bound,
    trajectory recording and ``stop_when``.  ``bind`` returns a fresh
    single-run stepper; policy objects themselves are stateless and reusable.

    The bound stepper protocol:

    * ``start(counts)`` builds the stepper's state from the dense counts and
      resets its run state: ``time_now`` (0.0), the output tracking
      ``max_output`` / ``last_output`` / ``unchanged_for``, and the ``silent``
      / ``converged`` flags;
    * ``advance(counts, budget, max_time, window) -> events`` fires events,
      mutating ``counts`` in place, until ``budget`` events have fired, the
      run falls silent (sets ``silent``), the clock passes ``max_time``
      (clamps ``time_now`` to it), or the output has been unchanged for
      ``window`` consecutive events (sets ``converged``; ``window == 0``
      disables the detector); it returns the number of events fired;
    * ``selections``, ``propensity_ops``, ``rng_draws`` and
      ``rng_draws_per_event`` feed :class:`repro.obs.stats.RunStats`.
    """

    #: Whether the policy advances simulated time (enables ``max_time``).
    uses_time: bool = False

    def bind(self, compiled: CompiledCRN, rng: random.Random):
        """Return a bound per-run stepper exposing ``start`` / ``advance``."""
        raise NotImplementedError


class GillespiePolicy(StepPolicy):
    """Exact SSA (Gillespie 1977 direct method) over the compiled IR.

    Per step: total propensity summed in reaction order, an exponential
    waiting time, then a propensity-proportional reaction choice — the same
    draws, in the same order, as the legacy ``GillespieSimulator`` loop.
    Propensities are refreshed incrementally through the dependency graph.
    """

    uses_time = True

    def bind(self, compiled: CompiledCRN, rng: random.Random) -> "_GillespieStepper":
        return _GillespieStepper(compiled, rng)


class FairPolicy(StepPolicy):
    """Rate-agnostic fair scheduling: a random applicable reaction per step.

    ``bias`` optionally maps a reaction to a nonnegative weight; applicable
    reactions are then chosen proportionally to their weight (falling back to
    the uniform choice when every applicable reaction weighs zero).  The bias
    is evaluated once per reaction when a run starts — see the module
    docstring for how this relates to the legacy scheduler.
    """

    def __init__(self, bias: Optional[Callable[["Reaction"], float]] = None) -> None:
        self.bias = bias

    def bind(self, compiled: CompiledCRN, rng: random.Random) -> "_FairStepper":
        weights = None
        if self.bias is not None:
            # max(..., 0.0) mirrors the legacy _choose clamp, including its
            # int-preserving behaviour (max(3, 0.0) stays an int).
            weights = [max(self.bias(rxn), 0.0) for rxn in compiled.crn.reactions]
        return _FairStepper(compiled, rng, weights)


#: The quiescence limit when the window is off: no run fires this many events.
_NO_WINDOW = sys.maxsize


class _Stepper:
    """Run state shared by the built-in steppers: the output tracking and the
    stop flags, reset by ``start`` and carried across ``advance`` calls (the
    core cuts a run into several bursts under ``stop_when`` or a
    trajectory)."""

    __slots__ = (
        "compiled",
        "rng",
        "max_output",
        "last_output",
        "unchanged_for",
        "silent",
        "converged",
        "selections",
    )

    def __init__(self, compiled: CompiledCRN, rng: random.Random) -> None:
        self.compiled = compiled
        self.rng = rng
        self.selections = 0

    def _reset_run(self, counts: List[int]) -> None:
        self.max_output = self.last_output = counts[self.compiled.output_index]
        self.unchanged_for = 0
        self.silent = self.converged = False


class _GillespieStepper(_Stepper):
    """Single-run Gillespie state: the propensity vector, kept incrementally."""

    __slots__ = ("props", "propensity_ops", "rng_draws", "time_now")

    #: RNG draws per fired event (see ``rng_draws``): exponential waiting
    #: time plus the propensity-proportional choice.
    rng_draws_per_event = 2

    def __init__(self, compiled: CompiledCRN, rng: random.Random) -> None:
        super().__init__(compiled, rng)
        self.props: List[float] = []
        self.time_now = 0.0
        #: Propensity values computed or read while scheduling (see
        #: benchmarks/test_bench_simulators.py): the full vector at ``start``,
        #: then per event the whole vector (the total-rate sum; the choice
        #: scan prefix is not counted, which undercounts) plus ``|deps(j)|``
        #: recomputes.  ``advance`` counts in a local and folds it in once.
        self.propensity_ops = 0
        #: Calls into the ``random.Random`` stream *not* covered by the
        #: per-event constant above — i.e. the lone expovariate consumed by a
        #: step that then passes ``max_time``.  The direct method's draw count
        #: is otherwise a constant 2 per fired event, so the hot path carries
        #: no counter at all; :meth:`SimulatorCore.run` folds
        #: ``rng_draws + rng_draws_per_event * events`` into RunStats.  The
        #: stream itself is never wrapped, so seeded runs stay bit-identical
        #: (RunStats contract).
        self.rng_draws = 0

    def _propensity(self, r: int, counts: List[int]) -> float:
        # Bit-identical to Reaction.propensity: start from the rate constant
        # and multiply binomial coefficients in the reaction's own term order.
        # ``advance`` inlines the same arithmetic for the dependents.
        p = self.compiled.rate_list[r]
        for s, k in self.compiled.reactant_terms[r]:
            n = counts[s]
            if n < k:
                return 0.0
            p *= n if k == 1 else math.comb(n, k)
        return p

    def start(self, counts: List[int]) -> None:
        self.props = [
            self._propensity(r, counts) for r in range(self.compiled.n_reactions)
        ]
        self.propensity_ops += len(self.props)
        self.time_now = 0.0
        self._reset_run(counts)

    def advance(
        self, counts: List[int], budget: int, max_time: float, window: int
    ) -> int:
        """Fire up to ``budget`` direct-method events (see :class:`StepPolicy`).

        A waiting time that crosses ``max_time`` clamps the clock and ends
        the burst; its expovariate is drawn all the same, as in the legacy
        loop.
        """
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
        ops = 0
        fired = 0
        while fired < budget and time_now < max_time:
            total = sum(props)
            if total <= 0.0:
                ops += n_props  # the fired events' sums are folded in below
                self.silent = True
                break
            time_now += expovariate(total)
            if time_now > max_time:
                ops += n_props
                self.rng_draws += 1  # drawn but no event fired; see rng_draws_per_event
                time_now = max_time
                break
            choice = uniform() * total
            cumulative = 0.0
            for j, a in enumerate(props):
                cumulative += a
                if choice <= cumulative:
                    if a <= 0.0:
                        # Only reachable when random() returns exactly 0.0
                        # with a leading zero-propensity reaction; the legacy
                        # loop then fired it through Reaction.apply, which
                        # raises.
                        raise ValueError(
                            f"reaction {compiled.crn.reactions[j]} is not "
                            f"applicable (zero propensity)"
                        )
                    break
            else:
                # Numerical edge case (choice exceeded the accumulated total
                # by an ulp): fall back to the last positive propensity.
                j = next(r for r in range(n_props - 1, -1, -1) if props[r] > 0.0)
            for s, delta in net_terms[j]:
                counts[s] += delta
            dependents = dependency_graph[j]
            ops += len(dependents)
            for r in dependents:
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
        self.propensity_ops += ops + n_props * fired
        self.selections += fired
        return fired

    def propensities(self) -> Tuple[float, ...]:
        """A snapshot of the incrementally-maintained propensity vector."""
        return tuple(self.props)


class _FairStepper(_Stepper):
    """Single-run fair-scheduler state: the applicability flags and the
    ascending list of applicable indices, both kept incrementally."""

    __slots__ = ("weights", "app", "applicable", "propensity_ops")

    #: RNG draws per fired event: one ``choice()`` (unbiased, or biased with
    #: every applicable weight zero) or one ``random()`` (biased).  A silent
    #: step draws nothing, so, unlike the kinetic steppers, this one needs
    #: no draw counter of its own; :meth:`SimulatorCore.run` folds the
    #: constant.
    rng_draws_per_event = 1
    rng_draws = 0
    #: The scheduler has no clock.
    time_now = 0.0

    def __init__(
        self,
        compiled: CompiledCRN,
        rng: random.Random,
        weights: Optional[List[float]],
    ) -> None:
        super().__init__(compiled, rng)
        self.weights = weights
        #: Applicability evaluations — the fair scheduler's analogue of the
        #: kinetic steppers' propensity work, counted under the same name so
        #: :class:`repro.obs.stats.RunStats` is uniform across policies.
        self.propensity_ops = 0
        self.app: List[bool] = []
        #: The indices ``j`` with ``app[j]`` set, ascending: the list the
        #: legacy loop rebuilt every step, so a ``choice`` over it makes the
        #: same draw.  ``advance`` edits it only when a flag flips.
        self.applicable: List[int] = []

    def start(self, counts: List[int]) -> None:
        # Every reactant coefficient is at least 1, so only a reader of a
        # nonzero species can be applicable, besides the reactant-free ones.
        reactant_terms = self.compiled.reactant_terms
        readers = self.compiled.readers
        app = [not terms for terms in reactant_terms]
        for s, c in enumerate(counts):
            if c:
                for r in readers[s]:
                    for t, k in reactant_terms[r]:
                        if counts[t] < k:
                            break
                    else:
                        app[r] = True
        self.app = app
        self.applicable = [j for j, flag in enumerate(app) if flag]
        self.propensity_ops += len(app)
        self._reset_run(counts)

    def advance(
        self, counts: List[int], budget: int, max_time: float, window: int
    ) -> int:
        """Fire up to ``budget`` fair events (see :class:`StepPolicy`).

        After each event only the readers of a species that crossed a
        threshold are rechecked, and ``applicable`` is edited only for the
        flags that flip (about one per step on the paper's CRNs).  A forced
        stretch (one applicable reaction) fires in one step, less its last
        event, which takes the per-event path below (see the module
        docstring).  The scheduler has no clock, so ``max_time`` is the
        core's to check.
        """
        compiled = self.compiled
        app = self.app
        applicable = self.applicable
        weights = self.weights
        reactant_terms = compiled.reactant_terms
        net_terms = compiled.net_terms
        n_dependents = compiled.n_dependents
        crossings = compiled.crossings
        forced_limits = compiled.forced_limits
        output_index = compiled.output_index
        getrandbits = self.rng.getrandbits
        uniform = self.rng.random
        limit = window or _NO_WINDOW
        max_output = self.max_output
        last_output = self.last_output
        unchanged = self.unchanged_for
        ops = 0
        fired = 0
        while fired < budget:
            n = len(applicable)
            if n == 1:
                # Forced: m more events of j flip no flag and keep the run
                # going, so fire them at once, making the same draws.
                j = applicable[0]
                drains, fills, keeps_output = forced_limits[j]
                m = budget - fired - 1
                if keeps_output and limit - unchanged - 1 < m:
                    m = limit - unchanged - 1
                for s, k, d in drains:
                    c = (counts[s] - k) // d
                    if c < m:
                        m = c
                for s, d, thresholds in fills:
                    c = counts[s]
                    for k in thresholds:
                        if k > c:
                            c = (k - c - 1) // d
                            if c < m:
                                m = c
                            break
                if m > 0:
                    if weights is None or weights[j] <= 0:
                        for _ in range(m):
                            while getrandbits(1):
                                pass
                    else:
                        for _ in range(m):
                            uniform()
                    for s, delta in net_terms[j]:
                        counts[s] += delta * m
                    ops += n_dependents[j] * m
                    fired += m
                    # If j moves the output, the stretch's last event, fired
                    # below, resets the tracking (the output is monotone in a
                    # stretch, so its end holds any new maximum).
                    if keeps_output:
                        unchanged += m
            elif not n:
                self.silent = True
                break
            total = 0 if weights is None else sum(weights[j] for j in applicable)
            if total <= 0:
                # Unbiased, or every applicable weight zero: Random.choice's
                # draw, inlined (its _randbelow_with_getrandbits), so the
                # stream consumes the same bits.
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                j = applicable[r]
            else:
                pick = uniform() * total
                cumulative = 0.0
                for j in applicable:
                    cumulative += weights[j]
                    if pick <= cumulative:
                        break
                else:
                    j = applicable[-1]
            for s, delta in net_terms[j]:
                counts[s] += delta
            ops += n_dependents[j]
            for s, bar, rs in crossings[j]:
                if counts[s] < bar:
                    for r in rs:
                        for t, k in reactant_terms[r]:
                            if counts[t] < k:
                                if app[r]:
                                    app[r] = False
                                    applicable.remove(r)
                                break
                        else:
                            if not app[r]:
                                app[r] = True
                                insort(applicable, r)
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
        self.max_output = max_output
        self.last_output = last_output
        self.unchanged_for = unchanged
        self.propensity_ops += ops
        self.selections += fired
        return fired

    def applicability(self) -> Tuple[bool, ...]:
        """A snapshot of the incrementally-maintained applicability flags."""
        return tuple(self.app)


class TauLeapPolicy(StepPolicy):
    """Approximate SSA via tau-leaping (Cao–Gillespie–Petzold 2006 selection).

    When propensities are quasi-constant over an interval ``tau``, the number
    of times each reaction fires in that interval is approximately Poisson
    with mean ``a_j * tau``, so a whole batch of firings can be sampled per
    scheduler iteration instead of one.  ``tau`` is chosen so that no
    propensity is expected to drift by more than a fraction ``epsilon`` of the
    total rate (the largest-relative-change bound of Cao, Gillespie & Petzold,
    *J. Chem. Phys.* 124, 044109 (2006), computed species-wise from the IR's
    sparse ``reactant_terms`` / ``net_terms``).

    Safety rails, in the order they engage:

    * **exact fallback** — when the selected leap would contain fewer than
      ``n_critical`` expected firings, leaping buys nothing and risks bias, so
      the stepper runs a burst of ``exact_burst`` exact Gillespie steps
      instead (via the same incremental-propensity machinery as
      :class:`GillespiePolicy`).  Small populations therefore degrade
      gracefully to exact SSA.
    * **negative-population rejection** — a sampled leap that would drive any
      species count negative is discarded and retried with ``tau`` halved;
      after ``max_rejections`` halvings (or once the halved leap drops under
      ``n_critical`` expected firings) the stepper falls back to an exact
      burst, so the rejection loop always terminates and counts never go
      negative.

    ``epsilon`` is the single error knob: smaller values mean smaller leaps
    and a closer match to the exact CTMC, at proportionally more scheduler
    iterations.  Runs are *statistically* (not bit-for-bit) equivalent to
    exact SSA — ``tests/test_statistical_equivalence.py`` gates this with
    two-sample Kolmogorov–Smirnov tests against the exact engines.
    """

    uses_time = True

    def __init__(
        self,
        epsilon: float = 0.03,
        n_critical: float = 10.0,
        exact_burst: int = 100,
        max_rejections: int = 30,
    ) -> None:
        from repro.api.config import validate_epsilon

        epsilon = validate_epsilon(epsilon)
        if n_critical <= 0:
            raise ValueError(f"n_critical must be positive, got {n_critical!r}")
        if exact_burst < 1:
            raise ValueError(f"exact_burst must be >= 1, got {exact_burst!r}")
        if max_rejections < 1:
            raise ValueError(f"max_rejections must be >= 1, got {max_rejections!r}")
        self.epsilon = float(epsilon)
        self.n_critical = float(n_critical)
        self.exact_burst = int(exact_burst)
        self.max_rejections = int(max_rejections)

    def bind(self, compiled: CompiledCRN, rng: random.Random) -> "_TauLeapStepper":
        return _TauLeapStepper(compiled, rng, self)


#: Sentinel ``_leap`` results (event counts are always >= 0).
_SILENT = -1
_TIMED_OUT = -2


class _TauLeapStepper(_Stepper):
    """Single-run tau-leap state: an exact stepper for propensities/fallback,
    plus the precomputed per-species highest-order-reaction data for tau
    selection."""

    __slots__ = (
        "time_now",
        "policy",
        "exact",
        "g_candidates",
        "leaps",
        "exact_events",
        "rejections",
        "poisson_draws",
    )

    def __init__(
        self, compiled: CompiledCRN, rng: random.Random, policy: TauLeapPolicy
    ) -> None:
        super().__init__(compiled, rng)
        self.time_now = 0.0
        self.policy = policy
        # The exact stepper is both the propensity store (full recompute after
        # a leap, incremental dependency-graph updates inside exact bursts)
        # and the fallback engine.
        self.exact = _GillespieStepper(compiled, rng)
        # Per reactant species: the distinct (reaction order, own coefficient)
        # pairs over reactions consuming it, for the g_i factor of the tau
        # bound (shared with the batched engine via repro.sim.tau).
        self.g_candidates: Dict[int, Tuple[Tuple[int, int], ...]] = (
            build_g_candidates(compiled.reactant_terms)
        )
        #: Diagnostics (test hooks): leap / exact-burst / rejection counters.
        self.leaps = 0
        self.exact_events = 0
        self.rejections = 0
        #: Uniform draws consumed by :meth:`_poisson` (the leap sampler's
        #: share of the run's rng_draws; the embedded exact stepper keeps its
        #: own counter for the fallback bursts).
        self.poisson_draws = 0

    # Uniform RunStats counters: the embedded exact stepper carries the
    # propensity work (full recomputes after each leap, incremental updates
    # inside bursts, the per-leap total-rate read) and the fallback draws;
    # the leap sampler's Poisson draws are added on top.
    rng_draws_per_event = 0
    @property
    def propensity_ops(self) -> int:
        return self.exact.propensity_ops

    @property
    def rng_draws(self) -> int:
        # exact_events scales the embedded stepper's per-event draw constant
        # (its hot path carries no counter; see _GillespieStepper.rng_draws).
        return (
            self.exact.rng_draws
            + self.exact.rng_draws_per_event * self.exact_events
            + self.poisson_draws
        )

    # -- tau selection ---------------------------------------------------------

    def _g(self, s: int, x: int) -> float:
        """The highest-order-reaction factor g_i of Cao et al. (2006)."""
        return g_factor(self.g_candidates.get(s, ((1, 1),)), x)

    def select_tau(self, counts: List[int]) -> float:
        """The largest leap over which no propensity should drift by more than
        ``epsilon`` relatively (species-wise mean/variance bound).

        Delegates to the shared scalar form in :mod:`repro.sim.tau` — the
        same float ops in the same order as the pre-refactor inline loop, so
        seeded ``engine="tau"`` streams are bit-for-bit unchanged.
        """
        return select_tau(
            self.g_candidates,
            self.compiled.net_terms,
            self.exact.props,
            counts,
            self.policy.epsilon,
        )

    # -- Poisson sampling ------------------------------------------------------

    def _poisson(self, lam: float) -> int:
        """A Poisson(lam) draw from the run's ``random.Random`` stream.

        Knuth's multiplication method below lam = 10; Hörmann's transformed
        rejection (PTRS, 1993) above it, which needs O(1) draws at any lam
        (the multiplication method needs O(lam) draws and underflows its
        ``exp(-lam)`` threshold past lam ~ 745).
        """
        rng = self.rng
        if lam <= 0.0:
            return 0
        if lam < 10.0:
            threshold = math.exp(-lam)
            k = 0
            product = rng.random()
            while product > threshold:
                k += 1
                product *= rng.random()
            self.poisson_draws += k + 1
            return k
        log_lam = math.log(lam)
        b = 0.931 + 2.53 * math.sqrt(lam)
        a = -0.059 + 0.02483 * b
        inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
        v_r = 0.9277 - 3.6224 / (b - 2.0)
        while True:
            u = rng.random() - 0.5
            v = rng.random()
            self.poisson_draws += 2
            us = 0.5 - abs(u)
            k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= v_r:
                return int(k)
            if k < 0 or (us < 0.013 and v > us):
                continue
            if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= (
                k * log_lam - lam - math.lgamma(k + 1.0)
            ):
                return int(k)

    # -- the stepper protocol --------------------------------------------------

    def start(self, counts: List[int]) -> None:
        self.exact.start(counts)
        self.time_now = 0.0
        self._reset_run(counts)

    def advance(
        self, counts: List[int], budget: int, max_time: float, window: int
    ) -> int:
        """Fire leaps (or exact bursts) until ``budget`` events have fired
        (see :class:`StepPolicy`).

        The output is observed once per leap: ``max_output`` can miss an
        intra-leap peak, the quiescence window counts whole leaps' events,
        and a call may overshoot ``budget`` by at most one leap.
        """
        output_index = self.compiled.output_index
        limit = window or _NO_WINDOW
        fired = 0
        while fired < budget and self.time_now < max_time:
            events, self.time_now = self._leap(counts, self.time_now, max_time)
            if events < 0:
                if events == _SILENT:
                    self.silent = True
                break
            fired += events
            self.selections += 1
            current = counts[output_index]
            if current > self.max_output:
                self.max_output = current
            if current == self.last_output:
                self.unchanged_for += events
            else:
                self.unchanged_for = 0
                self.last_output = current
            if self.unchanged_for >= limit:
                self.converged = True
                break
        return fired

    def _leap(
        self, counts: List[int], time_now: float, max_time: float
    ) -> Tuple[int, float]:
        """Fire one leap (or one exact burst); returns ``(events, new_time)``.

        ``counts`` is mutated in place.  ``events`` is ``_SILENT`` when no
        reaction can fire and ``_TIMED_OUT`` when the clock crosses
        ``max_time`` before anything fires; a zero-event leap (possible when
        the clamped leap is short) advances only the clock.
        """
        policy = self.policy
        props = self.exact.props
        # The leap scheduler reads the whole vector (total rate + tau bound);
        # counted once per leap, mirroring the direct method's per-event
        # accounting, so tau's propensity work is comparable across engines.
        self.exact.propensity_ops += len(props)
        total = sum(props)
        if total <= 0.0:
            return _SILENT, time_now
        tau = self.select_tau(counts)
        if math.isinf(tau):
            # No reactant species ever changes (purely catalytic kinetics):
            # propensities are constant, so any leap is exact w.r.t. the
            # rates.  Bound the batch so step budgets stay meaningful.
            tau = 1000.0 / total
        if is_critical(tau, total, policy.n_critical):
            return self._exact_burst(counts, time_now, max_time)
        if time_now + tau > max_time:
            tau = max_time - time_now
            if tau <= 0.0:
                return _TIMED_OUT, max_time
        net_terms = self.compiled.net_terms
        for _ in range(policy.max_rejections):
            events = 0
            deltas: Dict[int, int] = {}
            for j, a in enumerate(props):
                if a <= 0.0:
                    continue
                k = self._poisson(a * tau)
                if k:
                    events += k
                    for s, delta in net_terms[j]:
                        deltas[s] = deltas.get(s, 0) + delta * k
            if all(counts[s] + delta >= 0 for s, delta in deltas.items()):
                time_now += tau
                if events:
                    for s, delta in deltas.items():
                        counts[s] += delta
                    # A leap can change many species at once; recompute the
                    # whole propensity vector (amortized over `events` firings).
                    self.exact.start(counts)
                    self.leaps += 1
                return events, time_now
            self.rejections += 1
            tau /= 2.0
            if is_critical(tau, total, policy.n_critical):
                break
        return self._exact_burst(counts, time_now, max_time)

    def _exact_burst(
        self, counts: List[int], time_now: float, max_time: float
    ) -> Tuple[int, float]:
        """Up to ``exact_burst`` exact SSA steps through the embedded stepper.

        A burst that ends early reports the events it fired; the next leap
        re-detects silence / timeout and returns the sentinel.
        """
        exact = self.exact
        exact.time_now = time_now
        events = exact.advance(counts, self.policy.exact_burst, max_time, 0)
        self.exact_events += events
        if events:
            return events, exact.time_now
        return (_SILENT if exact.silent else _TIMED_OUT), exact.time_now

    def propensities(self) -> Tuple[float, ...]:
        """A snapshot of the current propensity vector (test hook)."""
        return tuple(self.exact.props)


class SimulatorCore:
    """The scalar run driver: a :class:`StepPolicy` stepper fires the events.

    Parameters
    ----------
    crn:
        The network to simulate (a :class:`~repro.crn.network.CRN`, compiled
        lazily and cached on the network) or an existing
        :class:`~repro.sim.engine.CompiledCRN`.
    policy:
        The scheduling strategy (:class:`GillespiePolicy`,
        :class:`FairPolicy`, or a third-party :class:`StepPolicy`).
    rng:
        Optional :class:`random.Random` for reproducibility; draw order per
        step matches the legacy scalar simulators (see the module docstring).
    """

    def __init__(
        self,
        crn: "CRN | CompiledCRN",
        policy: StepPolicy,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.compiled = crn if isinstance(crn, CompiledCRN) else crn.compiled()
        self.crn = self.compiled.crn
        self.policy = policy
        self.rng = rng or random.Random()

    # -- encoding --------------------------------------------------------------

    def _encode(self, initial: Configuration) -> Tuple[List[int], Dict[Species, int]]:
        """Dense counts plus a passthrough dict for out-of-network species.

        The legacy dict-backed simulators carried species the network never
        mentions through a run untouched (no reaction can consume them); the
        kernel preserves that by re-merging them into every decoded
        configuration.
        """
        counts = [0] * self.compiled.n_species
        extras: Dict[Species, int] = {}
        index = self.compiled.index
        for sp, count in initial.items():
            i = index.get(sp)
            if i is None:
                extras[sp] = count
            else:
                counts[i] = count
        return counts, extras

    def _decode(self, counts: List[int], extras: Dict[Species, int]) -> Configuration:
        merged = {sp: counts[i] for sp, i in self.compiled.index.items() if counts[i] > 0}
        if extras:
            merged.update(extras)
        return Configuration(merged)

    # -- the step loop ---------------------------------------------------------

    def run(
        self,
        initial: Configuration,
        max_steps: int = 1_000_000,
        max_time: float = math.inf,
        quiescence_window: int = 0,
        track: Sequence[Species] = (),
        record_every: int = 1,
        stop_when: Optional[Callable[[Configuration], bool]] = None,
    ) -> KernelRunResult:
        """Advance from ``initial`` until silence, quiescence, a bound, or ``stop_when``.

        Parameters
        ----------
        max_steps / max_time:
            Upper bounds on reactions fired / simulated time (``max_time``
            only binds under a clock-bearing policy such as
            :class:`GillespiePolicy`).
        quiescence_window:
            If positive, stop (``converged``) once the output count has been
            unchanged for this many consecutive steps while reactions kept
            firing — the convergence detector for CRNs that never fall silent.
        track / record_every:
            Species recorded into a :class:`~repro.sim.trajectory.Trajectory`,
            sampled every ``record_every`` reaction events.
        stop_when:
            Optional predicate on the current configuration, checked before
            each step (each event-firing leap under tau-leaping); the run
            stops as soon as it returns True.
        """
        t0_unix = _time.time()
        t0 = _time.perf_counter()
        counts, extras = self._encode(initial)
        stepper = self.policy.bind(self.compiled, self.rng)
        stepper.start(counts)
        advance = stepper.advance
        uses_time = self.policy.uses_time

        steps = 0
        trajectory = Trajectory(track) if track else None
        last_recorded = 0
        if trajectory is not None:
            trajectory.record(0.0, 0, self._decode(counts, extras))

        # The stepper fires whole bursts; the core cuts one short only where
        # it must look at the run: one event per stop_when check, and the
        # events left until the next trajectory record.  A batch-firing
        # stepper may overshoot a budget (and so max_steps) by one leap.
        while steps < max_steps and stepper.time_now < max_time:
            if stop_when is not None:
                if stop_when(self._decode(counts, extras)):
                    break
                budget = 1
            else:
                budget = max_steps - steps
            if trajectory is not None:
                budget = min(budget, max(1, last_recorded + record_every - steps))
            steps += advance(counts, budget, max_time, quiescence_window)
            if trajectory is not None and steps - last_recorded >= record_every:
                last_recorded = steps
                trajectory.record(
                    stepper.time_now if uses_time else float(steps),
                    steps,
                    self._decode(counts, extras),
                )
            if stepper.silent or stepper.converged:
                break

        time_now = stepper.time_now
        silent = stepper.silent
        converged = stepper.converged
        selections = stepper.selections
        if trajectory is not None and (
            len(trajectory) == 0 or trajectory[-1].step != steps
        ):
            trajectory.record(
                time_now if uses_time else float(steps),
                steps,
                self._decode(counts, extras),
            )
        stats = RunStats(
            events=steps,
            selections=selections,
            propensity_ops=stepper.propensity_ops,
            rng_draws=stepper.rng_draws + stepper.rng_draws_per_event * steps,
            wall_s=_time.perf_counter() - t0,
        )
        # Tracing is a single emit of timings already measured above; when the
        # global tracer is disabled (the default) this is one bool check.
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit_span(
                "kernel.run",
                t0_unix,
                stats.wall_s,
                policy=type(self.policy).__name__,
                events=steps,
                selections=selections,
                propensity_ops=stats.propensity_ops,
                rng_draws=stats.rng_draws,
                silent=silent,
                converged=converged,
            )
        return KernelRunResult(
            final_configuration=self._decode(counts, extras),
            steps=steps,
            silent=silent,
            converged=converged,
            final_time=time_now,
            max_output_seen=stepper.max_output,
            trajectory=trajectory,
            selections=selections,
            stats=stats,
        )

    def run_on_input(self, x: Sequence[int], **kwargs) -> KernelRunResult:
        """Run from the CRN's initial configuration for input ``x``."""
        return self.run(self.crn.initial_configuration(x), **kwargs)

    def __repr__(self) -> str:
        return (
            f"SimulatorCore({self.compiled!r}, "
            f"policy={type(self.policy).__name__})"
        )
