"""Vectorized batch simulation engine: many trajectories per numpy step.

The scalar kernel (:class:`repro.sim.kernel.SimulatorCore`) advances one
trajectory at a time under a :class:`~repro.sim.kernel.StepPolicy`.  One
trajectory at a time is ideal for adversarial schedules and trajectory
inspection, but kinetic benchmarks and the repeated-run evidence gathered by
:mod:`repro.verify.stable` want many independent trajectories, which is this
module's job.

* :class:`CompiledCRN` compiles a :class:`~repro.crn.network.CRN` once into
  the single IR shared with the scalar kernel (:mod:`repro.sim.kernel`): a
  fixed species ordering, the output-species index, per-reaction sparse term
  lists and the reaction dependency graph, all plain Python tuples.  The
  dense stoichiometry matrices and rate vector the batch engines read are
  built on first access, and numpy is imported only where it is used, so a
  process that runs only the scalar kernel never loads it.
* :class:`BatchGillespieEngine` advances ``B`` independent Gillespie
  trajectories simultaneously: propensities are computed as a ``(B, R)``
  matrix using binomial-coefficient mass-action kinetics, exponential waiting
  times and reaction choices are sampled per row, and finished or silent rows
  are masked out of subsequent steps.
* :class:`BatchFairEngine` is the rate-independent counterpart: each row fires
  a uniformly random (or statically biased) applicable reaction, with the same
  per-row quiescence-window convergence detection as the scalar
  :class:`~repro.sim.kernel.FairPolicy`.
* :class:`BatchTauLeapEngine` compounds the batch layout with tau-leaping:
  every active row advances one Cao–Gillespie–Petzold leap per round (batched
  Poisson firing counts, per-trial rejection/tau-halving, per-trial exact
  fallback under the shared ``n_critical`` rule of :mod:`repro.sim.tau`).

The three engines share one lockstep driver (``_BatchEngineBase._drive``):
each supplies only the round that advances its active rows, and the
Gillespie round and tau's exact fallback are the same direct-method step.

See ``DESIGN.md`` for the architecture and the seeding / reproducibility
policy, ``tests/test_engine.py`` for the scalar-vs-vectorized equivalence
suite and the seeded batch stream pins, and ``tests/test_kernel.py`` for the
scalar kernel suite and the registry-level engine locks.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.crn.configuration import Configuration
from repro.crn.species import Species
from repro.obs.stats import RunStats
from repro.obs.trace import get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network imports us lazily)
    import numpy as np

    from repro.crn.network import CRN
    from repro.crn.reaction import Reaction

#: The members built on first access; a pickle drops them with ``fair_fire``.
_DENSE = ("reactants", "products", "net", "rates")


class CompiledCRN:
    """The compiled form of a :class:`~repro.crn.network.CRN`.

    The compilation fixes the species ordering (sorted by name, matching
    ``CRN.species()``) and builds, at construction and in plain Python, the
    tables the scalar kernel reads:

    ``output_index``
        Column index of the designated output species.
    ``rate_list``
        The rate constants as plain python floats (scalar-kernel hot loop).
    ``reactant_terms``
        Per-reaction sparse ``(species_index, coefficient)`` reactant lists, in
        each reaction's own ``reactants.counts`` iteration order so the scalar
        kernel reproduces :meth:`repro.crn.reaction.Reaction.propensity`
        bit for bit (float multiplication is not associative).
    ``net_terms``
        Per-reaction sparse ``(species_index, delta)`` net-change lists; firing
        a reaction is ``counts[s] += delta`` over its terms.
    ``readers``
        Per species ``s``, the reactions that have ``s`` as a reactant,
        ascending.
    ``dependency_graph``
        Gibson–Bruck-style reaction dependency graph: entry ``j`` lists the
        reactions whose reactant multiset shares a species with the species
        *changed* by reaction ``j`` (the net-change support), i.e. the union of
        ``readers[s]`` over ``j``'s net-term species, ascending.  After firing
        ``j``, only those propensities / applicability flags can change, so the
        Gillespie stepper recomputes exactly that set.  A catalytic no-op
        reaction (empty net change) has no dependents — not even itself.
        ``n_dependents[j]`` is its length.
    ``crossings``
        Per reaction ``j``, one ``(s, bar, readers[s])`` per net-term species
        ``s`` of ``j`` that has readers.  With ``kmax`` the largest reactant
        coefficient on ``s``, ``bar`` is ``kmax`` when ``j`` consumes ``s``
        and ``kmax + delta`` when it produces ``delta``: after ``j`` fires, a
        term ``(s, k)`` can have changed truth only if the new count is below
        ``bar`` (the fair stepper's crossing rule; see
        :mod:`repro.sim.kernel`).
    ``forced_limits``
        Per reaction ``j``, what bounds a *forced stretch* of ``j`` (a run of
        events in which ``j`` is the only applicable reaction; see
        :mod:`repro.sim.kernel`): ``drains``, one ``(species_index, own
        coefficient, units consumed per firing)`` per species ``j`` net-
        consumes; ``fills``, one ``(species_index, units produced per firing,
        thresholds)`` per species ``j`` net-produces that some reaction
        consumes, the thresholds being the distinct coefficients of the
        reactions consuming it, ascending (``j``'s own never lies above the
        count while ``j`` is applicable); and ``keeps_output``, whether firing
        ``j`` leaves the output count unchanged.
    ``fair_fire``
        ``None`` until the first fair run on this instance; then one
        generated function per reaction that fires it and updates the fair
        stepper's flags (see :mod:`repro.sim.kernel`).  Not pickled: a copy
        generates its own.

    The dense numpy members the batch engines read (``reactants`` /
    ``products`` / ``net``, ``(R, S)`` int64, and ``rates``, ``(R,)``
    float64) are built on first access and cached on the instance.  A pickle
    drops them with ``fair_fire``, so it never carries an ndarray.

    This is the single IR shared by the scalar kernel
    (:mod:`repro.sim.kernel`) and the vectorized batch engines below.
    Compile once per network and reuse: :meth:`repro.crn.network.CRN.compiled`
    caches the instance on the CRN.
    """

    def __init__(self, crn: "CRN") -> None:
        self.crn = crn
        self.species: Tuple[Species, ...] = crn.species()
        self.index: Dict[Species, int] = {sp: i for i, sp in enumerate(self.species)}
        n_species = len(self.species)
        self.rate_list: Tuple[float, ...] = tuple(rxn.rate for rxn in crn.reactions)
        self.output_index = self.index[crn.output_species]
        # Per-reaction sparse term lists.  ``reactant_terms`` preserves the
        # reaction's own dict order (the order Reaction.propensity multiplies
        # in); ``_terms`` is the same content sorted by species index, used by
        # the batch engines, which is much cheaper than broadcasting full
        # (B, R, S) intermediates.
        self.reactant_terms: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple((self.index[sp], count) for sp, count in rxn.reactants.counts.items())
            for rxn in crn.reactions
        )
        self._terms: List[Tuple[Tuple[int, int], ...]] = [
            tuple(sorted(terms)) for terms in self.reactant_terms
        ]
        self.net_terms: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple(sorted((self.index[sp], d) for sp, d in rxn.net_changes().items()))
            for rxn in crn.reactions
        )
        readers: List[List[int]] = [[] for _ in range(n_species)]
        thresholds: Dict[int, set] = {}
        for r, terms in enumerate(self.reactant_terms):
            for s, k in terms:
                readers[s].append(r)
                thresholds.setdefault(s, set()).add(k)
        self.readers: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, readers))
        self.dependency_graph: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted({r for s, _ in terms for r in readers[s]}))
            for terms in self.net_terms
        )
        self.n_dependents: Tuple[int, ...] = tuple(map(len, self.dependency_graph))
        self.crossings: Tuple[Tuple[Tuple[int, int, Tuple[int, ...]], ...], ...] = tuple(
            tuple(
                (s, max(thresholds[s]) + max(delta, 0), self.readers[s])
                for s, delta in terms
                if s in thresholds
            )
            for terms in self.net_terms
        )
        ascending = {s: tuple(sorted(ks)) for s, ks in thresholds.items()}
        forced = []
        for j, terms in enumerate(self.net_terms):
            own = dict(self.reactant_terms[j])
            drains = tuple((s, own[s], -delta) for s, delta in terms if delta < 0)
            fills = tuple(
                (s, delta, ascending[s]) for s, delta in terms if delta > 0 and s in ascending
            )
            keeps_output = all(s != self.output_index for s, _ in terms)
            forced.append((drains, fills, keeps_output))
        self.forced_limits: Tuple[tuple, ...] = tuple(forced)
        self.fair_fire: Optional[Tuple[Callable, ...]] = None

    def __getstate__(self) -> Dict[str, Any]:
        # Generated functions do not pickle; the copy regenerates them, and
        # rebuilds the dense members, on first use.
        state = {k: v for k, v in self.__dict__.items() if k not in _DENSE}
        state["fair_fire"] = None
        return state

    # -- dense members (first access imports numpy) ----------------------------

    def _dense(self, terms: Sequence[Tuple[Tuple[int, int], ...]]) -> np.ndarray:
        import numpy as np

        matrix = np.zeros((self.n_reactions, self.n_species), dtype=np.int64)
        for r, row in enumerate(terms):
            for s, k in row:
                matrix[r, s] = k
        return matrix

    @cached_property
    def reactants(self) -> np.ndarray:
        """``(R, S)`` integer reactant stoichiometry matrix."""
        return self._dense(self._terms)

    @cached_property
    def net(self) -> np.ndarray:
        """``(R, S)`` net change matrix, ``products - reactants``."""
        return self._dense(self.net_terms)

    @cached_property
    def products(self) -> np.ndarray:
        """``(R, S)`` integer product stoichiometry matrix."""
        return self.reactants + self.net

    @cached_property
    def rates(self) -> np.ndarray:
        """``(R,)`` float vector of mass-action rate constants."""
        import numpy as np

        return np.array(self.rate_list, dtype=np.float64)

    # -- shape accessors -----------------------------------------------------

    @property
    def n_species(self) -> int:
        """Number of species columns ``S``."""
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        """Number of reaction rows ``R``."""
        return len(self.crn.reactions)

    # -- encoding / decoding ---------------------------------------------------

    def encode(self, config: Configuration) -> np.ndarray:
        """Encode a sparse configuration as a dense ``(S,)`` count vector."""
        import numpy as np

        vector = np.zeros(self.n_species, dtype=np.int64)
        for sp, count in config.items():
            try:
                vector[self.index[sp]] = count
            except KeyError:
                raise ValueError(
                    f"species {sp.name!r} does not occur in the compiled network"
                ) from None
        return vector

    def encode_batch(self, config: Configuration, batch: int) -> np.ndarray:
        """Tile one configuration into a ``(batch, S)`` matrix of row copies."""
        if batch < 1:
            raise ValueError(f"batch size must be positive, got {batch}")
        return self.encode(config)[None, :].repeat(batch, axis=0)

    def decode(self, vector: Sequence[int]) -> Configuration:
        """Decode one dense ``(S,)`` count vector back into a configuration."""
        return Configuration(
            {sp: int(vector[i]) for sp, i in self.index.items() if vector[i] > 0}
        )

    # -- vectorized kinetics ---------------------------------------------------

    def propensities(self, counts: np.ndarray) -> np.ndarray:
        """Mass-action propensities as a ``(B, R)`` matrix.

        ``counts`` is a ``(B, S)`` batch of configurations.  Row ``b``, column
        ``r`` is ``rate_r * prod_s C(counts[b, s], reactants[r, s])`` — the
        same binomial-coefficient form as
        :meth:`repro.crn.reaction.Reaction.propensity`, zero whenever a
        reactant is under-supplied.
        """
        import numpy as np

        counts = np.atleast_2d(counts)
        out = np.broadcast_to(self.rates, (counts.shape[0], self.n_reactions)).copy()
        for r, terms in enumerate(self._terms):
            for s, coefficient in terms:
                n = counts[:, s].astype(np.float64)
                if coefficient == 1:
                    out[:, r] *= n
                else:
                    # Falling-factorial form of C(n, k); hits an exact zero
                    # factor whenever n < k, so no clamping is needed.
                    for j in range(coefficient):
                        out[:, r] *= (n - j) / (j + 1)
        return out

    def applicable(self, counts: np.ndarray) -> np.ndarray:
        """Boolean ``(B, R)`` applicability matrix (all reactants present)."""
        import numpy as np

        counts = np.atleast_2d(counts)
        out = np.ones((counts.shape[0], self.n_reactions), dtype=bool)
        for r, terms in enumerate(self._terms):
            for s, coefficient in terms:
                out[:, r] &= counts[:, s] >= coefficient
        return out

    def __repr__(self) -> str:
        return (
            f"CompiledCRN({self.crn.name or '(unnamed)'}, "
            f"R={self.n_reactions}, S={self.n_species})"
        )


@dataclass
class BatchRunResult:
    """Result of advancing a batch of ``B`` independent trajectories.

    All per-trajectory fields are numpy arrays of length ``B``; ``counts`` is
    the ``(B, S)`` matrix of final configurations in the compiled species
    ordering.  ``times`` is only populated by the clock-bearing engines
    (Gillespie and tau-leap) and ``converged`` only by the engines with a
    quiescence detector (fair and tau-leap); the fields are all-False /
    ``None`` otherwise.  ``stats`` is the uniform whole-batch
    :class:`~repro.obs.stats.RunStats` block, currently populated by the
    tau-leap engine (``None`` for the single-firing engines, whose counters
    are derivable from ``steps``).
    """

    compiled: CompiledCRN
    counts: np.ndarray
    steps: np.ndarray
    silent: np.ndarray
    converged: np.ndarray
    max_output_seen: np.ndarray
    times: Optional[np.ndarray] = None
    stats: Optional[RunStats] = None

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def batch(self) -> int:
        """The number of trajectories ``B``."""
        return self.counts.shape[0]

    def output_counts(self) -> np.ndarray:
        """Final output-species counts, one per trajectory."""
        return self.counts[:, self.compiled.output_index]

    def configuration(self, row: int) -> Configuration:
        """The final configuration of trajectory ``row`` as a sparse object."""
        return self.compiled.decode(self.counts[row])

    def configurations(self) -> List[Configuration]:
        """All final configurations as sparse objects."""
        return [self.configuration(row) for row in range(self.batch)]

    def all_silent_or_converged(self) -> bool:
        """True if every trajectory ended in silence or detected quiescence."""
        return bool((self.silent | self.converged).all())

    def total_steps(self) -> int:
        """Total reaction events fired across the whole batch."""
        return int(self.steps.sum())


class _BatchEngineBase:
    """Shared compilation / seeding plumbing and the lockstep driver.

    Every batch engine is one :meth:`_drive` loop over its active rows; an
    engine supplies only the ``advance`` round that moves those rows.
    """

    def __init__(
        self,
        crn: "CRN | CompiledCRN",
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        import numpy as np

        self.compiled = crn if isinstance(crn, CompiledCRN) else CompiledCRN(crn)
        self.crn = self.compiled.crn
        if rng is not None and seed is not None:
            raise ValueError("pass either seed or rng, not both")
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def run_on_input(self, x: Sequence[int], batch: int = 1, **kwargs) -> BatchRunResult:
        """Advance ``batch`` trajectories from the initial configuration for ``x``."""
        return self.run(self.crn.initial_configuration(x), batch=batch, **kwargs)

    def _drive(
        self,
        initial: Configuration,
        batch: int,
        max_steps: int,
        quiescence_window: int,
        advance: Callable[..., Tuple[np.ndarray, "np.ndarray | int"]],
        clock: bool,
    ) -> BatchRunResult:
        """Run ``advance`` rounds over the active rows until none is left.

        ``advance(counts, times, rows, active, silent)`` moves the active
        ``rows`` one round, clearing ``active`` (and setting ``silent``) for
        the rows it finishes itself, and returns the rows it advanced with
        the events each fired.  The driver then books those rows: ``steps``,
        the output maximum, the quiescence window (counted in events, so a
        leap of ``k`` firings advances it by ``k``) and the ``max_steps``
        cut.  ``times`` is ``None`` unless ``clock``.  A network with no
        reactions is silent everywhere, like a scalar run.
        """
        import numpy as np

        output_index = self.compiled.output_index
        counts = self.compiled.encode_batch(initial, batch)
        steps = np.zeros(batch, dtype=np.int64)
        times = np.zeros(batch, dtype=np.float64) if clock else None
        converged = np.zeros(batch, dtype=bool)
        max_output = counts[:, output_index].copy()
        last_output = max_output.copy()
        unchanged_for = np.zeros(batch, dtype=np.int64)
        active = np.full(batch, self.compiled.n_reactions > 0)
        silent = ~active

        while True:
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            rows, events = advance(counts, times, rows, active, silent)
            steps[rows] += events
            current = counts[rows, output_index]
            max_output[rows] = np.maximum(max_output[rows], current)
            if quiescence_window:
                same = current == last_output[rows]
                unchanged_for[rows] = np.where(same, unchanged_for[rows] + events, 0)
                last_output[rows] = current
                quiescent = rows[unchanged_for[rows] >= quiescence_window]
                converged[quiescent] = True
                active[quiescent] = False
            active[rows[steps[rows] >= max_steps]] = False

        return BatchRunResult(
            compiled=self.compiled,
            counts=counts,
            steps=steps,
            silent=silent,
            converged=converged,
            max_output_seen=max_output,
            times=times,
        )

    def _pick(self, cumulative: np.ndarray) -> np.ndarray:
        """One column per row of ``cumulative`` by an inverse-CDF draw.

        Picks are drawn from ``(0, total]`` with the total read off the last
        column (a separate ``sum()`` can disagree with ``cumsum`` by an ulp);
        counting the entries strictly below the pick therefore always lands
        on a column with positive weight, never a leading zero column and
        never past the end, mirroring the scalar kernel's guard.
        """
        picks = (1.0 - self.rng.random(cumulative.shape[0])) * cumulative[:, -1]
        return (cumulative < picks[:, None]).sum(axis=1)

    def _gillespie_step(
        self,
        counts: np.ndarray,
        times: np.ndarray,
        rows: np.ndarray,
        max_time: float,
        stats: RunStats,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One direct-method firing on each of ``rows``.

        Mutates ``counts`` / ``times`` in place and returns the positions in
        ``rows`` that ``(fired, went_silent, timed_out)``.  A row whose next
        event would land past ``max_time`` fires nothing and has its clock
        clamped to ``max_time``.  ``stats`` counts the propensity evaluations
        and generator draws.
        """
        import numpy as np

        cumulative = np.cumsum(self.compiled.propensities(counts[rows]), axis=1)
        stats.propensity_ops += cumulative.size
        alive = cumulative[:, -1] > 0.0
        fired = np.flatnonzero(alive)
        # No row went silent or timed out is the common case: no index work.
        went_silent = timed_out = fired[:0]
        if fired.size < rows.size:
            went_silent = np.flatnonzero(~alive)
            cumulative = cumulative[fired]
        fired_rows = rows[fired]
        new_times = times[fired_rows] + (
            self.rng.standard_exponential(fired.size) / cumulative[:, -1]
        )
        stats.rng_draws += fired.size
        overtime = new_times > max_time
        if overtime.any():
            timed_out = fired[overtime]
            times[fired_rows[overtime]] = max_time
            keep = ~overtime
            fired, fired_rows = fired[keep], fired_rows[keep]
            cumulative, new_times = cumulative[keep], new_times[keep]
        stats.rng_draws += fired.size
        counts[fired_rows] += self.compiled.net[self._pick(cumulative)]
        times[fired_rows] = new_times
        return fired, went_silent, timed_out


class BatchGillespieEngine(_BatchEngineBase):
    """Vectorized Gillespie direct method over ``B`` independent trajectories.

    Statistically equivalent to ``B`` scalar runs under
    :class:`~repro.sim.kernel.GillespiePolicy` (same CTMC, different random
    streams); the equivalence suite in ``tests/test_engine.py`` checks
    identical stable outputs and matching step statistics against the scalar
    oracle.

    Parameters
    ----------
    crn:
        The network to simulate, or an already-compiled :class:`CompiledCRN`.
    seed / rng:
        Either an integer seed (fed to :func:`numpy.random.default_rng`) or an
        explicit generator.  Mutually exclusive.
    """

    def run(
        self,
        initial: Configuration,
        batch: int = 1,
        max_steps: int = 1_000_000,
        max_time: float = float("inf"),
    ) -> BatchRunResult:
        """Advance ``batch`` trajectories from ``initial`` until each is done.

        A trajectory finishes when it falls silent (total propensity zero),
        fires ``max_steps`` reactions, or passes ``max_time`` simulated time
        (its clock is then clamped to ``max_time``, mirroring the scalar
        simulator).
        """
        stats = RunStats()  # the result's counters are derivable from steps

        def advance(counts, times, rows, active, silent):
            fired, went_silent, timed_out = self._gillespie_step(
                counts, times, rows, max_time, stats
            )
            if went_silent.size:
                silent[rows[went_silent]] = True
                active[rows[went_silent]] = False
            if timed_out.size:
                active[rows[timed_out]] = False
            return rows[fired], 1

        return self._drive(initial, batch, max_steps, 0, advance, clock=True)


class BatchTauLeapEngine(_BatchEngineBase):
    """Vectorized tau-leaping: the whole batch advances one *leap* per round.

    This engine compounds the two biggest speedups in the repo: the batch
    engines' dense numpy kinetics (all trials advance per step) and the
    tau-leap scheduler-iteration collapse (many firings per step).  Each
    round, every active trial gets its own Cao–Gillespie–Petzold tau bound
    (via the shared helpers in :mod:`repro.sim.tau` — the *same* bound the
    scalar ``engine="tau"`` computes), fires a batched Poisson count per
    reaction, and applies the aggregate net change.

    The scalar stepper's safety rails carry over per trial:

    * **negative-population rejection** — a trial whose sampled leap would
      drive any species negative re-samples with its tau halved (other
      trials keep their accepted leaps); after ``max_rejections`` halvings
      it falls back to exact stepping for this round.
    * **exact fallback** (the shared ``n_critical`` rule) — trials whose
      leap would expect fewer than ``n_critical`` firings drop out of the
      leap and instead fire up to ``exact_burst`` single exact SSA events
      (the shared direct-method step, :meth:`_gillespie_step`, over just
      those rows), while the rest of the batch keeps leaping.  Small
      populations therefore degrade gracefully to the exact batch engine.

    Sampling uses the engine's ``numpy.random.Generator`` (batched
    ``rng.poisson`` / ``standard_exponential``), a stream unrelated to both
    the scalar engines' ``random.Random`` and the hand-rolled scalar Poisson
    sampler — runs are *statistically* (not bit-for-bit) equivalent to the
    exact engines, which ``tests/test_statistical_equivalence.py`` gates
    with two-sample KS tests exactly as it does for ``engine="tau"``.

    Parameters
    ----------
    crn:
        The network to simulate, or an already-compiled :class:`CompiledCRN`.
    seed / rng:
        Integer seed or explicit :class:`numpy.random.Generator` (exclusive).
    epsilon:
        The CGP relative-drift error knob (same default and validation as
        :class:`~repro.sim.kernel.TauLeapPolicy`).
    n_critical / exact_burst / max_rejections:
        The scalar policy's safety-rail knobs, applied per trial.
    """

    def __init__(
        self,
        crn: "CRN | CompiledCRN",
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        epsilon: float = 0.03,
        n_critical: float = 10.0,
        exact_burst: int = 100,
        max_rejections: int = 30,
    ) -> None:
        from repro.api.config import validate_epsilon
        from repro.sim.tau import BatchTauSelector, build_g_candidates

        super().__init__(crn, seed=seed, rng=rng)
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
        # Precompiled tau-selection data (shared math with the scalar stepper).
        self._selector = BatchTauSelector(
            build_g_candidates(self.compiled.reactant_terms), self.compiled.net
        )

    def run(
        self,
        initial: Configuration,
        batch: int = 1,
        max_steps: int = 1_000_000,
        max_time: float = float("inf"),
        quiescence_window: int = 0,
    ) -> BatchRunResult:
        """Advance ``batch`` trajectories until silence, quiescence, or a bound.

        Semantics mirror the scalar tau engine run through
        :class:`~repro.sim.kernel.SimulatorCore`: quiescence is detected at
        *leap* granularity (a leap that fires ``k`` events while the output
        is unchanged advances the window counter by ``k``), a trial may
        overshoot ``max_steps`` by at most one leap, and a trial whose clock
        would cross ``max_time`` has its final leap clamped to land exactly
        on it.
        """
        import numpy as np

        from repro.sim.tau import critical_mask

        t0_unix = _time.time()
        t0 = _time.perf_counter()
        compiled = self.compiled
        stats = RunStats()

        def advance(counts, times, rows, active, silent):
            stats.selections += 1  # one leap round
            props = compiled.propensities(counts[rows])
            stats.propensity_ops += props.size
            totals = props.sum(axis=1)
            alive = totals > 0.0
            silent[rows[~alive]] = True
            active[rows[~alive]] = False
            rows, props, totals = rows[alive], props[alive], totals[alive]

            tau = self._selector.select(props, counts[rows], self.epsilon)
            # Purely catalytic rows (no reactant species ever changes) get an
            # infinite bound; cap the batch so step budgets stay meaningful,
            # mirroring the scalar stepper's 1000-expected-firings cap.
            unbounded = np.isinf(tau)
            tau[unbounded] = 1000.0 / totals[unbounded]
            crit = critical_mask(tau, totals, self.n_critical)

            # Clamp leaping rows that would cross max_time; a non-positive
            # clamped leap means the row is already at the horizon.
            if np.isfinite(max_time):
                over = ~crit & (times[rows] + tau > max_time)
                tau = np.where(over, max_time - times[rows], tau)
                expired = over & (tau <= 0.0)
                times[rows[expired]] = max_time
                active[rows[expired]] = False
                keep = ~expired
                rows, props, totals = rows[keep], props[keep], totals[keep]
                tau, crit = tau[keep], crit[keep]

            events = np.zeros(rows.size, dtype=np.int64)

            # --- the leap: batched Poisson counts with per-trial rejection ---
            pending = np.flatnonzero(~crit)
            for _ in range(self.max_rejections):
                if pending.size == 0:
                    break
                lam = props[pending] * tau[pending, None]
                firings = self.rng.poisson(lam)
                stats.rng_draws += lam.size
                proposed = counts[rows[pending]] + firings @ compiled.net
                ok = (proposed >= 0).all(axis=1)
                accepted = pending[ok]
                counts[rows[accepted]] = proposed[ok]
                times[rows[accepted]] += tau[accepted]
                events[accepted] = firings[ok].sum(axis=1)
                pending = pending[~ok]
                tau[pending] /= 2.0
                now_critical = critical_mask(
                    tau[pending], totals[pending], self.n_critical
                )
                crit[pending[now_critical]] = True
                pending = pending[~now_critical]
            # Rows still rejecting after max_rejections halvings fall back.
            crit[pending] = True

            # --- exact fallback: single-firing SSA bursts for critical rows ---
            live = np.flatnonzero(crit)
            for _ in range(self.exact_burst):
                if live.size == 0:
                    break
                fired, went_silent, timed_out = self._gillespie_step(
                    counts, times, rows[live], max_time, stats
                )
                events[live[fired]] += 1
                # A row that goes silent mid-burst must leave the batch too,
                # or the next round would evaluate it again.
                silent[rows[live[went_silent]]] = True
                active[rows[live[went_silent]]] = False
                active[rows[live[timed_out]]] = False
                live = live[fired]

            if np.isfinite(max_time):
                active[rows[times[rows] >= max_time]] = False
            return rows, events

        result = self._drive(
            initial, batch, max_steps, quiescence_window, advance, clock=True
        )
        stats.events = result.total_steps()
        stats.wall_s = _time.perf_counter() - t0
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit_span(
                "engine.batch_tau.run",
                t0_unix,
                stats.wall_s,
                batch=batch,
                events=stats.events,
                selections=stats.selections,
            )
        result.stats = stats
        return result


class BatchFairEngine(_BatchEngineBase):
    """Vectorized fair scheduler: each row fires a random applicable reaction.

    The rate-independent counterpart of :class:`BatchGillespieEngine`, matching
    the semantics of :class:`~repro.sim.kernel.FairPolicy`: uniform choice
    among the applicable reactions (or a static per-reaction bias), optional
    per-row quiescence-window convergence detection for networks that never
    fall silent.

    Parameters
    ----------
    crn:
        The network to run, or an already-compiled :class:`CompiledCRN`.
    seed / rng:
        Integer seed or explicit :class:`numpy.random.Generator` (exclusive).
    bias:
        Optional weighting function mapping a reaction to a nonnegative
        weight, evaluated once per reaction at construction time (the scalar
        scheduler's biases — e.g. :func:`repro.sim.fair.output_producing_bias`
        — are static per reaction, so this loses no generality).
    """

    def __init__(
        self,
        crn: "CRN | CompiledCRN",
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        bias: Optional[Callable[["Reaction"], float]] = None,
    ) -> None:
        import numpy as np

        super().__init__(crn, seed=seed, rng=rng)
        if bias is None:
            self.weights = np.ones(self.compiled.n_reactions, dtype=np.float64)
        else:
            # Rows whose applicable reactions all get zero weight fall back to
            # the uniform choice inside run(), so no normalization is needed.
            self.weights = np.array(
                [max(float(bias(rxn)), 0.0) for rxn in self.crn.reactions],
                dtype=np.float64,
            )

    def run(
        self,
        initial: Configuration,
        batch: int = 1,
        max_steps: int = 1_000_000,
        quiescence_window: int = 0,
    ) -> BatchRunResult:
        """Advance ``batch`` trajectories until silence, quiescence, or the bound.

        ``quiescence_window`` matches :meth:`repro.sim.kernel.SimulatorCore.run`:
        if positive, a row stops (``converged``) once its output count has been
        unchanged for that many consecutive steps.
        """
        import numpy as np

        compiled = self.compiled

        def advance(counts, times, rows, active, silent):
            applicable = compiled.applicable(counts[rows])
            weighted = applicable * self.weights
            # Rows where the bias zeroes out every applicable reaction fall
            # back to the uniform choice, like the scalar scheduler.
            fallback = ~weighted.any(axis=1) & applicable.any(axis=1)
            if fallback.any():
                weighted[fallback] = applicable[fallback]
            cumulative = np.cumsum(weighted, axis=1)
            alive = cumulative[:, -1] > 0.0
            silent[rows[~alive]] = True
            active[rows[~alive]] = False
            rows = rows[alive]
            counts[rows] += compiled.net[self._pick(cumulative[alive])]
            return rows, 1

        return self._drive(
            initial, batch, max_steps, quiescence_window, advance, clock=False
        )
