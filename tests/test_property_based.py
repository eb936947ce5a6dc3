"""Property-based tests (hypothesis) for core data structures and invariants."""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crn.configuration import Configuration
from repro.crn.network import CRN
from repro.crn.reachability import check_stable_computation_at
from repro.crn.reaction import Reaction
from repro.crn.species import Species, species
from repro.core.construction_1d import build_1d_crn
from repro.core.construction_quilt import build_quilt_affine_crn
from repro.core.impossibility import find_contradiction_witness
from repro.quilt.fitting import fit_eventually_quilt_affine_1d
from repro.quilt.quilt_affine import QuiltAffine, all_residues
from repro.sim.kernel import FairPolicy, SimulatorCore, TauLeapPolicy


SPECIES_POOL = species("A B C D")

counts_strategy = st.dictionaries(
    st.sampled_from(SPECIES_POOL), st.integers(min_value=0, max_value=20), max_size=4
)


class TestConfigurationAlgebra:
    @given(counts_strategy, counts_strategy)
    def test_addition_commutes(self, a, b):
        assert Configuration(a) + Configuration(b) == Configuration(b) + Configuration(a)

    @given(counts_strategy, counts_strategy, counts_strategy)
    def test_addition_associates(self, a, b, c):
        x, y, z = Configuration(a), Configuration(b), Configuration(c)
        assert (x + y) + z == x + (y + z)

    @given(counts_strategy, counts_strategy)
    def test_subtraction_inverts_addition(self, a, b):
        x, y = Configuration(a), Configuration(b)
        assert (x + y) - y == x

    @given(counts_strategy, counts_strategy, counts_strategy)
    def test_order_is_additive(self, a, b, c):
        # The reachability-additivity precondition used throughout the paper:
        # A <= B implies A + C <= B + C.
        x, y, z = Configuration(a), Configuration(b), Configuration(c)
        if x <= y:
            assert x + z <= y + z

    @given(counts_strategy)
    def test_zero_is_identity(self, a):
        x = Configuration(a)
        assert x + Configuration.zero() == x


class TestQuiltAffineInvariants:
    @st.composite
    def quilt_functions(draw):
        dimension = draw(st.integers(min_value=1, max_value=2))
        period = draw(st.integers(min_value=1, max_value=3))
        gradient = tuple(
            Fraction(draw(st.integers(min_value=0, max_value=6)), period) for _ in range(dimension)
        )
        base = {
            residue: Fraction(draw(st.integers(min_value=0, max_value=4)))
            for residue in all_residues(dimension, period)
        }
        # Force nondecreasing offsets by construction: take a running maximum cap.
        try:
            return QuiltAffine(gradient, period, base, validate=True)
        except ValueError:
            return None

    @given(quilt_functions())
    @settings(suppress_health_check=[HealthCheck.filter_too_much], max_examples=40)
    def test_valid_quilts_are_nondecreasing_pointwise(self, quilt):
        if quilt is None:
            return
        for x1 in range(4):
            point = (x1,) if quilt.dimension == 1 else (x1, 2)
            step = tuple(v + 1 for v in point)
            assert quilt(step) >= quilt(point)

    @given(quilt_functions(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    @settings(suppress_health_check=[HealthCheck.filter_too_much], max_examples=40)
    def test_translation_consistency(self, quilt, a, b):
        if quilt is None:
            return
        shift = (a,) if quilt.dimension == 1 else (a, b)
        translated = quilt.translate(shift)
        probe = (2,) if quilt.dimension == 1 else (2, 1)
        assert translated(probe) == quilt(tuple(p + s for p, s in zip(probe, shift)))


class TestFittingRoundTrip:
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_fit_recovers_eventually_periodic_functions(self, prefix_deltas, cycle_deltas):
        # Build f from nonnegative finite differences: a prefix followed by a repeated cycle.
        def func(x):
            total = 0
            for step in range(x):
                if step < len(prefix_deltas):
                    total += prefix_deltas[step]
                else:
                    total += cycle_deltas[(step - len(prefix_deltas)) % len(cycle_deltas)]
            return total

        structure = fit_eventually_quilt_affine_1d(func, max_start=12, max_period=8)
        for x in range(16):
            assert structure.value(x) == func(x)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_theorem_31_construction_on_random_functions(self, cycle_deltas, offset):
        def func(x):
            total = offset
            for step in range(x):
                total += cycle_deltas[step % len(cycle_deltas)]
            return total

        crn = build_1d_crn(func)
        value = 4
        verdict = check_stable_computation_at(crn, (value,), func(value), max_configurations=20_000)
        assert verdict.conclusive and verdict.holds


class TestSimulationAgreement:
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_min_crn_fair_runs_always_reach_min(self, a, b):
        X1, X2, Y = species("X1 X2 Y")
        crn = CRN([X1 + X2 >> Y], (X1, X2), Y)
        core = SimulatorCore(crn, FairPolicy(), rng=random.Random(a * 31 + b))
        result = core.run_on_input((a, b))
        assert result.silent
        assert result.final_configuration[Y] == min(a, b)

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_quilt_construction_matches_function_under_simulation(self, value):
        quilt = QuiltAffine.floor_linear((3,), 2)
        crn = build_quilt_affine_crn(quilt)
        core = SimulatorCore(crn, FairPolicy(), rng=random.Random(value))
        result = core.run_on_input((value,))
        assert result.silent
        assert crn.output_count(result.final_configuration) == (3 * value) // 2


@st.composite
def random_crns(draw, allow_noops=False):
    """A random CRN over the species pool: 1-5 mass-action reactions with
    random (<= bimolecular) reactant/product sides and rates.

    ``allow_noops=True`` keeps catalytic no-op reactions (lhs == rhs) instead
    of skipping them — the dependency-graph properties need the zero-net-change
    edge case, while the tau-leaping invariants skip no-ops because they only
    stall the clock.
    """
    n_reactions = draw(st.integers(min_value=1, max_value=5))
    reactions = []
    for _ in range(n_reactions):
        reactant_pool = draw(
            st.lists(st.sampled_from(SPECIES_POOL), min_size=1, max_size=2)
        )
        product_pool = draw(
            st.lists(st.sampled_from(SPECIES_POOL), min_size=0, max_size=2)
        )
        lhs = {}
        for sp in reactant_pool:
            lhs[sp] = lhs.get(sp, 0) + 1
        rhs = {}
        for sp in product_pool:
            rhs[sp] = rhs.get(sp, 0) + 1
        if lhs == rhs and not allow_noops:
            continue  # skip pure no-ops; they only stall the clock
        rate = draw(st.floats(min_value=0.25, max_value=4.0))
        reactions.append(Reaction(lhs, rhs, rate=rate))
    if not reactions:
        return None
    inputs = tuple(SPECIES_POOL[:2])
    return CRN(reactions, inputs, SPECIES_POOL[2])


class TestTauLeapKernelInvariants:
    """Tau-leaping over random small CRNs: the kernel's safety rails hold for
    arbitrary reaction structure, not just the curated construction families."""

    @given(
        random_crns(),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_leaps_never_drive_counts_negative(self, crn, a, b, seed):
        # Drive the stepper protocol directly and inspect the raw dense
        # counts after every advance: the decoded Configuration drops
        # nonpositive entries, so it could never witness a negative count.
        if crn is None:
            return
        import math

        compiled = crn.compiled()
        stepper = TauLeapPolicy(epsilon=0.1).bind(compiled, random.Random(seed))
        counts = list(compiled.encode(crn.initial_configuration((a, b))))
        stepper.start(counts)
        fired = 0
        while fired < 5_000 and not stepper.silent:
            fired += stepper.advance(counts, 1, math.inf, 0)
            assert all(count >= 0 for count in counts), counts

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_conservative_reactions_conserve_mass(self, a, b, seed):
        # Every reaction maps 2 molecules to 2 molecules, so the total count
        # is invariant under any schedule — including whole Poisson leaps.
        A, B, C, D = SPECIES_POOL
        crn = CRN(
            [A + B >> C + D, C + D >> A + B, (A + C >> B + D).with_rate(2.0)],
            (A, B),
            C,
        )
        core = SimulatorCore(crn, TauLeapPolicy(epsilon=0.1), rng=random.Random(seed))
        result = core.run_on_input((a, b), max_steps=3_000)
        total = sum(count for _, count in result.final_configuration.items())
        assert total == a + b

    @given(
        random_crns(),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_tau_fallback_always_terminates(self, crn, a, b, seed):
        # The rejection loop halves tau at most max_rejections times and then
        # falls back to bounded exact bursts, so a run always returns within
        # its budgets (overshooting max_steps by at most one leap).
        if crn is None:
            return
        policy = TauLeapPolicy(epsilon=0.05, max_rejections=3, exact_burst=16)
        core = SimulatorCore(crn, policy, rng=random.Random(seed))
        result = core.run_on_input((a, b), max_steps=2_000, quiescence_window=500)
        # With max_time unbounded the loop has exactly three exits: silence,
        # quiescence, or the step budget (possibly overshot by one leap).
        assert result.silent or result.converged or result.steps >= 2_000
        if result.steps:
            assert result.selections >= 1


class TestDependencyGraphProperties:
    """``CompiledCRN.dependency_graph`` vs brute force on random CRNs.

    The graph is the load-bearing structure of every incremental stepper
    (Gillespie, fair): if an edge is missing, a stale propensity can
    survive a firing and silently bias the sampled kinetics.  The semantic
    property below is the actual soundness requirement — any reaction whose
    propensity *can* change when ``j`` fires must be among ``j``'s dependents
    — and the structural property pins the (slightly stronger) definition the
    IR promises: reactant set intersects ``j``'s net-change support.
    """

    @given(random_crns(allow_noops=True))
    @settings(max_examples=60, deadline=None)
    def test_structural_brute_force(self, crn):
        if crn is None:
            return
        compiled = crn.compiled()
        for j, fired in enumerate(crn.reactions):
            changed = set(fired.net_changes())
            expected = tuple(
                r
                for r, rxn in enumerate(crn.reactions)
                if changed & set(rxn.reactants.counts)
            )
            assert compiled.dependency_graph[j] == expected, (crn.reactions, j)

    @given(
        random_crns(allow_noops=True),
        st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_semantic_completeness(self, crn, raw_counts):
        # Soundness of incremental updates: fire j from a random
        # configuration; every reaction whose propensity moved must be a
        # registered dependent of j.
        if crn is None:
            return
        before = Configuration(dict(zip(SPECIES_POOL, raw_counts)))
        for j, fired in enumerate(crn.reactions):
            if not fired.applicable(before):
                continue
            after = fired.apply(before)
            deps = set(crn.compiled().dependency_graph[j])
            for r, rxn in enumerate(crn.reactions):
                if rxn.propensity(before) != rxn.propensity(after):
                    assert r in deps, (
                        f"propensity of reaction {r} ({rxn}) changed when "
                        f"{j} ({fired}) fired, but {r} is not a dependent"
                    )

    def test_zero_net_change_reactions_have_no_dependents(self):
        # A catalytic no-op changes nothing, so it can invalidate no
        # propensity — not even its own (Gibson-Bruck's "no self edge unless
        # the reaction changes its own reactants").
        A, B, C, D = SPECIES_POOL
        crn = CRN([A + B >> A + B, A >> C], (A, B), C)
        compiled = crn.compiled()
        assert compiled.net_terms[0] == ()
        assert compiled.dependency_graph[0] == ()

    def test_self_dependency_when_own_reactants_change(self):
        # 2A -> A consumes its own reactant, so it must depend on itself;
        # A -> A + C leaves A untouched, so it must not.
        A, B, C, D = SPECIES_POOL
        crn = CRN([A + A >> A, A >> A + C], (A, B), C)
        compiled = crn.compiled()
        assert 0 in compiled.dependency_graph[0]
        assert 1 not in compiled.dependency_graph[1]
        # ...but 2A -> A changes A, which reaction 1 consumes: edge 0 -> 1.
        assert 1 in compiled.dependency_graph[0]

    @given(
        random_crns(allow_noops=True),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_propensities_stay_exact(self, crn, a, b, seed):
        # The dependency graph in action: along a direct-method run over an
        # arbitrary random network, the incrementally-refreshed propensity
        # vector always equals a from-scratch recomputation.
        if crn is None:
            return
        import math

        from repro.sim.kernel import GillespiePolicy

        compiled = crn.compiled()
        stepper = GillespiePolicy().bind(compiled, random.Random(seed))
        counts = list(compiled.encode(crn.initial_configuration((a, b))))
        stepper.start(counts)
        for _ in range(60):
            if not stepper.advance(counts, 1, math.inf, 0):
                break
            assert all(count >= 0 for count in counts), counts
            fresh = GillespiePolicy().bind(compiled, random.Random(0))
            fresh.start(counts)
            assert stepper.propensities() == fresh.propensities()


class TestWitnessSearchSoundness:
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_no_witness_for_linear_functions(self, slope, offset):
        # Affine functions are obliviously-computable, so the bounded Lemma 4.1
        # search must never find a witness for them.
        witness = find_contradiction_witness(
            lambda x: slope * x[0] + offset * x[1], 2, direction_bound=1, offset_bound=2, terms=3
        )
        assert witness is None


class TestBatchTauLeapInvariants:
    """The batched tau-leap engine's safety rails on random CRNs, plus
    scalar-vs-batched agreement of the shared CGP tau bound.

    The batched engine reimplements the scalar tau machinery in dense numpy;
    these properties pin the pieces the statistical gates cannot isolate —
    nonnegativity after whole Poisson leaps, conservation-law preservation,
    termination of the rejection/fallback cascade, and the tau bound itself
    agreeing with the scalar form on arbitrary reaction structure.
    """

    @given(
        random_crns(),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_leaps_never_drive_counts_negative(self, crn, a, b, seed):
        # The per-trial rejection rail: whatever the sampled Poisson firing
        # counts, the accepted raw dense counts are never negative.
        if crn is None:
            return
        from repro.sim.engine import BatchTauLeapEngine

        engine = BatchTauLeapEngine(crn.compiled(), seed=seed, epsilon=0.1)
        result = engine.run_on_input((a, b), batch=5, max_steps=5_000)
        assert (result.counts >= 0).all()
        assert (result.steps >= 0).all()

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_conservative_reactions_conserve_mass_batched(self, a, b, seed):
        # Every reaction maps 2 molecules to 2 molecules, so the per-row
        # total is invariant under whole Poisson leaps and fallback bursts.
        from repro.sim.engine import BatchTauLeapEngine

        A, B, C, D = SPECIES_POOL
        crn = CRN(
            [A + B >> C + D, C + D >> A + B, (A + C >> B + D).with_rate(2.0)],
            (A, B),
            C,
        )
        result = BatchTauLeapEngine(crn.compiled(), seed=seed, epsilon=0.1).run_on_input(
            (a, b), batch=4, max_steps=3_000
        )
        assert (result.counts.sum(axis=1) == a + b).all()

    @given(
        random_crns(),
        st.lists(st.integers(min_value=0, max_value=400), min_size=4, max_size=4),
        st.floats(min_value=0.01, max_value=0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_batched_tau_bounds_agree(self, crn, raw_counts, epsilon):
        # Same propensity vector in, same CGP bound out — up to float
        # summation order (sparse dict accumulation vs dense matmul), hence
        # approx rather than exact equality.  Catalytic rows must be inf in
        # both forms.
        if crn is None:
            return
        import math

        import numpy as np

        from repro.sim.tau import build_g_candidates, select_tau, select_tau_batch

        compiled = crn.compiled()
        row = [int(v) for v in raw_counts[: compiled.n_species]]
        counts = np.array([row], dtype=np.int64)
        props = compiled.propensities(counts)
        g_candidates = build_g_candidates(compiled.reactant_terms)
        scalar = select_tau(
            g_candidates,
            compiled.net_terms,
            [float(v) for v in props[0]],
            row,
            epsilon,
        )
        batched = select_tau_batch(
            g_candidates,
            compiled.net_terms,
            compiled.n_species,
            np.repeat(props, 3, axis=0),
            np.repeat(counts, 3, axis=0),
            epsilon,
        )
        assert batched.shape == (3,)
        for value in batched:
            if math.isinf(scalar):
                assert math.isinf(value), (crn.reactions, row)
            else:
                assert math.isclose(float(value), scalar, rel_tol=1e-9), (
                    crn.reactions,
                    row,
                )

    @given(
        random_crns(),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_fallback_always_terminates(self, crn, a, b, seed):
        # Tight rails (few rejections, tiny exact bursts) still terminate:
        # every run ends in silence, quiescence, or the step budget
        # (overshot by at most one leap per trial).
        if crn is None:
            return
        from repro.sim.engine import BatchTauLeapEngine

        engine = BatchTauLeapEngine(
            crn.compiled(), seed=seed, epsilon=0.05, max_rejections=3, exact_burst=16
        )
        result = engine.run_on_input(
            (a, b), batch=4, max_steps=2_000, quiescence_window=500
        )
        done = result.silent | result.converged | (result.steps >= 2_000)
        assert done.all(), (result.silent, result.converged, result.steps)
