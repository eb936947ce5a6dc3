"""The scalar simulation kernel: equivalence, dependency graph, and IR tests.

Three layers of protection for the dict-loop -> kernel rebase:

* **IR correctness** — the sparse term lists and the reaction dependency
  graph on :class:`~repro.sim.engine.CompiledCRN` match brute-force
  recomputation from the reactions themselves.
* **Bit-for-bit equivalence** — seeded ``SimulatorCore`` runs under
  ``GillespiePolicy`` / ``FairPolicy`` reproduce the frozen pre-kernel
  loops (:mod:`repro.sim._reference`) exactly: same final configuration, same
  step/time bookkeeping, same trajectories, across every construction
  strategy (known / 1d / leaderless / quilt / general).
* **Incrementality** — after firing reaction ``r``, the Gillespie stepper
  recomputes exactly the propensities of reactions sharing a species with
  the species ``r`` changed, the fair stepper rechecks the readers of the
  species that crossed a threshold, and the incrementally-maintained state
  always equals a from-scratch recomputation (for the fair flags: the
  applicability definition itself, every reactant present).
"""

import gc
import hashlib
import json
import linecache
import math
import os
import pickle
import random
import subprocess
import sys
import traceback
from types import SimpleNamespace

import pytest

from repro.core.characterization import build_crn_for
from repro.crn.configuration import Configuration
from repro.crn.network import CRN
from repro.crn.reaction import Reaction
from repro.crn.species import species
from repro.functions.catalog import (
    add_spec,
    double_spec,
    maximum_spec,
    minimum_spec,
    quilt_2d_fig3b_spec,
    threshold_capped_spec,
)
from repro.functions.extended import weighted_floor_spec
from repro.functions.paper_examples import fig7_spec
from repro.serve.protocol import canonical_json
from repro.sim._reference import ReferenceFairScheduler, ReferenceGillespieSimulator
from repro.sim.fair import output_consuming_bias, output_producing_bias
from repro.sim.engine import CompiledCRN
from repro.sim.kernel import (
    FairPolicy,
    GillespiePolicy,
    SimulatorCore,
    TauLeapPolicy,
    default_quiescence_window,
    fair_fire_sources,
    run_trials,
)
from repro.sim.runner import run_many


X1, X2, Y, Z = species("X1 X2 Y Z")


def build_strategy_cases():
    """(label, CRN, input) cases covering every construction strategy."""
    return [
        ("known/min", minimum_spec().known_crn, (4, 7)),
        ("known/max", maximum_spec().known_crn, (5, 3)),
        ("known/double", double_spec().known_crn, (6,)),
        ("1d/threshold", build_crn_for(threshold_capped_spec(), strategy="1d"), (5,)),
        ("leaderless/double", build_crn_for(double_spec(), strategy="leaderless"), (4,)),
        ("quilt/fig3b", build_crn_for(quilt_2d_fig3b_spec(), strategy="quilt"), (3, 2)),
        ("general/min", build_crn_for(minimum_spec(), strategy="general"), (3, 4)),
    ]


STRATEGY_CASES = build_strategy_cases()
STRATEGY_IDS = [label for label, _, _ in STRATEGY_CASES]

#: The campaign benchmark's specs, built as a campaign builds them, at tiny
#: inputs: the regime where about one applicability flag flips per step.
PAPER_CELL_CASES = [
    (spec.name, build_crn_for(spec, name=spec.name), x)
    for spec in (minimum_spec(), weighted_floor_spec(), fig7_spec(), quilt_2d_fig3b_spec())
    for x in ((4, 6), (8, 2))
]
PAPER_CELL_IDS = [f"{label}{x}" for label, _, x in PAPER_CELL_CASES]


def assert_same_gillespie(kernel_result, reference_result):
    assert kernel_result.final_configuration == reference_result.final_configuration
    assert kernel_result.final_time == reference_result.final_time
    assert kernel_result.steps == reference_result.steps
    assert kernel_result.silent == reference_result.silent


def assert_same_fair(kernel_result, reference_result):
    assert kernel_result.final_configuration == reference_result.final_configuration
    assert kernel_result.steps == reference_result.steps
    assert kernel_result.silent == reference_result.silent
    assert kernel_result.converged == reference_result.converged
    assert kernel_result.max_output_seen == reference_result.max_output_seen


def assert_same_trajectory(kernel_trajectory, reference_trajectory):
    assert kernel_trajectory is not None and reference_trajectory is not None
    assert len(kernel_trajectory) == len(reference_trajectory)
    for ours, theirs in zip(kernel_trajectory, reference_trajectory):
        assert (ours.time, ours.step, ours.counts) == (
            theirs.time,
            theirs.step,
            theirs.counts,
        )


def _assert_flags_by_definition(stepper, counts):
    """The fair stepper's kept flags and applicable list against the
    definition of applicability: every reactant present."""
    expected = [
        all(counts[s] >= k for s, k in terms)
        for terms in stepper.compiled.reactant_terms
    ]
    assert stepper.app == expected
    assert stepper.applicable == [r for r, flag in enumerate(expected) if flag]


class TestCompiledIRExtensions:
    def test_reactant_terms_follow_reaction_order(self):
        crn = maximum_spec().known_crn
        compiled = crn.compiled()
        for r, rxn in enumerate(crn.reactions):
            expected = tuple(
                (compiled.index[sp], count)
                for sp, count in rxn.reactants.counts.items()
            )
            assert compiled.reactant_terms[r] == expected

    def test_net_terms_match_net_changes(self):
        crn = maximum_spec().known_crn
        compiled = crn.compiled()
        for r, rxn in enumerate(crn.reactions):
            as_species = {compiled.species[s]: d for s, d in compiled.net_terms[r]}
            assert as_species == rxn.net_changes()

    @pytest.mark.parametrize(
        "label,crn,_x", STRATEGY_CASES, ids=STRATEGY_IDS
    )
    def test_dependency_graph_matches_brute_force(self, label, crn, _x):
        compiled = crn.compiled()
        for j, fired in enumerate(crn.reactions):
            changed = set(fired.net_changes())
            expected = tuple(
                r
                for r, rxn in enumerate(crn.reactions)
                if changed & set(rxn.reactants.counts)
            )
            assert compiled.dependency_graph[j] == expected, (label, j)

    def test_catalytic_noop_has_no_dependents(self):
        # X1 + X2 -> X1 + X2 changes nothing, so firing it can invalidate
        # no propensity — not even its own.
        crn = CRN([X1 + X2 >> X1 + X2, X1 >> Y], (X1, X2), Y)
        compiled = crn.compiled()
        assert compiled.net_terms[0] == ()
        assert compiled.dependency_graph[0] == ()
        # X1 -> Y changes X1 (consumed by both reactions) and Y (consumed by
        # neither), so both propensities must be refreshed.
        assert compiled.dependency_graph[1] == (0, 1)

    def test_readers_crossings_and_dependents_match_definitions(self):
        rng = random.Random(31)
        cases = [crn for _, crn, _ in STRATEGY_CASES + PAPER_CELL_CASES]
        cases += [_random_crn(rng) for _ in range(200)]
        for crn in cases:
            compiled = crn.compiled()
            reactants = [dict(terms) for terms in compiled.reactant_terms]
            readers = [
                tuple(r for r, needs in enumerate(reactants) if s in needs)
                for s in range(compiled.n_species)
            ]
            assert compiled.readers == tuple(readers)
            for j, terms in enumerate(compiled.net_terms):
                changed = {s for s, _ in terms}
                dependents = tuple(
                    r for r, needs in enumerate(reactants) if changed & set(needs)
                )
                assert compiled.dependency_graph[j] == dependents
                assert compiled.n_dependents[j] == len(dependents)
                crossings = []
                for s, delta in terms:
                    ks = [needs[s] for needs in reactants if s in needs]
                    if ks:
                        bar = max(ks) + (delta if delta > 0 else 0)
                        crossings.append((s, bar, readers[s]))
                assert compiled.crossings[j] == tuple(crossings)


class TestGillespieEquivalence:
    @pytest.mark.parametrize("label,crn,x", STRATEGY_CASES, ids=STRATEGY_IDS)
    def test_seeded_runs_bit_for_bit(self, label, crn, x):
        for seed in range(4):
            kernel = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(seed)).run_on_input(
                x, max_steps=20_000
            )
            reference = ReferenceGillespieSimulator(
                crn, rng=random.Random(seed)
            ).run_on_input(x, max_steps=20_000)
            assert_same_gillespie(kernel, reference)

    def test_max_time_clamp_matches(self):
        crn = minimum_spec().known_crn
        for seed in (1, 2, 3):
            kernel = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(seed)).run_on_input(
                (50, 50), max_time=0.01
            )
            reference = ReferenceGillespieSimulator(
                crn, rng=random.Random(seed)
            ).run_on_input((50, 50), max_time=0.01)
            assert_same_gillespie(kernel, reference)

    def test_stop_when_matches(self):
        crn = double_spec().known_crn
        predicate = lambda config: config[Y] >= 7  # noqa: E731
        kernel = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(5)).run_on_input(
            (20,), stop_when=predicate
        )
        reference = ReferenceGillespieSimulator(crn, rng=random.Random(5)).run_on_input(
            (20,), stop_when=predicate
        )
        assert_same_gillespie(kernel, reference)
        assert kernel.final_configuration[Y] >= 7

    def test_trajectories_match(self):
        crn = minimum_spec().known_crn
        kernel = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(9)).run_on_input(
            (10, 12), track=[Y], record_every=3
        )
        reference = ReferenceGillespieSimulator(crn, rng=random.Random(9)).run_on_input(
            (10, 12), track=[Y], record_every=3
        )
        assert_same_trajectory(kernel.trajectory, reference.trajectory)

    def test_out_of_network_species_pass_through(self):
        crn = double_spec().known_crn
        initial = crn.initial_configuration((3,)) + Configuration({Z: 2})
        kernel = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(1)).run(initial)
        reference = ReferenceGillespieSimulator(crn, rng=random.Random(1)).run(initial)
        assert kernel.final_configuration[Z] == 2
        assert_same_gillespie(kernel, reference)


class TestFairEquivalence:
    @pytest.mark.parametrize("label,crn,x", STRATEGY_CASES, ids=STRATEGY_IDS)
    def test_seeded_runs_bit_for_bit(self, label, crn, x):
        for seed in range(4):
            kernel = SimulatorCore(crn, FairPolicy(), rng=random.Random(seed)).run_on_input(
                x, max_steps=20_000, quiescence_window=400
            )
            reference = ReferenceFairScheduler(
                crn, rng=random.Random(seed)
            ).run_on_input(x, max_steps=20_000, quiescence_window=400)
            assert_same_fair(kernel, reference)

    @pytest.mark.parametrize("bias_factory", [output_producing_bias, output_consuming_bias])
    def test_biased_runs_bit_for_bit(self, bias_factory):
        crn = maximum_spec().known_crn
        for seed in range(4):
            kernel = SimulatorCore(
                crn, FairPolicy(bias=bias_factory(crn)), rng=random.Random(seed)
            ).run_on_input((5, 5), quiescence_window=500)
            reference = ReferenceFairScheduler(
                crn, rng=random.Random(seed), bias=bias_factory(crn)
            ).run_on_input((5, 5), quiescence_window=500)
            assert_same_fair(kernel, reference)

    def test_trajectories_match(self):
        crn = minimum_spec().known_crn
        kernel = SimulatorCore(crn, FairPolicy(), rng=random.Random(3)).run_on_input(
            (6, 9), track=[Y], record_every=2
        )
        reference = ReferenceFairScheduler(crn, rng=random.Random(3)).run_on_input(
            (6, 9), track=[Y], record_every=2
        )
        assert_same_trajectory(kernel.trajectory, reference.trajectory)

    def test_zero_weight_bias_falls_back_to_uniform(self):
        crn = minimum_spec().known_crn
        zero_bias = lambda rxn: 0.0  # noqa: E731
        for seed in (1, 4):
            kernel = SimulatorCore(
                crn, FairPolicy(bias=zero_bias), rng=random.Random(seed)
            ).run_on_input((4, 4))
            reference = ReferenceFairScheduler(
                crn, rng=random.Random(seed), bias=zero_bias
            ).run_on_input((4, 4))
            assert_same_fair(kernel, reference)

    def test_run_many_python_engine_matches_reference_loop(self):
        # The registered "python" engine spawns one seed per trial; the frozen
        # reference scheduler fed the same seeds must agree output for output.
        from repro.api.config import RunConfig

        crn = minimum_spec().known_crn
        config = RunConfig(trials=5, seed=17)
        report = run_many(crn, (3, 8), config=config)
        window = default_quiescence_window((3, 8))
        expected = [
            crn.output_count(
                ReferenceFairScheduler(crn, rng=random.Random(trial_seed))
                .run_on_input((3, 8), quiescence_window=window)
                .final_configuration
            )
            for trial_seed in config.trial_seeds()
        ]
        assert report.outputs == expected


def _advance_one_event(stepper, counts, scan_ops):
    """Advance ``stepper`` by one event and return how many fired (0 or 1).

    Asserts that the ``propensity_ops`` delta is ``scan_ops`` plus the fired
    reaction's dependents count ``|deps(j)|``: ``scan_ops`` is the per-event
    read of the whole vector (the reaction count under Gillespie, 0 under
    the fair scheduler).  Under Gillespie that count is the propensities
    refreshed; the fair stepper rechecks only the readers of the species
    that crossed a threshold, but adds the same pinned count so its
    :class:`~repro.obs.stats.RunStats` stay comparable.  The reaction is
    identified by the count diff; reactions with equal net change have
    equal dependents, so the diff pins the count even when it cannot name
    the reaction.
    """
    compiled = stepper.compiled
    before = list(counts)
    ops = stepper.propensity_ops
    fired = stepper.advance(counts, 1, math.inf, 0)
    assert fired in (0, 1)
    if fired:
        diff = {
            s: after - was
            for s, (was, after) in enumerate(zip(before, counts))
            if after != was
        }
        refreshed = {
            len(compiled.dependency_graph[j])
            for j in range(compiled.n_reactions)
            if dict(compiled.net_terms[j]) == diff
            and all(before[s] >= k for s, k in compiled.reactant_terms[j])
        }
        assert len(refreshed) == 1
        assert stepper.propensity_ops - ops == scan_ops + refreshed.pop()
    return fired


class TestIncrementalState:
    """Each test steps ``advance`` one event at a time and checks, after every
    event, that the kept state equals a from-scratch recomputation (a fresh
    Gillespie ``start``; for the fair flags, the applicability definition)
    and that the fired reaction's dependents were counted."""

    @pytest.mark.parametrize(
        "policy_cls", [GillespiePolicy, FairPolicy], ids=["gillespie", "fair"]
    )
    def test_each_event_recomputes_exactly_the_dependents(self, policy_cls):
        crn = maximum_spec().known_crn
        compiled = crn.compiled()
        stepper = policy_cls().bind(compiled, random.Random(0))
        counts = list(compiled.encode(crn.initial_configuration((4, 6))))
        stepper.start(counts)
        scan_ops = compiled.n_reactions if policy_cls is GillespiePolicy else 0
        events = 0
        while _advance_one_event(stepper, counts, scan_ops):
            events += 1
            if policy_cls is GillespiePolicy:
                fresh = policy_cls().bind(compiled, random.Random(0))
                fresh.start(counts)
                assert stepper.propensities() == fresh.propensities()
            else:
                _assert_flags_by_definition(stepper, counts)
        assert events > 0 and stepper.silent

    def test_incremental_propensities_equal_full_recompute(self):
        crn = build_crn_for(minimum_spec(), strategy="general")
        compiled = crn.compiled()
        rng = random.Random(11)
        core = SimulatorCore(crn, GillespiePolicy(), rng=rng)
        result = core.run(crn.initial_configuration((4, 5)), max_steps=500)
        # Replay the same run, checking the stepper invariant step by step.
        rng = random.Random(11)
        stepper = GillespiePolicy().bind(compiled, rng)
        counts = list(compiled.encode(crn.initial_configuration((4, 5))))
        stepper.start(counts)
        for _ in range(min(result.steps, 200)):
            if not _advance_one_event(stepper, counts, compiled.n_reactions):
                break
            fresh = GillespiePolicy().bind(compiled, random.Random(0))
            fresh.start(counts)
            assert stepper.propensities() == fresh.propensities()

    def test_incremental_applicability_equals_full_recompute(self):
        crn = build_crn_for(quilt_2d_fig3b_spec(), strategy="quilt")
        compiled = crn.compiled()
        rng = random.Random(7)
        stepper = FairPolicy().bind(compiled, rng)
        counts = list(compiled.encode(crn.initial_configuration((3, 3))))
        stepper.start(counts)
        for _ in range(200):
            if not _advance_one_event(stepper, counts, 0):
                break
            _assert_flags_by_definition(stepper, counts)

    @pytest.mark.parametrize("biased", [False, True], ids=["uniform", "biased"])
    @pytest.mark.parametrize("label,crn,x", PAPER_CELL_CASES, ids=PAPER_CELL_IDS)
    def test_kept_applicable_list_equals_fresh_start(self, label, crn, x, biased):
        compiled = crn.compiled()
        policy = FairPolicy(output_producing_bias(crn) if biased else None)
        stepper = policy.bind(compiled, random.Random(5))
        counts = list(compiled.encode(crn.initial_configuration(x)))
        stepper.start(counts)
        steps = 0
        while steps < 300:
            if not _advance_one_event(stepper, counts, 0):
                break
            steps += 1
            _assert_flags_by_definition(stepper, counts)
        assert steps > 0 and stepper.applicable == []

    def test_inline_fair_draw_equals_random_choice(self):
        # The fair stepper draws Random.choice's index inline (the rejection
        # draw of _randbelow_with_getrandbits, a private stdlib method): it
        # must pick the same index and leave the stream in the same state.
        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            getrandbits = ours.getrandbits
            for n in range(1, 1025):
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                assert r == theirs.choice(range(n)), (seed, n)
            assert ours.getstate() == theirs.getstate(), seed

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 31, 32, 33, 63, 64, 65])
    def test_fair_stepper_draw_equals_random_choice(self, n):
        # The same identity through the stepper itself: with n parallel
        # reactions X -> P_i all applicable, the one it fires is
        # Random.choice's pick from the ascending applicable list.
        x = species("X")[0]
        products = species(" ".join(f"P{i}" for i in range(n)))
        crn = CRN([x >> p for p in products], (x,), products[0], name=f"fan{n}")
        compiled = crn.compiled()
        for seed in range(20):
            stepper = FairPolicy().bind(compiled, random.Random(seed))
            counts = list(compiled.encode(crn.initial_configuration((1,))))
            stepper.start(counts)
            assert stepper.applicable == list(range(n))
            assert stepper.advance(counts, 1, math.inf, 0) == 1
            expected = random.Random(seed).choice(range(n))
            (fired,) = [
                j for j in range(n)
                if all(counts[s] == d for s, d in compiled.net_terms[j] if d > 0)
            ]
            assert fired == expected, (seed, n)

    @pytest.mark.parametrize("label,crn,x", PAPER_CELL_CASES, ids=PAPER_CELL_IDS)
    def test_paper_cells_bit_for_bit_with_reference(self, label, crn, x):
        window = default_quiescence_window(x)
        for bias_factory in (lambda crn: None, output_producing_bias):
            for seed in range(4):
                kernel = SimulatorCore(
                    crn, FairPolicy(bias=bias_factory(crn)), rng=random.Random(seed)
                ).run_on_input(x, quiescence_window=window)
                reference = ReferenceFairScheduler(
                    crn, rng=random.Random(seed), bias=bias_factory(crn)
                ).run_on_input(x, quiescence_window=window)
                assert_same_fair(kernel, reference)

    @pytest.mark.parametrize(
        "spec_factory,x,biased,seed,expected",
        [
            (
                quilt_2d_fig3b_spec,
                (4, 6),
                False,
                1,
                {"events": 54, "selections": 54, "propensity_ops": 296, "rng_draws": 54},
            ),
            (
                weighted_floor_spec,
                (4, 6),
                True,
                2,
                {"events": 34, "selections": 34, "propensity_ops": 417, "rng_draws": 34},
            ),
        ],
        ids=["quilt_2d_fig3b-uniform", "weighted_floor-biased"],
    )
    def test_fair_run_stats_are_pinned(self, spec_factory, x, biased, seed, expected):
        # Literal values recorded from the kernel that rebuilt the applicable
        # list every step: keeping it incrementally must not move a counter.
        spec = spec_factory()
        crn = build_crn_for(spec, name=spec.name)
        policy = FairPolicy(output_producing_bias(crn) if biased else None)
        result = SimulatorCore(crn, policy, rng=random.Random(seed)).run_on_input(
            x, quiescence_window=default_quiescence_window(x)
        )
        stats = result.stats.to_dict()
        del stats["wall_s"]
        assert stats == expected


def _random_small_crn(rng):
    """A random CRN over four species for the forced-stretch tests: one to
    four reactions, reactant coefficients (thresholds) of 1-3, net changes of
    -3..3 on each reactant (0 makes it a catalyst), and 0-2 further products."""
    pool = species("A B C D")
    reactions = []
    for _ in range(rng.randint(1, 4)):
        reactants = {sp: rng.randint(1, 3) for sp in rng.sample(pool, rng.randint(1, 2))}
        products = {sp: max(k + rng.randint(-3, 3), 0) for sp, k in reactants.items()}
        for sp in rng.sample(pool, rng.randint(0, 2)):
            if sp not in reactants:
                products[sp] = rng.randint(1, 3)
        reactions.append(
            Reaction(reactants, {sp: c for sp, c in products.items() if c})
        )
    return CRN(reactions, pool[:2], pool[3], name="random")


def _random_crn(rng):
    """A random CRN over five species for the crossing-rule tests: one to six
    reactions with zero to three reactants out of A-D (thresholds of 1-3),
    each reactant either a catalyst or changed by -3..3, and 0-2 further
    products.  E is never a reactant, so it has no readers; a reaction with
    no reactants is always applicable."""
    pool = species("A B C D E")
    reactions = []
    for _ in range(rng.randint(1, 6)):
        reactants = {
            sp: rng.randint(1, 3) for sp in rng.sample(pool[:4], rng.randint(0, 3))
        }
        products = {
            sp: max(k + rng.choice((-3, -2, -1, 0, 0, 0, 1, 2, 3)), 0)
            for sp, k in reactants.items()
        }
        for sp in rng.sample(pool, rng.randint(0 if reactants else 1, 2)):
            if sp not in reactants:
                products[sp] = rng.randint(1, 3)
        reactions.append(
            Reaction(reactants, {sp: c for sp, c in products.items() if c})
        )
    return CRN(reactions, pool[:2], rng.choice(pool[3:]), name="random")


def _random_bias(rng, crn):
    """No bias, positive weights, all-zero weights, or a zero/positive mix."""
    mode = rng.choice(["none", "positive", "zero", "mixed"])
    if mode == "none":
        return None
    low = 1 if mode == "positive" else 0
    high = 0 if mode == "zero" else 3
    weights = {id(rxn): float(rng.randint(low, high)) for rxn in crn.reactions}
    return lambda rxn: weights[id(rxn)]


class TestForcedStretches:
    """The fair stepper fires a forced stretch (one applicable reaction) in one
    step; ``advance(counts, 1, ...)`` never does (a stretch leaves its last
    event to the per-event loop), so a run stepped one event at a time is the
    oracle for the same seed advanced in bursts."""

    def test_forced_limits_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(200):
            crn = _random_small_crn(rng)
            compiled = crn.compiled()
            for j, (drains, fills, keeps_output) in enumerate(compiled.forced_limits):
                net = dict(compiled.net_terms[j])
                own = dict(compiled.reactant_terms[j])
                assert drains == tuple(
                    (s, own[s], -d) for s, d in compiled.net_terms[j] if d < 0
                )
                expected_fills = []
                for s, d in compiled.net_terms[j]:
                    thresholds = sorted({
                        k for terms in compiled.reactant_terms
                        for t, k in terms if t == s
                    })
                    if d > 0 and thresholds:
                        expected_fills.append((s, d, tuple(thresholds)))
                assert fills == tuple(expected_fills)
                assert keeps_output == (compiled.output_index not in net)

    def test_bursts_equal_single_events(self):
        rng = random.Random(2024)
        forced_pairs = 0
        for case in range(300):
            crn = _random_small_crn(rng)
            compiled = crn.compiled()
            policy = FairPolicy(_random_bias(rng, crn))
            start = [rng.randint(0, 40) for _ in range(compiled.n_species)]
            window = rng.choice([0, 1, 5, 37])
            total = rng.choice([1, 2, 60, 2000])
            seed = rng.getrandbits(32)

            single = policy.bind(compiled, random.Random(seed))
            single_counts = list(start)
            single.start(single_counts)
            single_fired = 0
            was_forced = False
            while single_fired < total and not (single.silent or single.converged):
                forced = len(single.applicable) == 1
                forced_pairs += forced and was_forced
                was_forced = forced
                single_fired += single.advance(single_counts, 1, math.inf, window)

            burst = policy.bind(compiled, random.Random(seed))
            counts = list(start)
            burst.start(counts)
            fired = 0
            while fired < total and not (burst.silent or burst.converged):
                budget = total - fired
                if case % 2:
                    budget = min(budget, rng.randint(1, 300))
                fired += burst.advance(counts, budget, math.inf, window)
                _assert_flags_by_definition(burst, counts)

            def state(stepper, stepper_counts, stepper_fired):
                return (
                    stepper_fired,
                    stepper_counts,
                    stepper.app,
                    stepper.applicable,
                    stepper.max_output,
                    stepper.last_output,
                    stepper.unchanged_for,
                    stepper.propensity_ops,
                    stepper.silent,
                    stepper.converged,
                    stepper.rng.getstate(),
                )

            assert state(burst, counts, fired) == state(
                single, single_counts, single_fired
            ), case
        # Consecutive forced events are what a burst fires in one step.
        assert forced_pairs > 10_000


class TestRunTrials:
    """``run_trials`` reports, per seed, what a fresh ``SimulatorCore`` run
    on ``random.Random(seed)`` reports, under every built-in policy, over the
    forced-stretch tests' random CRNs."""

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda crn: FairPolicy(),
            lambda crn: FairPolicy(bias=output_producing_bias(crn, strength=4.0)),
            lambda crn: GillespiePolicy(),
            lambda crn: TauLeapPolicy(),
        ],
        ids=["fair", "fair-biased", "gillespie", "tau"],
    )
    @pytest.mark.parametrize("windowed", [False, True], ids=["window-0", "default-window"])
    def test_equals_one_simulator_core_per_seed(self, make_policy, windowed):
        rng = random.Random(4242)
        ends = set()
        for case in range(60):
            crn = _random_small_crn(rng)
            policy = make_policy(crn)
            x = (rng.randint(0, 9), rng.randint(0, 9))
            window = default_quiescence_window(x) if windowed else 0
            seeds = [rng.getrandbits(32) for _ in range(3)]
            trials = run_trials(
                crn.compiled() if case % 2 else crn, policy, x, seeds,
                max_steps=1_500, quiescence_window=window,
            )
            expected = []
            for seed in seeds:
                core = SimulatorCore(crn, policy, rng=random.Random(seed))
                result = core.run_on_input(x, max_steps=1_500, quiescence_window=window)
                expected.append((
                    crn.output_count(result.final_configuration),
                    result.max_output_seen,
                    result.steps,
                    result.silent,
                    result.converged,
                ))
            got = list(zip(
                trials.outputs, trials.max_outputs, trials.steps,
                trials.silent, trials.converged,
            ))
            assert got == expected, case
            assert trials.all_settled() == all(s or c for *_, s, c in expected)
            ends.update((s, c) for *_, s, c in expected)
        # Both stop flags, and runs cut by max_steps, are exercised.
        assert (True, False) in ends and (False, False) in ends
        if windowed:
            assert (False, True) in ends

    def test_no_seeds_no_trials(self):
        trials = run_trials(minimum_spec().known_crn, FairPolicy(), (2, 3), [])
        assert trials.outputs == trials.steps == trials.silent == []
        assert trials.all_settled()


class TestCrossingRule:
    """The fair stepper rechecks, after each event, only the readers of a
    species whose count crossed a threshold, and ``start`` checks only the
    readers of nonzero species.  Seeded properties over random CRNs (see
    ``_random_crn``) check both against the applicability definition."""

    @staticmethod
    def _random_counts(rng, compiled):
        return [rng.choice((0, 0, 0, 1, 2, 3, 4, 7)) for _ in range(compiled.n_species)]

    def test_flags_after_every_event_match_the_definition(self):
        rng = random.Random(4242)
        events = silent = 0
        for _ in range(300):
            crn = _random_crn(rng)
            compiled = crn.compiled()
            policy = FairPolicy(_random_bias(rng, crn))
            stepper = policy.bind(compiled, random.Random(rng.getrandbits(32)))
            counts = self._random_counts(rng, compiled)
            stepper.start(counts)
            _assert_flags_by_definition(stepper, counts)
            for _ in range(120):
                if not _advance_one_event(stepper, counts, 0):
                    break
                events += 1
                _assert_flags_by_definition(stepper, counts)
            silent += stepper.silent
        assert events > 10_000 and silent > 10

    def test_start_matches_the_definition(self):
        rng = random.Random(99)
        for _ in range(300):
            crn = _random_crn(rng)
            compiled = crn.compiled()
            samples = [[0] * compiled.n_species]
            samples += [self._random_counts(rng, compiled) for _ in range(5)]
            for counts in samples:
                stepper = FairPolicy().bind(compiled, random.Random(0))
                stepper.start(counts)
                _assert_flags_by_definition(stepper, counts)
                # Pinned: one applicability evaluation per reaction.
                assert stepper.propensity_ops == compiled.n_reactions


#: Prints one digest of the generated fair firing source per buildable
#: registered spec, as JSON, after compiling each source with warnings as
#: errors.
_SOURCE_DIGESTS = """
import hashlib, json, warnings
from repro.core.characterization import build_crn_for
from repro.lab.campaign import resolve_spec, spec_factory_names
from repro.sim.kernel import fair_fire_sources
digests = {}
for name in spec_factory_names():
    try:
        crn = build_crn_for(resolve_spec(name), name=name, strategy="auto")
    except ValueError:
        continue  # a spec with no oblivious construction
    sources = fair_fire_sources(crn.compiled())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in sources:
            compile(source, name, "exec")
    digests[name] = hashlib.sha256("".join(sources).encode()).hexdigest()
print(json.dumps(digests))
"""


class TestGeneratedFiring:
    """The fair stepper fires each reaction through a function generated
    from the ``CompiledCRN`` tables (:func:`repro.sim.kernel.fair_fire_sources`).
    CI also runs this class with warnings as errors, so a warning raised by
    generated source fails it."""

    @staticmethod
    def _digests(hash_seed):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out = subprocess.run(
            [sys.executable, "-c", _SOURCE_DIGESTS],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    def test_sources_do_not_depend_on_the_hash_seed(self):
        first = self._digests(1)
        assert {"minimum", "weighted_floor", "fig7", "quilt_2d_fig3b"} <= set(first)
        assert self._digests(4242) == first

    def test_a_crn_that_ran_still_pickles_and_replays(self):
        crn = build_crn_for(fig7_spec(), name="fig7")
        x = (6, 4)

        def run(network, seed):
            rng = random.Random(seed)
            result = SimulatorCore(network, FairPolicy(), rng=rng).run_on_input(x)
            return (
                result.final_configuration, result.steps, result.max_output_seen,
                result.stats.propensity_ops, result.stats.rng_draws, rng.getstate(),
            )

        expected = run(crn, 13)
        assert crn.compiled().fair_fire is not None
        clone = pickle.loads(pickle.dumps(crn))
        assert clone.compiled().fair_fire is None
        assert run(clone, 13) == expected
        assert clone.compiled().fair_fire is not None

    def test_fresh_compilations_never_share_firing_code(self):
        # Firing functions live on their CompiledCRN, so a new instance at a
        # recycled address generates its own; the linecache entries go with it.
        def linecache_names():
            return {name for name in linecache.cache if name.startswith("<fair fire")}

        rng = random.Random(1000)
        before = linecache_names()
        events = 0
        for _ in range(1000):
            crn = _random_crn(rng)
            compiled = CompiledCRN(crn)
            policy = FairPolicy(_random_bias(rng, crn))
            stepper = policy.bind(compiled, random.Random(rng.getrandbits(32)))
            assert len(compiled.fair_fire) == compiled.n_reactions
            counts = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(compiled.n_species)]
            stepper.start(counts)
            for _ in range(30):
                if not _advance_one_event(stepper, counts, 0):
                    break
                events += 1
                _assert_flags_by_definition(stepper, counts)
            del crn, compiled, stepper
        gc.collect()
        assert events > 5_000
        assert len(linecache_names() - before) < 20

    @pytest.mark.parametrize(
        "table, entry",
        [("net_terms", 1.0), ("net_terms", True), ("crossings", "0"), ("reactant_terms", None)],
    )
    def test_only_int_entries_reach_exec(self, table, entry):
        compiled = CompiledCRN(maximum_spec().known_crn)
        rows = [list(row) for row in getattr(compiled, table)]
        first = next(row for row in rows if row)
        first[0] = (entry,) + tuple(first[0])[1:]
        setattr(compiled, table, tuple(tuple(row) for row in rows))
        with pytest.raises(TypeError, match="int table entries"):
            fair_fire_sources(compiled)
        with pytest.raises(TypeError, match="int table entries"):
            FairPolicy().bind(compiled, random.Random(0))

    def test_tracebacks_show_the_generated_line(self):
        compiled = CompiledCRN(maximum_spec().known_crn)
        FairPolicy().bind(compiled, random.Random(0))
        with pytest.raises(IndexError) as caught:
            compiled.fair_fire[0]([], [], [])
        frame = traceback.extract_tb(caught.value.__traceback__)[-1]
        assert frame.filename.startswith("<fair fire")
        assert frame.line.startswith("counts[")


def _tables_from_a_numpy_net(crn, compiled):
    """The kernel's sparse tables read off dense numpy stoichiometry
    matrices, the way ``CompiledCRN`` once derived them."""
    np = pytest.importorskip("numpy")
    shape = (compiled.n_reactions, compiled.n_species)
    reactants = np.zeros(shape, dtype=np.int64)
    products = np.zeros(shape, dtype=np.int64)
    for r, rxn in enumerate(crn.reactions):
        for sp, count in rxn.reactants.counts.items():
            reactants[r, compiled.index[sp]] = count
        for sp, count in rxn.products.counts.items():
            products[r, compiled.index[sp]] = count
    net = products - reactants
    consumed = reactants > 0
    readers = [tuple(np.flatnonzero(consumed[:, s]).tolist()) for s in range(shape[1])]
    kmax = reactants.max(axis=0).tolist()
    net_terms = tuple(
        tuple((s, int(net[j, s])) for s in np.flatnonzero(net[j]).tolist())
        for j in range(shape[0])
    )
    return {
        "reactants": reactants,
        "products": products,
        "net": net,
        "readers": tuple(readers),
        "net_terms": net_terms,
        "dependency_graph": tuple(
            tuple(np.flatnonzero(consumed[:, net[j] != 0].any(axis=1)).tolist())
            for j in range(shape[0])
        ),
        "crossings": tuple(
            tuple((s, kmax[s] + max(d, 0), readers[s]) for s, d in terms if readers[s])
            for terms in net_terms
        ),
        "forced_limits": tuple(
            (
                tuple((s, int(reactants[j, s]), -d) for s, d in terms if d < 0),
                tuple(
                    (s, d, tuple(np.unique(reactants[consumed[:, s], s]).tolist()))
                    for s, d in terms
                    if d > 0 and readers[s]
                ),
                bool(net[j, compiled.output_index] == 0),
            )
            for j, terms in enumerate(net_terms)
        ),
    }


class TestPlainPythonTables:
    """``CompiledCRN`` builds the kernel's tables in plain Python; over
    random CRNs they equal the same tables read off a numpy ``net`` matrix,
    and the dense members it builds on first access equal the matrices."""

    def test_tables_equal_those_of_a_numpy_net_matrix(self):
        rng = random.Random(36)
        for _ in range(500):
            crn = _random_crn(rng)
            compiled = CompiledCRN(crn)
            expected = _tables_from_a_numpy_net(crn, compiled)
            for table in ("readers", "net_terms", "dependency_graph", "crossings", "forced_limits"):
                assert getattr(compiled, table) == expected[table], (table, crn)
            assert compiled.n_dependents == tuple(map(len, expected["dependency_graph"]))
            for matrix in ("reactants", "products", "net"):
                assert (getattr(compiled, matrix) == expected[matrix]).all(), (matrix, crn)
            assert compiled.rates.tolist() == [rxn.rate for rxn in crn.reactions]


class TestTauLeapPolicy:
    """Unit behaviour of the batch-firing policy (distributional correctness
    lives in ``tests/test_statistical_equivalence.py``)."""

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2, True, "0.1"])
    def test_epsilon_validated(self, bad):
        with pytest.raises(ValueError, match="epsilon"):
            TauLeapPolicy(epsilon=bad)

    def test_small_population_falls_back_to_exact_bursts(self):
        crn = minimum_spec().known_crn
        core = SimulatorCore(crn, TauLeapPolicy(), rng=random.Random(2))
        result = core.run_on_input((8, 13))
        assert result.silent
        assert crn.output_count(result.final_configuration) == 8
        assert result.steps == 8  # every event consumes one X1: exact count

    def test_large_population_collapses_selections(self):
        crn = minimum_spec().known_crn
        core = SimulatorCore(crn, TauLeapPolicy(), rng=random.Random(2))
        result = core.run_on_input((20_000, 20_000), max_steps=10_000_000)
        assert result.silent
        assert crn.output_count(result.final_configuration) == 20_000
        assert result.steps == 20_000
        assert result.selections < result.steps / 5  # the step-count collapse

    def test_counts_never_go_negative_and_time_advances(self):
        # Drive the stepper directly: the decoded Configuration drops
        # nonpositive entries, so only the raw dense counts can witness a
        # negative-population bug.
        import math

        crn = maximum_spec().known_crn
        compiled = crn.compiled()
        stepper = TauLeapPolicy().bind(compiled, random.Random(6))
        counts = list(compiled.encode(crn.initial_configuration((5_000, 3_000))))
        stepper.start(counts)
        while not stepper.silent:
            stepper.advance(counts, 1, math.inf, 0)
            assert all(count >= 0 for count in counts), counts
        assert stepper.time_now > 0.0
        # The max CRN keeps its intermediates scarce, so the Cao bound
        # (rightly) routes the whole run through exact bursts.
        assert stepper.exact_events > 0

    def test_leaps_keep_raw_counts_nonnegative_when_actually_leaping(self):
        import math

        crn = minimum_spec().known_crn
        compiled = crn.compiled()
        stepper = TauLeapPolicy().bind(compiled, random.Random(6))
        counts = list(compiled.encode(crn.initial_configuration((30_000, 20_000))))
        stepper.start(counts)
        while not stepper.silent:
            stepper.advance(counts, 1, math.inf, 0)
            assert all(count >= 0 for count in counts), counts
        assert stepper.leaps > 0  # abundant species: genuine leaping territory

    def test_max_time_clamps_the_clock(self):
        crn = minimum_spec().known_crn
        core = SimulatorCore(crn, TauLeapPolicy(), rng=random.Random(4))
        result = core.run_on_input((50_000, 50_000), max_time=1e-9)
        assert result.final_time <= 1e-9 + 1e-18
        assert not result.silent

    def test_tau_respects_registry_metadata(self):
        from repro.sim.registry import get_engine

        info = get_engine("tau")
        assert info.approximate
        assert not info.supports_fair
        assert info.supports_gillespie
        assert info.min_recommended_population == 10_000


class TestSeedStreamLock:
    """The exact engines are bit-for-bit unchanged by the tau-leaping PR.

    ``RunConfig`` grew an ``epsilon`` field (consumed only by approximate
    engines); these locks re-run the kernel-vs-reference parity with epsilon
    present-but-unused and assert the seeded streams did not move.
    """

    def test_gillespie_parity_with_epsilon_present(self):
        from repro.api.config import RunConfig

        crn = minimum_spec().known_crn
        config = RunConfig(trials=1, seed=23, epsilon=0.5)  # non-default epsilon
        (trial_seed,) = config.trial_seeds()
        kernel = SimulatorCore(
            crn, GillespiePolicy(), rng=random.Random(trial_seed)
        ).run_on_input((6, 11))
        reference = ReferenceGillespieSimulator(
            crn, rng=random.Random(trial_seed)
        ).run_on_input((6, 11))
        assert_same_gillespie(kernel, reference)

    def test_run_many_python_stream_independent_of_epsilon(self):
        from repro.api.config import RunConfig
        from repro.sim.runner import estimate_expected_output

        crn = maximum_spec().known_crn
        default_eps = run_many(crn, (4, 9), config=RunConfig(trials=6, seed=31))
        custom_eps = run_many(
            crn, (4, 9), config=RunConfig(trials=6, seed=31, epsilon=0.7)
        )
        assert default_eps.outputs == custom_eps.outputs
        assert default_eps.steps == custom_eps.steps
        assert estimate_expected_output(
            crn, (4, 9), config=RunConfig(trials=4, seed=31)
        ) == estimate_expected_output(
            crn, (4, 9), config=RunConfig(trials=4, seed=31, epsilon=0.7)
        )

    def test_run_many_reference_parity_with_epsilon_present(self):
        # The full kernel-vs-reference run_many lock, re-run with epsilon in
        # the config: the registered python engine must still reproduce the
        # frozen reference scheduler output for output.
        from repro.api.config import RunConfig

        crn = minimum_spec().known_crn
        config = RunConfig(trials=5, seed=17, epsilon=0.42)
        report = run_many(crn, (3, 8), config=config)
        window = default_quiescence_window((3, 8))
        expected = [
            crn.output_count(
                ReferenceFairScheduler(crn, rng=random.Random(trial_seed))
                .run_on_input((3, 8), quiescence_window=window)
                .final_configuration
            )
            for trial_seed in config.trial_seeds()
        ]
        assert report.outputs == expected

    def test_vectorized_stream_independent_of_epsilon(self):
        from repro.api.config import RunConfig

        crn = minimum_spec().known_crn
        default_eps = run_many(
            crn, (30, 40), config=RunConfig(trials=8, seed=5, engine="vectorized")
        )
        custom_eps = run_many(
            crn,
            (30, 40),
            config=RunConfig(trials=8, seed=5, engine="vectorized", epsilon=0.9),
        )
        assert default_eps.outputs == custom_eps.outputs
        assert default_eps.steps == custom_eps.steps


def branching_crn():
    """X -> Y (rate 1) vs X -> Z (rate 3): outputs are rate-sensitive, so a
    kinetic run's result genuinely depends on every draw of its stream."""
    X = species("X")[0]
    return CRN([(X >> Y), (X >> Z).with_rate(3.0)], (X,), Y, name="branching")


class TestSeedStreamLockNRM:
    """Replay fixtures pinning the seeded streams of ``python``,
    ``vectorized`` and ``tau``.

    Each literal was recorded from an earlier commit and is never re-recorded:
    ``run_many`` outputs on the rate-sensitive branching CRN and on the
    general construction, ``estimate_expected_output`` means, and the scalar
    Gillespie clock down to the float.  Code shared between engines (the
    kernel, the runner adapters, the IR) cannot change one of these streams
    without failing here.
    """

    def test_python_run_many_replays_pre_nrm_fixture(self):
        from repro.api.config import RunConfig

        report = run_many(
            branching_crn(), (40,), config=RunConfig(trials=6, seed=424242)
        )
        assert report.outputs == [22, 27, 25, 24, 18, 18]

    def test_vectorized_run_many_replays_pre_nrm_fixture(self):
        from repro.api.config import RunConfig

        report = run_many(
            branching_crn(),
            (40,),
            config=RunConfig(trials=6, seed=424242, engine="vectorized"),
        )
        assert report.outputs == [18, 18, 18, 21, 16, 23]

    def test_tau_run_many_replays_pre_nrm_fixture(self):
        from repro.api.config import RunConfig

        report = run_many(
            branching_crn(),
            (40,),
            config=RunConfig(trials=6, seed=424242, engine="tau"),
        )
        assert report.outputs == [7, 10, 10, 8, 11, 9]

    @pytest.mark.parametrize("engine", ["python", "vectorized", "tau"])
    def test_general_construction_replays_pre_nrm_fixture(self, engine):
        from repro.api.config import RunConfig

        crn = build_crn_for(minimum_spec(), strategy="general")
        report = run_many(
            crn,
            (4, 6),
            config=RunConfig(trials=4, seed=777, engine=engine, max_steps=50_000),
        )
        assert report.outputs == [4, 4, 4, 4], engine
        assert report.steps == [41, 41, 41, 41], engine

    @pytest.mark.parametrize(
        "engine,expected", [("python", 10.2), ("vectorized", 10.0), ("tau", 10.2)]
    )
    def test_estimates_replay_pre_nrm_fixture(self, engine, expected):
        from repro.api.config import RunConfig
        from repro.sim.runner import estimate_expected_output

        estimate = estimate_expected_output(
            branching_crn(), (40,), config=RunConfig(trials=5, seed=99, engine=engine)
        )
        assert estimate == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "seed,final_time,output,steps",
        [(5, 0.7678122926074016, 12, 40), (6, 2.0320946168568637, 7, 40)],
    )
    def test_gillespie_clock_replays_pre_nrm_fixture(
        self, seed, final_time, output, steps
    ):
        # Exact float equality on the simulated clock: the strongest
        # detector of any extra/missing draw in the scalar kinetic stream.
        result = SimulatorCore(
            branching_crn(), GillespiePolicy(), rng=random.Random(seed)
        ).run_on_input((40,))
        assert result.final_time == final_time
        assert result.final_configuration[Y] == output
        assert result.steps == steps


class TestSeedStreamLockTauVec:
    """Replay fixtures pinning the scalar ``tau`` bound and stream.

    The tau-selection math lives in the shared :mod:`repro.sim.tau` helpers,
    used by both ``_TauLeapStepper`` and the batched ``tau-vec`` engine.
    These literals, recorded before the helpers were shared, pin the general
    construction's ``run_many`` on ``python``, ``vectorized`` and ``tau``, the
    scalar tau clock and leap count to the float, and the shared tau bound
    itself.
    """

    @pytest.mark.parametrize("engine", ["python", "vectorized", "tau"])
    def test_general_construction_replays_pre_tau_vec_fixture(self, engine):
        from repro.api.config import RunConfig

        crn = build_crn_for(minimum_spec(), strategy="general")
        report = run_many(
            crn,
            (4, 6),
            config=RunConfig(trials=4, seed=777, engine=engine, max_steps=50_000),
        )
        assert report.outputs == [4, 4, 4, 4], engine
        assert report.steps == [41, 41, 41, 41], engine

    @pytest.mark.parametrize(
        "seed,final_time,selections",
        [(5, 1.6949295079945488, 142), (6, 1.914413349394657, 141)],
    )
    def test_tau_clock_replays_pre_tau_vec_fixture(
        self, seed, final_time, selections
    ):
        # Exact float equality on the simulated clock plus the leap-round
        # count: the strongest detector of any change to the tau bound or to
        # the scalar Poisson sampler's draw order.
        result = SimulatorCore(
            minimum_spec().known_crn, TauLeapPolicy(), rng=random.Random(seed)
        ).run_on_input((5_000, 5_000))
        assert result.final_time == final_time
        assert result.steps == 5_000
        assert result.selections == selections

    @pytest.mark.parametrize(
        "x,epsilon,expected",
        [((5_000, 5_000), 0.03, 3e-06), ((123, 77), 0.07, 0.00028455284552845534)],
    )
    def test_shared_select_tau_replays_scalar_bound(self, x, epsilon, expected):
        # The shared repro.sim.tau scalar form produces the exact floats the
        # pre-refactor inline loop did (same ops, same order).
        from repro.sim.engine import CompiledCRN

        compiled = CompiledCRN(minimum_spec().known_crn)
        stepper = TauLeapPolicy(epsilon=epsilon).bind(compiled, random.Random(0))
        counts = [int(v) for v in compiled.encode(
            minimum_spec().known_crn.initial_configuration(x)
        )]
        stepper.exact.start(counts)
        assert stepper.select_tau(counts) == expected


def _golden_digest(result, stats, trajectory=None):
    """sha256 of the canonical JSON of one run's outcome.

    ``result`` supplies the final configuration, ``steps``, ``silent``,
    ``converged``, ``max_output_seen`` and ``final_time``; ``stats`` is a
    :class:`~repro.obs.stats.RunStats` (``wall_s`` is dropped).  A trajectory,
    when given, is hashed point by point.
    """
    payload = {
        "final": {
            sp.name: n for sp, n in result.final_configuration.items() if n
        },
        "steps": result.steps,
        "silent": result.silent,
        "converged": result.converged,
        "max_output_seen": result.max_output_seen,
        "final_time": result.final_time,
        "stats": {k: v for k, v in stats.to_dict().items() if k != "wall_s"},
    }
    if trajectory is not None:
        payload["trajectory"] = [
            [p.time, p.step, {sp.name: n for sp, n in p.counts.items()}]
            for p in trajectory
        ]
    return hashlib.sha256(canonical_json(payload)).hexdigest()


def _catalytic_crn():
    """X1 -> Y plus the catalytic no-op X2 + Y -> X2 + Y: never silent once
    Y appears, so only the quiescence window can end a run."""
    return CRN([X1 >> Y, X2 + Y >> X2 + Y], (X1, X2), Y, name="catalytic")


def _zero_weight_bias(crn):
    """Weight 0 on output-producing reactions: whenever only those are
    applicable the biased draw falls back to the uniform one."""
    output = crn.output_species
    return lambda rxn: 0.0 if rxn.net_change(output) > 0 else 1.0


def _quilt():
    spec = quilt_2d_fig3b_spec()
    return build_crn_for(spec, name=spec.name)


def _weighted_floor():
    spec = weighted_floor_spec()
    return build_crn_for(spec, name=spec.name)


#: case id -> (crn factory, policy factory (crn -> StepPolicy), input, seed,
#: SimulatorCore.run keyword arguments).  ``quiescence_window=None`` means
#: the input's default window.
GOLDEN_CASES = {
    "fair-uniform": (_quilt, lambda crn: FairPolicy(), (4, 6), 11,
                     {"quiescence_window": None}),
    "fair-biased": (_weighted_floor, lambda crn: FairPolicy(output_producing_bias(crn)),
                    (4, 6), 12, {"quiescence_window": None}),
    "fair-zero-weight": (_quilt, lambda crn: FairPolicy(_zero_weight_bias(crn)),
                         (4, 6), 13, {"quiescence_window": None}),
    "gillespie-max-time": (lambda: maximum_spec().known_crn, lambda crn: GillespiePolicy(),
                           (5, 3), 8, {"max_time": 0.1}),
    "tau-exact-fallback": (lambda: minimum_spec().known_crn, lambda crn: TauLeapPolicy(),
                           (300, 420), 5, {}),
    "fair-max-steps": (_quilt, lambda crn: FairPolicy(), (4, 6), 11, {"max_steps": 20}),
    "fair-quiescence-catalytic": (_catalytic_crn, lambda crn: FairPolicy(), (5, 2), 3,
                                  {"quiescence_window": 30}),
    "gillespie-stop-when": (lambda: minimum_spec().known_crn, lambda crn: GillespiePolicy(),
                            (6, 9), 21, {"stop_when": lambda c: c[Y] >= 3}),
    "fair-trajectory-every-3": (lambda: maximum_spec().known_crn, lambda crn: FairPolicy(),
                                (5, 3), 4, {"track": (Y,), "record_every": 3}),
}


def _drain_crn():
    """X1 -> Y and X2 -> Z: once X1 is gone, X2 -> Z is the only applicable
    reaction and leaves the output unchanged, so a window closes inside that
    forced stretch."""
    return CRN([X1 >> Y, X2 >> Z], (X1, X2), Y, name="drain")


#: Runs made mostly of forced stretches (one applicable reaction), in the
#: GOLDEN_CASES format: long drains through one reaction, biased and
#: all-zero-weight draws, and each way a run can end inside a stretch.
FORCED_CASES = {
    "forced-add": (lambda: add_spec().known_crn, lambda crn: FairPolicy(),
                   (2000, 15), 31, {"quiescence_window": None}),
    "forced-max": (lambda: maximum_spec().known_crn, lambda crn: FairPolicy(),
                   (1500, 20), 32, {"quiescence_window": None}),
    "forced-min-biased": (lambda: minimum_spec().known_crn,
                          lambda crn: FairPolicy(output_producing_bias(crn)),
                          (500, 3), 33, {"quiescence_window": None}),
    "forced-min-zero-weight": (lambda: minimum_spec().known_crn,
                               lambda crn: FairPolicy(lambda rxn: 0.0),
                               (500, 3), 34, {"quiescence_window": None}),
    "forced-add-biased": (lambda: add_spec().known_crn,
                          lambda crn: FairPolicy(output_producing_bias(crn)),
                          (1200, 40), 35, {}),
    "forced-window-closes": (_drain_crn, lambda crn: FairPolicy(), (5, 500), 36,
                             {"quiescence_window": 37}),
    "forced-max-steps": (lambda: add_spec().known_crn, lambda crn: FairPolicy(),
                         (2000, 15), 37, {"max_steps": 1000}),
    "forced-trajectory-every-7": (lambda: maximum_spec().known_crn,
                                  lambda crn: FairPolicy(), (200, 5), 38,
                                  {"track": (Y,), "record_every": 7}),
}


class TestGoldenStreams:
    """Seeded runs pinned as literals, one per stepper path.

    Each literal is :func:`_golden_digest` of a :class:`SimulatorCore` run,
    recorded from the kernel whose core called the exact steppers'
    ``select``/``fired`` once per event, before the step loop moved into the
    steppers; a stream change anywhere (draw order, a counter, the clamp, the
    window, a trajectory point) moves the hash.  Every literal is also
    reproduced by the frozen pre-kernel loops in :mod:`repro.sim._reference`
    (with the kernel's ``RunStats``, which those loops do not count).
    """

    GOLDEN = {
        "fair-uniform": (
            "f2edb106fa51d657466a3ed42909d1f8"
            "420fdb05b4606ad588722c7759e28bc8"
        ),
        "fair-biased": (
            "ad16dcb9533e156d6b69bbad4afd4957"
            "3524feaaa30c496d1ff7c9d005bfcc51"
        ),
        "fair-zero-weight": (
            "7917e74f1360ab40b0b5514a57214a3b"
            "0c4106e41617e3e7310b09ab08ee9ab2"
        ),
        "gillespie-max-time": (
            "4e83099a7fa02b0da5872894b45afbb0"
            "2728b6bdb911769fa9c3d061e47f113e"
        ),
        "tau-exact-fallback": (
            "e7ade80880350470ebfabc5caa81c9d5"
            "5490951bf43c5d308ab17b69f9d1e9e9"
        ),
        "fair-max-steps": (
            "0365b87d273be20f566daca84a8ddc78"
            "9471d9c4c1ea529a77c7a0195dad4b8c"
        ),
        "fair-quiescence-catalytic": (
            "d0a9d3fc9628c1c87fea835e3051daf6"
            "cadf2bf4a166b4650204ca8af9fa36d4"
        ),
        "gillespie-stop-when": (
            "18231e15df2b4efe90ad9e0672a1404c"
            "abc6416be672111ac3f0cd22455eba87"
        ),
        "fair-trajectory-every-3": (
            "b0bf82c76bfc3ed49805f7f2db399ffc"
            "712ebacafe47dcec9853269c9f2ef925"
        ),
    }

    #: FORCED_CASES -> (digest, the generator's next ``random()`` after the
    #: run; a SimulatorCore reuses its generator across runs).  Recorded from
    #: the kernel that fired every event through the per-event loop, before
    #: forced stretches were fired in one step.
    GOLDEN_FORCED = {
        "forced-add": (
            "51d7049051474882f3308a62928341f6"
            "5ff2cd03b3e47175b237cdcbb42052dd",
            0.8817709386849244,
        ),
        "forced-max": (
            "5ff023c0cc94be4f41fa36f6e1c75b3d"
            "57a0443015e3ecad38ca37d90417ce49",
            0.09689413119591694,
        ),
        "forced-min-biased": (
            "1829620a01715106fab1c62e011806d9"
            "4c14ae6cd402b842bdb7b8e4aef84736",
            0.2772908544463448,
        ),
        "forced-min-zero-weight": (
            "1829620a01715106fab1c62e011806d9"
            "4c14ae6cd402b842bdb7b8e4aef84736",
            0.8986446412645931,
        ),
        "forced-add-biased": (
            "8a8a1e80ed50c97902793cdbad33c72a"
            "294bbf149342559b0184d85512b1917c",
            0.39399283511914385,
        ),
        "forced-window-closes": (
            "614f6a4c21db9e50646d39a68aea5fd1"
            "95158354b275dd51508b253aae00e483",
            0.9869097376417592,
        ),
        "forced-max-steps": (
            "d7a69b53c5fccfc24e5d8282e527119a"
            "b035aec37052b2b7d9572a1dc83e0d3e",
            0.42370138008287184,
        ),
        "forced-trajectory-every-7": (
            "dcffad84d944e286ee862bea1f7f9a49"
            "e7504918d1de1b51c8d2f83e593120de",
            0.07602120760467768,
        ),
    }

    @staticmethod
    def _kernel_run(case, cases=GOLDEN_CASES):
        crn_factory, policy_factory, x, seed, kwargs = cases[case]
        crn = crn_factory()
        kwargs = dict(kwargs)
        if kwargs.get("quiescence_window", 0) is None:
            kwargs["quiescence_window"] = default_quiescence_window(x)
        core = SimulatorCore(crn, policy_factory(crn), rng=random.Random(seed))
        return crn, core.run_on_input(x, **kwargs), core.rng

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_kernel_reproduces_the_literal(self, case):
        _, result, _ = self._kernel_run(case)
        assert _golden_digest(result, result.stats, result.trajectory) == self.GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(FORCED_CASES))
    def test_forced_stretches_reproduce_the_literal(self, case):
        _, result, rng = self._kernel_run(case, FORCED_CASES)
        observed = (_golden_digest(result, result.stats, result.trajectory), rng.random())
        assert observed == self.GOLDEN_FORCED[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_reference_loop_reproduces_the_literal(self, case):
        _, policy_factory, x, seed, kwargs = GOLDEN_CASES[case]
        crn, kernel, _ = self._kernel_run(case)
        policy = policy_factory(crn)
        kwargs = dict(kwargs)
        track = kwargs.pop("track", ())
        rng = random.Random(seed)
        if isinstance(policy, FairPolicy):
            if kwargs.get("quiescence_window", 0) is None:
                kwargs["quiescence_window"] = default_quiescence_window(x)
            reference = ReferenceFairScheduler(crn, rng=rng, bias=policy.bias).run_on_input(
                x, track=track, **kwargs
            )
            observed = SimpleNamespace(
                final_configuration=reference.final_configuration,
                steps=reference.steps,
                silent=reference.silent,
                converged=reference.converged,
                max_output_seen=reference.max_output_seen,
                final_time=0.0,
            )
            trajectory = reference.trajectory if track else None
        else:
            # Gillespie and tau's exact fallback: the direct-method loop,
            # tracking the output at every event for max_output_seen (the tau
            # case's output never falls, so its per-burst view agrees).
            output = crn.output_species
            reference = ReferenceGillespieSimulator(crn, rng=rng).run_on_input(
                x, track=(output,), **kwargs
            )
            observed = SimpleNamespace(
                final_configuration=reference.final_configuration,
                steps=reference.steps,
                silent=reference.silent,
                converged=False,
                max_output_seen=reference.trajectory.max_count_of(output),
                final_time=reference.final_time,
            )
            trajectory = None
        assert _golden_digest(observed, kernel.stats, trajectory) == self.GOLDEN[case]


class TestStepPolicyContract:
    """The :class:`~repro.sim.kernel.StepPolicy` contract, held by every
    built-in policy: exact and approximate, rate-aware and fair."""

    @pytest.mark.parametrize(
        "policy_cls", [FairPolicy, TauLeapPolicy], ids=["fair", "tau"]
    )
    @pytest.mark.parametrize("label,crn,x", STRATEGY_CASES, ids=STRATEGY_IDS)
    def test_stable_computations_reach_the_stable_output(
        self, label, crn, x, policy_cls
    ):
        # Stable computation means a unique achievable final output, reached
        # with probability 1 under any fair or kinetic schedule: every policy
        # must land where the direct method does.
        window = default_quiescence_window(x)
        candidate = SimulatorCore(crn, policy_cls(), rng=random.Random(3)).run_on_input(
            x, max_steps=200_000, quiescence_window=window
        )
        direct = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(3)).run_on_input(
            x, max_steps=200_000, quiescence_window=window
        )
        assert candidate.silent or candidate.converged, label
        assert crn.output_count(candidate.final_configuration) == crn.output_count(
            direct.final_configuration
        ), label

    @pytest.mark.parametrize(
        "policy_cls",
        [FairPolicy, GillespiePolicy, TauLeapPolicy],
        ids=["fair", "gillespie", "tau"],
    )
    def test_silent_at_step_zero(self, policy_cls):
        crn = CRN([X1 >> Y], (X1,), Y)
        result = SimulatorCore(crn, policy_cls(), rng=random.Random(1)).run_on_input(
            (0,)
        )
        assert result.silent and result.steps == 0
        assert result.final_time == 0.0

    @pytest.mark.parametrize(
        "policy_cls",
        [FairPolicy, GillespiePolicy, TauLeapPolicy],
        ids=["fair", "gillespie", "tau"],
    )
    def test_seeded_runs_are_deterministic(self, policy_cls):
        crn = branching_crn()
        first, second = (
            SimulatorCore(crn, policy_cls(), rng=random.Random(7)).run_on_input((40,))
            for _ in range(2)
        )
        assert first.final_configuration == second.final_configuration
        assert first.final_time == second.final_time
        assert first.steps == second.steps
        assert first.selections == second.selections

    def test_gillespie_max_time_clamps_the_clock(self):
        result = SimulatorCore(
            branching_crn(), GillespiePolicy(), rng=random.Random(3)
        ).run_on_input((40,), max_time=0.01)
        assert result.final_time <= 0.01
        assert not result.silent

    def test_tau_distribution_matches_direct_method(self):
        # A coarse in-suite distributional check on the rate-sensitive
        # branching CRN: 200 seeded trajectories per policy, KS on the final
        # output counts.  (The full cross-engine matrix lives in
        # tests/test_statistical_equivalence.py.)
        from repro.verify.statistical import ks_two_sample

        crn = branching_crn()
        tau_outputs = []
        direct_outputs = []
        for seed in range(200):
            tau = SimulatorCore(
                crn, TauLeapPolicy(), rng=random.Random(seed)
            ).run_on_input((40,))
            direct = SimulatorCore(
                crn, GillespiePolicy(), rng=random.Random(10_000 + seed)
            ).run_on_input((40,))
            assert tau.silent and tau.steps == 40
            tau_outputs.append(crn.output_count(tau.final_configuration))
            direct_outputs.append(crn.output_count(direct.final_configuration))
        ks = ks_two_sample(tau_outputs, direct_outputs)
        assert not ks.rejects(1e-3), ks.describe()


#: Each built-in engine's ``EngineInfo.to_dict()``, recorded before the
#: built-ins became registry data: the ``GET /v1/engines`` and
#: ``python -m repro engines --json`` entries must not change by a byte.
#: Only a recalibration of the ``auto`` cost rule (the ``step_cost`` /
#: ``trial_step_cost`` fits of the ``auto-cost/*`` records) moves them.
BUILTIN_ENGINE_INFO = {
    "python": (
        '{"name": "python", "supports_gillespie": true, "supports_fair": true, '
        '"max_recommended_population": null, "min_recommended_population": null, '
        '"approximate": false, "batch_capable": false, "step_cost": 0.0, '
        '"trial_step_cost": 7.3e-07, "description": "Scalar kernel (shared '
        'CompiledCRN IR, sparse incremental propensities); historical seeded '
        'behaviour, bit for bit"}'
    ),
    "vectorized": (
        '{"name": "vectorized", "supports_gillespie": true, "supports_fair": '
        'true, "max_recommended_population": null, "min_recommended_population": '
        'null, "approximate": false, "batch_capable": true, "step_cost": '
        '7.52e-05, "trial_step_cost": 3e-07, "description": "numpy batch '
        'engines advancing all trials per step; reproducible but on a numpy '
        'random stream"}'
    ),
    "tau": (
        '{"name": "tau", "supports_gillespie": true, "supports_fair": false, '
        '"max_recommended_population": null, "min_recommended_population": '
        '10000, "approximate": true, "batch_capable": false, "step_cost": 5.19e-08, '
        '"trial_step_cost": 3.1e-08, "description": "tau-leaping approximate '
        'SSA (Cao-Gillespie tau selection, Poisson firing batches, exact '
        'fallback); error knob RunConfig.epsilon, statistically equivalent to '
        'exact engines"}'
    ),
    "tau-vec": (
        '{"name": "tau-vec", "supports_gillespie": true, "supports_fair": false, '
        '"max_recommended_population": null, "min_recommended_population": '
        '10000, "approximate": true, "batch_capable": true, "step_cost": '
        '6.44e-07, "trial_step_cost": 1.72e-09, "description": "batched '
        'tau-leaping: the whole trial batch advances one Cao-Gillespie leap per '
        'round (dense numpy kinetics, batched Poisson firings, per-trial exact '
        'fallback); error knob RunConfig.epsilon, statistically equivalent to '
        'exact engines"}'
    ),
}


#: Seeded results of each built-in engine, recorded before the built-ins
#: became registry data.  Reports are ``(outputs, max_outputs, steps,
#: all_silent_or_converged)``.
BUILTIN_ENGINE_RESULTS = {
    "python": {
        "max": ([5, 5, 5, 5, 5], [5, 6, 7, 6, 8], [14, 14, 14, 14, 14], True),
        "branching": ([14, 14, 15, 15], [14, 14, 15, 15], [30, 30, 30, 30], False),
        "catalytic": ([4, 4, 4], [4, 4, 4], [605, 606, 606], True),
        "branching_estimate": 7.6,
        "catalytic_estimate": 3.5,
    },
    "vectorized": {
        "max": ([5, 5, 5, 5, 5], [6, 6, 7, 6, 5], [14, 14, 14, 14, 14], True),
        "branching": ([14, 16, 17, 15], [14, 16, 17, 15], [30, 30, 30, 30], False),
        "catalytic": ([4, 4, 4], [4, 4, 4], [611, 610, 607], True),
        "branching_estimate": 8.6,
        "catalytic_estimate": 4.0,
    },
    "tau": {
        "max": ([5, 5, 5, 5, 5], [5, 5, 5, 5, 5], [14, 14, 14, 14, 14], True),
        "branching": ([7, 6, 6, 9], [7, 6, 6, 9], [40, 40, 40, 40], False),
        "catalytic": ([4, 4, 4], [4, 4, 4], [1915, 2256, 2785], True),
        "branching_estimate": 7.6,
        "catalytic_estimate": 4.0,
    },
    "tau-vec": {
        "max": ([5, 5, 5, 5, 5], [5, 5, 5, 5, 5], [14, 14, 14, 14, 14], True),
        "branching": ([9, 10, 9, 7], [9, 10, 9, 7], [40, 40, 40, 40], True),
        "catalytic": ([3, 4, 3], [3, 4, 3], [1096, 2110, 1434], True),
        "branching_estimate": 8.6,
        "catalytic_estimate": 4.0,
    },
}


def catalytic_crn():
    """X1 + X2 -> Y plus a fast no-op Y -> Y: it never falls silent, so a run
    ends by the quiescence window or by ``max_steps``."""
    return CRN([X1 + X2 >> Y, (Y >> Y).with_rate(1000.0)], (X1, X2), Y, name="catalytic")


class TestBuiltinEngineLock:
    """Every built-in engine, end to end through the registry, pinned to
    literals recorded before the engines became two generic adapters.

    A seeded ``run_many`` pins the whole :class:`ConvergenceReport` on three
    CRNs: the overshooting max CRN run to silence, the branching CRN cut off
    by ``max_steps``, and the catalytic CRN stopped by the default
    quiescence window.  A seeded ``estimate_expected_output`` (no window)
    pins the kinetic half, and ``EngineInfo.to_dict()`` the metadata.
    """

    @pytest.mark.parametrize("engine", list(BUILTIN_ENGINE_RESULTS))
    def test_seeded_results_and_metadata_are_unchanged(self, engine):
        import json

        from repro.api.config import RunConfig
        from repro.sim.registry import get_engine
        from repro.sim.runner import estimate_expected_output

        expected = BUILTIN_ENGINE_RESULTS[engine]

        def report(crn, x, **config):
            result = run_many(crn, x, config=RunConfig(engine=engine, **config))
            return (
                result.outputs,
                result.max_outputs,
                result.steps,
                result.all_silent_or_converged,
            )

        def estimate(crn, x, **config):
            return estimate_expected_output(
                crn, x, config=RunConfig(engine=engine, **config)
            )

        max_crn = maximum_spec().known_crn
        assert report(max_crn, (5, 3), trials=5, seed=2024) == expected["max"]
        assert report(
            branching_crn(), (40,), trials=4, seed=31, max_steps=30
        ) == expected["branching"]
        assert report(
            catalytic_crn(), (6, 4), trials=3, seed=8, max_steps=3000
        ) == expected["catalytic"]
        assert estimate(
            branching_crn(), (40,), trials=5, seed=31
        ) == expected["branching_estimate"]
        assert estimate(
            catalytic_crn(), (6, 4), trials=4, seed=8, max_steps=3000
        ) == expected["catalytic_estimate"]
        info = get_engine(engine).to_dict()
        assert json.dumps(info) == BUILTIN_ENGINE_INFO[engine]


#: Every scalar user path in one process -- a ``python``-engine campaign of
#: the paper's constructions, a one-cell shared-dir worker and a serve miss --
#: then one ``vectorized`` cell; prints whether numpy was loaded before and
#: after that cell, and the cell's row.
_SCALAR_PATHS_THEN_A_BATCH_CELL = """
import json, os, sys, tempfile
from repro.api.config import RunConfig
from repro.lab.backends import SharedDirQueue, _WorkerSession
from repro.lab.campaign import Campaign, SweepGrid, run_campaign
from repro.lab.executor import run_cell
from repro.serve import ServeClient, ServerThread
from repro.serve.jobs import single_cell

root = tempfile.mkdtemp()

def campaign(grid):
    return Campaign(
        name="scalar", specs=["minimum", "weighted_floor", "fig7"],
        inputs=SweepGrid.parse(grid, dimension=2), engines=("python",),
        configs=(RunConfig(trials=2),), seed=7,
    )

run = run_campaign(
    campaign("0:2"), out_dir=os.path.join(root, "out"), cache_dir=os.path.join(root, "cache")
)
assert run.results and all(row.ok and row.correct for row in run.results)
queue = SharedDirQueue(os.path.join(root, "queue"))
queue.enqueue(campaign("3:4").expand()[-1:])
worker = _WorkerSession(queue, "w")
assert worker.serve_one(max_cells=1) and not worker.serve_one()
worker.finish()
with ServerThread(port=0, workers=0, cache_dir=os.path.join(root, "serve")) as server:
    status, headers, _ = ServeClient("127.0.0.1", server.port).request(
        "POST", "/v1/simulate",
        {"spec": "weighted_floor", "input": [5, 4],
         "config": {"trials": 2, "seed": 3, "engine": "python"}},
    )
assert status == 200 and headers["x-repro-cache"] == "miss", (status, headers)
before = "numpy" in sys.modules
row = run_cell(single_cell(
    "maximum", "auto", (5, 3), RunConfig(engine="vectorized", trials=5, seed=2024)
))
print(json.dumps({
    "numpy_before": before,
    "numpy_after": "numpy" in sys.modules,
    "row": [row.status, list(row.outputs), row.total_steps, row.converged],
}))
"""


class TestNumpyOnlyWhereABatchEngineRuns:
    """The scalar paths never import numpy; the first batch engine does."""

    def test_scalar_paths_leave_numpy_unloaded(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out = subprocess.run(
            [sys.executable, "-c", _SCALAR_PATHS_THEN_A_BATCH_CELL],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["numpy_before"] is False
        assert report["numpy_after"] is True
        # the cell replays the vectorized engine's pinned "max" report
        outputs, _, steps, settled = BUILTIN_ENGINE_RESULTS["vectorized"]["max"]
        assert report["row"] == ["ok", outputs, sum(steps), settled]


def _scalar_reference(run_policy, kinetic_policy):
    """Hand-rolled ``(run_many, estimate)`` of a scalar engine: one
    :class:`SimulatorCore` per trial seed of the config."""

    def run(crn, x, config, window):
        results = [
            SimulatorCore(crn, run_policy(config), rng=random.Random(seed)).run_on_input(
                x, max_steps=config.max_steps, quiescence_window=window
            )
            for seed in config.trial_seeds()
        ]
        return (
            [crn.output_count(r.final_configuration) for r in results],
            [r.max_output_seen for r in results],
            [r.steps for r in results],
            all(r.silent or r.converged for r in results),
        )

    def estimate(crn, x, config):
        total = 0
        for seed in config.trial_seeds():
            result = SimulatorCore(
                crn, kinetic_policy(config), rng=random.Random(seed)
            ).run_on_input(x, max_steps=config.max_steps)
            total += crn.output_count(result.final_configuration)
        return total / config.trials

    return run, estimate


def _batch_reference(run_engine, kinetic_engine):
    """Hand-rolled ``(run_many, estimate)`` of a batch engine: one batch of
    ``trials`` rows seeded with the config's seed."""

    def run(crn, x, config, window):
        result = run_engine(crn.compiled(), config).run_on_input(
            x, batch=config.trials, max_steps=config.max_steps, quiescence_window=window
        )
        return (
            [int(v) for v in result.output_counts()],
            [int(v) for v in result.max_output_seen],
            [int(v) for v in result.steps],
            result.all_silent_or_converged(),
        )

    def estimate(crn, x, config):
        result = kinetic_engine(crn.compiled(), config).run_on_input(
            x, batch=config.trials, max_steps=config.max_steps
        )
        return float(result.output_counts().mean())

    return run, estimate


def _builtin_references():
    from repro.sim.engine import (
        BatchFairEngine,
        BatchGillespieEngine,
        BatchTauLeapEngine,
    )

    def tau(config):
        return TauLeapPolicy(epsilon=config.epsilon)

    def tau_vec(compiled, config):
        return BatchTauLeapEngine(compiled, seed=config.seed, epsilon=config.epsilon)

    return {
        "python": _scalar_reference(
            lambda config: FairPolicy(), lambda config: GillespiePolicy()
        ),
        "vectorized": _batch_reference(
            lambda compiled, config: BatchFairEngine(compiled, seed=config.seed),
            lambda compiled, config: BatchGillespieEngine(compiled, seed=config.seed),
        ),
        "tau": _scalar_reference(tau, tau),
        "tau-vec": _batch_reference(tau_vec, tau_vec),
    }


BUILTIN_REFERENCES = _builtin_references()


class TestBuiltinAdapters:
    """Each registered built-in replays its underlying sampler, driven by hand.

    ``run_many`` must sample the fair half (the kinetic half for the
    kinetic-only engines) under the config's quiescence window, defaulting
    to the population-scaled one; ``estimate_expected_output`` must sample
    the kinetic half with no window; ``epsilon`` must reach the tau engines.
    """

    @pytest.mark.parametrize("engine", list(BUILTIN_REFERENCES))
    def test_run_many_replays_the_sampler_under_the_default_window(self, engine):
        from repro.api.config import RunConfig

        config = RunConfig(engine=engine, trials=3, seed=12, max_steps=3000, epsilon=0.05)
        report = run_many(catalytic_crn(), (6, 4), config=config)
        run, _ = BUILTIN_REFERENCES[engine]
        expected = run(catalytic_crn(), (6, 4), config, default_quiescence_window((6, 4)))
        assert (
            report.outputs,
            report.max_outputs,
            report.steps,
            report.all_silent_or_converged,
        ) == expected

    @pytest.mark.parametrize("engine", list(BUILTIN_REFERENCES))
    def test_run_many_honours_a_configured_window(self, engine):
        from repro.api.config import RunConfig

        config = RunConfig(engine=engine, trials=3, seed=12, quiescence_window=40)
        report = run_many(catalytic_crn(), (6, 4), config=config)
        run, _ = BUILTIN_REFERENCES[engine]
        expected = run(catalytic_crn(), (6, 4), config, 40)
        assert (
            report.outputs,
            report.max_outputs,
            report.steps,
            report.all_silent_or_converged,
        ) == expected
        assert report.all_silent_or_converged
        # the catalytic no-op never lets a run fall silent, so the shorter
        # window ends it sooner than the default one does
        default = run_many(
            catalytic_crn(), (6, 4), config=RunConfig(engine=engine, trials=3, seed=12)
        )
        assert sum(report.steps) < sum(default.steps)

    @pytest.mark.parametrize("engine", list(BUILTIN_REFERENCES))
    def test_estimate_replays_the_kinetic_sampler(self, engine):
        from repro.api.config import RunConfig
        from repro.sim.runner import estimate_expected_output

        config = RunConfig(engine=engine, trials=6, seed=5, epsilon=0.05)
        estimate = estimate_expected_output(branching_crn(), (40,), config=config)
        _, reference = BUILTIN_REFERENCES[engine]
        assert estimate == reference(branching_crn(), (40,), config)


class TestSimulatorCore:
    def test_quiescence_window_converges_catalytic_network(self):
        crn = CRN([X1 + X2 >> X1 + X2], (X1, X2), Y)
        core = SimulatorCore(crn, FairPolicy(), rng=random.Random(8))
        result = core.run_on_input((2, 2), quiescence_window=50, max_steps=10_000)
        assert result.converged and not result.silent
        assert result.steps == 50

    def test_nothing_applicable_is_silent_at_step_zero(self):
        crn = CRN([X1 >> Y], (X1,), Y)
        core = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(1))
        result = core.run_on_input((0,))
        assert result.silent and result.steps == 0
        assert result.final_configuration == Configuration({})

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_record_every_below_one_is_rejected(self, record_every):
        core = SimulatorCore(minimum_spec().known_crn, FairPolicy())
        with pytest.raises(ValueError, match="record_every"):
            core.run_on_input((3, 4), track=[Y], record_every=record_every)

    def test_accepts_precompiled_ir(self):
        crn = minimum_spec().known_crn
        core = SimulatorCore(crn.compiled(), FairPolicy(), rng=random.Random(2))
        result = core.run_on_input((3, 9))
        assert result.silent
        assert result.final_configuration[Y] == 3

    def test_exact_policies_report_selections_equal_to_steps(self):
        crn = minimum_spec().known_crn
        result = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(3)).run_on_input(
            (20, 30)
        )
        assert result.selections == result.steps == 20

    def test_default_quiescence_window_is_single_sourced(self):
        import repro.sim as sim
        import repro.sim.kernel as kernel
        import repro.sim.runner as runner

        assert sim.default_quiescence_window is kernel.default_quiescence_window
        assert runner.default_quiescence_window is kernel.default_quiescence_window
        assert default_quiescence_window((2, 2)) == max(200, 50 * 6)
