"""Scalar-vs-vectorized equivalence suite for the batch simulation engine.

The scalar kernel (``SimulatorCore``) is the reference oracle: for every catalog CRN the
batch engines must reach the identical stable output, and their step counts
must statistically match the scalar ones.  Also covers the dense compilation
(`CompiledCRN`), seeding policy, the engine selectors on the runners, and
seeded sha256 pins of the batch engines' streams.
"""

import hashlib
import io
import json
import math
import pickle
import random

import numpy as np
import pytest

from repro.crn.configuration import Configuration
from repro.crn.network import CRN
from repro.crn.species import Species, species
from repro.functions.catalog import (
    add_spec,
    constant_spec,
    double_spec,
    floor_3x_over_2_spec,
    identity_spec,
    maximum_spec,
    min_one_spec,
    minimum_spec,
)
from repro.sim import (
    BatchFairEngine,
    BatchGillespieEngine,
    BatchTauLeapEngine,
    CompiledCRN,
    FairPolicy,
    GillespiePolicy,
    SimulatorCore,
    estimate_expected_output,
    run_many,
)
from repro.sim.fair import output_producing_bias
from repro.verify import verify_stable_computation


SPEC_FACTORIES = [
    double_spec,
    identity_spec,
    lambda: constant_spec(2),
    add_spec,
    minimum_spec,
    maximum_spec,
    min_one_spec,
    floor_3x_over_2_spec,
]
SPEC_IDS = ["double", "identity", "const2", "add", "min", "max", "min1", "floor3x2"]


def small_inputs(dimension):
    if dimension == 1:
        return [(0,), (1,), (3,), (6,)]
    return [(0, 0), (1, 0), (2, 3), (5, 5), (6, 2)]


# ---------------------------------------------------------------------------
# CompiledCRN: dense compilation, encoding, vectorized kinetics
# ---------------------------------------------------------------------------


class TestCompiledCRN:
    def test_stoichiometry_matrices(self):
        crn = floor_3x_over_2_spec().known_crn  # X -> 3Z, 2Z -> Y
        compiled = CompiledCRN(crn)
        x, y, z = (compiled.index[Species(n)] for n in "XYZ")
        assert compiled.reactants[0, x] == 1 and compiled.products[0, z] == 3
        assert compiled.reactants[1, z] == 2 and compiled.products[1, y] == 1
        assert (compiled.net == compiled.products - compiled.reactants).all()
        assert compiled.output_index == y
        assert compiled.n_reactions == 2 and compiled.n_species == 3

    def test_species_order_matches_crn(self):
        crn = maximum_spec().known_crn
        compiled = CompiledCRN(crn)
        assert compiled.species == crn.species()

    def test_encode_decode_roundtrip(self):
        crn = maximum_spec().known_crn
        compiled = crn.compiled()
        config = crn.initial_configuration((4, 9))
        assert compiled.decode(compiled.encode(config)) == config

    def test_encode_rejects_foreign_species(self):
        compiled = minimum_spec().known_crn.compiled()
        with pytest.raises(ValueError):
            compiled.encode(Configuration({Species("Nope"): 1}))

    def test_encode_batch_tiles_rows(self):
        crn = minimum_spec().known_crn
        compiled = crn.compiled()
        batch = compiled.encode_batch(crn.initial_configuration((2, 3)), 5)
        assert batch.shape == (5, compiled.n_species)
        assert (batch == batch[0]).all()

    def test_encode_batch_rejects_empty_batch(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            crn.compiled().encode_batch(crn.initial_configuration((1, 1)), 0)

    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_propensities_match_scalar(self, factory):
        crn = factory().known_crn
        compiled = crn.compiled()
        rng = random.Random(13)
        for _ in range(10):
            config = Configuration(
                {sp: rng.randrange(0, 6) for sp in compiled.species}
            )
            matrix = compiled.propensities(compiled.encode(config)[None, :])
            scalar = [rxn.propensity(config) for rxn in crn.reactions]
            assert matrix[0] == pytest.approx(scalar)

    def test_propensities_higher_order_binomials(self):
        a, b = species("A B")
        crn = CRN([3 * a >> b], (a,), b, name="cubic")
        compiled = crn.compiled()
        for n in range(7):
            value = compiled.propensities(np.array([[n, 0]]))[0, 0]
            assert value == pytest.approx(math.comb(n, 3))

    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_applicability_matches_scalar(self, factory):
        crn = factory().known_crn
        compiled = crn.compiled()
        rng = random.Random(17)
        for _ in range(10):
            config = Configuration(
                {sp: rng.randrange(0, 3) for sp in compiled.species}
            )
            mask = compiled.applicable(compiled.encode(config)[None, :])[0]
            assert mask.tolist() == [rxn.applicable(config) for rxn in crn.reactions]

    def test_crn_compiled_is_cached(self):
        crn = minimum_spec().known_crn
        assert crn.compiled() is crn.compiled()


# ---------------------------------------------------------------------------
# Stable-output equivalence against the scalar oracle
# ---------------------------------------------------------------------------


class TestGillespieEquivalence:
    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_identical_stable_outputs(self, factory):
        spec = factory()
        crn = spec.known_crn
        engine = BatchGillespieEngine(crn.compiled(), seed=5)
        for x in small_inputs(spec.dimension):
            expected = spec.func(x)
            scalar = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(5)).run_on_input(x)
            assert scalar.silent
            assert crn.output_count(scalar.final_configuration) == expected
            result = engine.run_on_input(x, batch=8)
            assert result.silent.all()
            assert (result.output_counts() == expected).all()

    def test_step_counts_match_deterministic_crns(self):
        # For these CRNs every fair/Gillespie run fires the same number of
        # reactions regardless of schedule, so the batch engine must agree
        # exactly with the scalar oracle.
        cases = [
            (double_spec(), (7,), 7),
            (minimum_spec(), (4, 9), 4),
            (add_spec(), (3, 5), 8),
        ]
        for spec, x, expected_steps in cases:
            crn = spec.known_crn
            scalar = SimulatorCore(crn, GillespiePolicy(), rng=random.Random(2)).run_on_input(x)
            result = BatchGillespieEngine(crn.compiled(), seed=2).run_on_input(x, batch=6)
            assert scalar.steps == expected_steps
            assert (result.steps == expected_steps).all()

    def test_step_counts_statistically_match_max(self):
        # The max CRN's step count is schedule-dependent; the batch engine
        # samples the same CTMC, so the means must agree within sampling noise.
        crn = maximum_spec().known_crn
        trials = 60
        rng = random.Random(21)
        scalar_steps = [
            SimulatorCore(crn, GillespiePolicy(), rng=random.Random(rng.getrandbits(64)))
            .run_on_input((6, 6))
            .steps
            for _ in range(trials)
        ]
        batch = BatchGillespieEngine(crn.compiled(), seed=21).run_on_input(
            (6, 6), batch=trials
        )
        scalar_mean = sum(scalar_steps) / trials
        batch_mean = float(batch.steps.mean())
        assert batch_mean == pytest.approx(scalar_mean, rel=0.25)

    def test_max_steps_bound(self):
        crn = double_spec().known_crn
        result = BatchGillespieEngine(crn.compiled(), seed=1).run_on_input(
            (100,), batch=4, max_steps=10
        )
        assert (result.steps == 10).all()
        assert not result.silent.any()

    def test_max_time_clamps_clock(self):
        crn = double_spec().known_crn
        result = BatchGillespieEngine(crn.compiled(), seed=1).run_on_input(
            (1000,), batch=4, max_time=1e-6
        )
        assert (result.times <= 1e-6).all()
        assert not result.silent.any()

    def test_final_times_positive_on_silent_runs(self):
        crn = minimum_spec().known_crn
        result = BatchGillespieEngine(crn.compiled(), seed=9).run_on_input((5, 5), batch=3)
        assert result.silent.all()
        assert (result.times > 0).all()


class TestFairEquivalence:
    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_identical_stable_outputs(self, factory):
        spec = factory()
        crn = spec.known_crn
        engine = BatchFairEngine(crn.compiled(), seed=7)
        for x in small_inputs(spec.dimension):
            expected = spec.func(x)
            scalar = SimulatorCore(crn, FairPolicy(), rng=random.Random(7)).run_on_input(x)
            assert scalar.silent
            assert crn.output_count(scalar.final_configuration) == expected
            result = engine.run_on_input(x, batch=8)
            assert result.silent.all()
            assert (result.output_counts() == expected).all()

    def test_zero_reaction_crn_is_silent_everywhere(self):
        # A scalar run reports silent=True for an empty network; the
        # batch engines must agree instead of tripping on a (B, 0) matrix.
        x, y = species("X Y")
        crn = CRN([], (x,), y)
        for engine_cls in (BatchGillespieEngine, BatchFairEngine):
            result = engine_cls(crn.compiled(), seed=1).run_on_input((3,), batch=4)
            assert result.silent.all()
            assert (result.steps == 0).all()
            assert (result.output_counts() == 0).all()

    def test_quiescence_window_terminates_catalytic_network(self):
        x1, x2, y = species("X1 X2 Y")
        crn = CRN([x1 + x2 >> x1 + x2], (x1, x2), y)
        result = BatchFairEngine(crn.compiled(), seed=8).run_on_input(
            (2, 2), batch=4, quiescence_window=50, max_steps=10_000
        )
        assert result.converged.all()
        assert not result.silent.any()
        assert result.all_silent_or_converged()

    def test_producing_bias_overshoots_max(self):
        crn = maximum_spec().known_crn
        engine = BatchFairEngine(
            crn.compiled(), seed=6, bias=output_producing_bias(crn)
        )
        result = engine.run_on_input((4, 4), batch=8, quiescence_window=500)
        # The adversarial schedule pushes the output above max(4,4)=4
        # transiently in at least some rows (the scalar test asserts the same).
        assert result.max_output_seen.max() > 4
        assert (result.output_counts() == 4).all()

    def test_max_output_seen_tracks_peak(self):
        crn = minimum_spec().known_crn
        result = BatchFairEngine(crn.compiled(), seed=4).run_on_input((3, 9), batch=4)
        assert (result.max_output_seen == 3).all()

    def test_configurations_decode_to_oracle_configuration(self):
        crn = minimum_spec().known_crn
        result = BatchFairEngine(crn.compiled(), seed=3).run_on_input((2, 5), batch=3)
        scalar = SimulatorCore(crn, FairPolicy(), rng=random.Random(3)).run_on_input((2, 5))
        for config in result.configurations():
            assert config == scalar.final_configuration


# ---------------------------------------------------------------------------
# Seeding / reproducibility policy
# ---------------------------------------------------------------------------


class TestSeeding:
    def test_same_seed_same_batch(self):
        crn = maximum_spec().known_crn
        first = BatchGillespieEngine(crn.compiled(), seed=42).run_on_input((5, 7), batch=10)
        second = BatchGillespieEngine(crn.compiled(), seed=42).run_on_input((5, 7), batch=10)
        assert (first.counts == second.counts).all()
        assert (first.steps == second.steps).all()
        assert first.times == pytest.approx(second.times)

    def test_different_seeds_differ(self):
        crn = maximum_spec().known_crn
        first = BatchGillespieEngine(crn.compiled(), seed=1).run_on_input((8, 8), batch=10)
        second = BatchGillespieEngine(crn.compiled(), seed=2).run_on_input((8, 8), batch=10)
        assert (first.steps != second.steps).any() or first.times != pytest.approx(second.times)

    def test_explicit_generator_accepted(self):
        crn = minimum_spec().known_crn
        engine = BatchFairEngine(crn.compiled(), rng=np.random.default_rng(3))
        assert (engine.run_on_input((2, 2), batch=2).output_counts() == 2).all()

    def test_seed_and_rng_are_exclusive(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            BatchGillespieEngine(crn.compiled(), seed=1, rng=np.random.default_rng(1))

    def test_python_engine_seeded_behaviour_unchanged(self):
        # The default engine must reproduce the historical seeded stream so
        # existing experiments stay bit-for-bit reproducible.
        crn = maximum_spec().known_crn
        first = run_many(crn, (4, 6), trials=5, seed=10)
        second = run_many(crn, (4, 6), trials=5, seed=10, engine="python")
        assert first.outputs == second.outputs
        assert first.steps == second.steps


# ---------------------------------------------------------------------------
# Runner / verifier rewiring
# ---------------------------------------------------------------------------


class TestEngineSelector:
    def test_run_many_vectorized_report(self):
        crn = minimum_spec().known_crn
        report = run_many(crn, (2, 5), trials=6, seed=10, engine="vectorized")
        assert report.input_value == (2, 5)
        assert report.output_unanimous
        assert report.output_mode == 2
        assert report.all_silent_or_converged
        assert report.max_overshoot == 0
        assert len(report.outputs) == len(report.steps) == 6

    def test_run_many_vectorized_is_reproducible(self):
        crn = maximum_spec().known_crn
        first = run_many(crn, (3, 8), trials=6, seed=10, engine="vectorized")
        second = run_many(crn, (3, 8), trials=6, seed=10, engine="vectorized")
        assert first.outputs == second.outputs
        assert first.steps == second.steps

    def test_run_many_rejects_unknown_engine(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            run_many(crn, (1, 1), engine="cuda")

    def test_estimate_expected_output_vectorized(self):
        crn = double_spec().known_crn
        estimate = estimate_expected_output(
            crn, (6,), trials=5, seed=11, engine="vectorized"
        )
        assert estimate == pytest.approx(12.0)

    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_verify_stable_computation_vectorized(self, factory):
        spec = factory()
        report = verify_stable_computation(
            spec.known_crn,
            spec.func,
            inputs=small_inputs(spec.dimension),
            method="simulation",
            trials=4,
            engine="vectorized",
            function_name=spec.name,
        )
        assert report.passed, report.describe()

    def test_verify_rejects_unknown_engine_even_on_exhaustive_path(self):
        spec = minimum_spec()
        with pytest.raises(ValueError):
            verify_stable_computation(
                spec.known_crn, spec.func, inputs=[(1, 1)], method="exhaustive", engine="cuda"
            )

    def test_verify_vectorized_catches_wrong_function(self):
        spec = minimum_spec()
        report = verify_stable_computation(
            spec.known_crn,
            lambda x: max(x),  # wrong on asymmetric inputs
            inputs=[(2, 5)],
            method="simulation",
            trials=4,
            engine="vectorized",
        )
        assert not report.passed


# ---------------------------------------------------------------------------
# BatchTauLeapEngine: vectorized tau-leaping (engine="tau-vec")
# ---------------------------------------------------------------------------


class TestBatchTauLeapEngine:
    """The batched tau-leap engine against the scalar oracle and its own rails.

    Distributional admission lives in ``tests/test_statistical_equivalence.py``
    (KS gates, ``-m statistical``); this class covers the deterministic
    contract — stable outputs, safety rails, bounds, stats, and knobs.
    """

    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_identical_stable_outputs_small_inputs(self, factory):
        # Small populations sit entirely under the n_critical rule, so this
        # exercises the exact-fallback path: the engine must degrade to the
        # exact batch engine and still reach every stable output.
        spec = factory()
        crn = spec.known_crn
        engine = BatchTauLeapEngine(crn.compiled(), seed=5)
        for x in small_inputs(spec.dimension):
            expected = spec.func(x)
            result = engine.run_on_input(x, batch=8)
            assert result.silent.all()
            assert (result.output_counts() == expected).all()

    def test_large_population_collapses_leap_rounds(self):
        # The point of leaping: 5000 firings per trial in a few hundred leap
        # rounds shared by the whole batch, not 5000 scheduler iterations.
        crn = minimum_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=7).run_on_input(
            (5_000, 5_000), batch=16
        )
        assert result.silent.all()
        assert (result.output_counts() == 5_000).all()
        assert (result.steps == 5_000).all()
        assert result.stats is not None
        assert result.stats.selections < 1_000  # leap rounds, not events

    def test_counts_never_negative_and_clock_advances(self):
        crn = minimum_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=3).run_on_input(
            (2_000, 1_500), batch=8
        )
        assert (result.counts >= 0).all()
        assert (result.times > 0).all()

    def test_max_steps_bound_overshoots_by_at_most_one_leap(self):
        crn = double_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=1).run_on_input(
            (100_000,), batch=4, max_steps=10_000
        )
        assert (result.steps >= 10_000).all()
        assert not result.silent.any()

    def test_max_time_clamps_clock(self):
        crn = double_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=1).run_on_input(
            (100_000,), batch=4, max_time=1e-7
        )
        assert (result.times <= 1e-7).all()
        assert not result.silent.any()

    def test_quiescence_window_terminates_catalytic_network(self):
        # X1 + X2 -> X1 + X2 never falls silent and never moves the output;
        # the leap-granularity quiescence window must stop it, mirroring the
        # scalar SimulatorCore semantics.  Purely catalytic kinetics also
        # exercise the infinite-tau cap (tau bounded to 1000 expected
        # firings), so the window is crossed in a handful of leap rounds.
        x1, x2, y = species("X1 X2 Y")
        crn = CRN([x1 + x2 >> x1 + x2], (x1, x2), y)
        result = BatchTauLeapEngine(crn.compiled(), seed=4).run_on_input(
            (50, 50), batch=6, quiescence_window=500, max_steps=100_000
        )
        assert result.converged.all()
        assert not result.silent.any()

    def test_zero_reaction_crn_is_silent_everywhere(self):
        X, Y = species("X Y")
        crn = CRN([], (X,), Y)
        result = BatchTauLeapEngine(crn.compiled(), seed=2).run_on_input((9,), batch=5)
        assert result.silent.all()
        assert (result.steps == 0).all()

    def test_run_stats_are_uniform_and_consistent(self):
        crn = minimum_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=11).run_on_input(
            (50_000, 50_000), batch=8
        )
        stats = result.stats
        assert stats.events == int(result.steps.sum())
        assert 0 < stats.selections < stats.events
        assert stats.propensity_ops > 0
        assert stats.rng_draws > 0
        assert stats.wall_s > 0.0

    def test_same_seed_same_batch(self):
        crn = maximum_spec().known_crn
        first = BatchTauLeapEngine(crn.compiled(), seed=42).run_on_input(
            (5_000, 7_000), batch=6
        )
        second = BatchTauLeapEngine(crn.compiled(), seed=42).run_on_input(
            (5_000, 7_000), batch=6
        )
        assert (first.counts == second.counts).all()
        assert (first.steps == second.steps).all()
        assert first.times == pytest.approx(second.times)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, "x", True])
    def test_epsilon_validated(self, epsilon):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            BatchTauLeapEngine(crn.compiled(), seed=1, epsilon=epsilon)

    def test_safety_knobs_validated(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            BatchTauLeapEngine(crn.compiled(), seed=1, n_critical=0.0)
        with pytest.raises(ValueError):
            BatchTauLeapEngine(crn.compiled(), seed=1, exact_burst=0)
        with pytest.raises(ValueError):
            BatchTauLeapEngine(crn.compiled(), seed=1, max_rejections=0)

    def test_run_many_tau_vec_report(self):
        crn = minimum_spec().known_crn
        report = run_many(crn, (3_000, 4_000), trials=6, seed=10, engine="tau-vec")
        assert report.output_unanimous
        assert report.output_mode == 3_000
        assert report.all_silent_or_converged
        assert len(report.outputs) == len(report.steps) == 6

    def test_run_many_tau_vec_is_reproducible(self):
        crn = maximum_spec().known_crn
        first = run_many(crn, (3_000, 8_000), trials=6, seed=10, engine="tau-vec")
        second = run_many(crn, (3_000, 8_000), trials=6, seed=10, engine="tau-vec")
        assert first.outputs == second.outputs
        assert first.steps == second.steps

    def test_estimate_expected_output_tau_vec(self):
        crn = double_spec().known_crn
        estimate = estimate_expected_output(
            crn, (6_000,), trials=4, seed=11, engine="tau-vec"
        )
        assert estimate == pytest.approx(12_000.0)

    def test_tau_vec_rejects_fair_requests(self):
        from repro.sim.registry import validate_engine_request

        with pytest.raises(ValueError, match="supports_fair=False"):
            validate_engine_request("tau-vec", fair=True)
        # epsilon= is exactly what the approximate engine is for.
        info = validate_engine_request("tau-vec", epsilon=0.05)
        assert info.approximate and info.batch_capable


# ---------------------------------------------------------------------------
# Seeded stream pins for the batch paths the registry lock does not reach
# ---------------------------------------------------------------------------


def _catalytic_crn():
    """X1 + X2 -> Y plus a fast no-op Y -> Y: never silent once Y appears,
    and its no-op swells the tau-vec total propensity, so small-count
    leaps on X1 + X2 -> Y get rejected and halved."""
    x1, x2, y = species("X1 X2 Y")
    return CRN([x1 + x2 >> y, (y >> y).with_rate(1000.0)], (x1, x2), y, name="catalytic")


def _reaction_free_crn():
    x, y = species("X Y")
    return CRN([], (x,), y)


def _zero_output_bias(crn):
    """Weight 0 on output-producing reactions: a row where only those are
    applicable falls back to the uniform choice."""
    output = crn.output_species
    return lambda rxn: 0.0 if rxn.net_change(output) > 0 else 1.0


def _digest(result):
    """sha256 over every field of a batch result except tau's wall clock."""
    fields = {
        name: getattr(result, name).tolist()
        for name in ("counts", "steps", "silent", "converged", "max_output_seen")
    }
    fields["times"] = None if result.times is None else result.times.tolist()
    if result.stats is not None:
        stats = result.stats.to_dict()
        del stats["wall_s"]
        fields["stats"] = stats
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


#: name -> (run thunk, sha256 of its result), recorded before the batch
#: engines shared one lockstep driver.
BATCH_STREAM_PINS = {
    "gillespie-max-time": (
        lambda: BatchGillespieEngine(maximum_spec().known_crn.compiled(), seed=3)
        .run_on_input((30, 25), batch=7, max_time=0.3),
        "040672c9f11b93fa3945db136b7d932245ac0be3433ba0638c4c3cad9c0ec184",
    ),
    "gillespie-max-steps": (
        lambda: BatchGillespieEngine(minimum_spec().known_crn.compiled(), seed=4)
        .run_on_input((40, 35), batch=7, max_steps=20),
        "fae62fb38c2818849e5e3ac2377f78b0fa1c0d91e78978b33db7a0b595dc65ed",
    ),
    "fair-producing-bias-window": (
        lambda: BatchFairEngine(
            maximum_spec().known_crn.compiled(),
            seed=5,
            bias=output_producing_bias(maximum_spec().known_crn),
        ).run_on_input((12, 9), batch=7, quiescence_window=6),
        "bb0f07573db7e05bf5f01ce1f98682c3f34c7c81f5048caa82d334cec015e1c7",
    ),
    "fair-zero-weight-bias-window": (
        lambda: BatchFairEngine(
            _catalytic_crn().compiled(), seed=6, bias=_zero_output_bias(_catalytic_crn())
        ).run_on_input((12, 9), batch=7, quiescence_window=50, max_steps=5_000),
        "d30a4a5cf90c467aa91e7954ad2b73a499a5ee1b81eb60b23b54652213b6ecd9",
    ),
    "tau-vec-rejections-and-fallback": (
        lambda: BatchTauLeapEngine(_catalytic_crn().compiled(), seed=13, epsilon=0.2)
        .run_on_input((30, 20), batch=9, max_steps=20_000),
        "f746bffb983ed14c0dd5f6f8f50e12b731d3b1505f975b0938e40e108352008d",
    ),
    "tau-vec-max-time": (
        lambda: BatchTauLeapEngine(_catalytic_crn().compiled(), seed=13, epsilon=0.2)
        .run_on_input((60, 40), batch=9, max_time=0.05),
        "97f222650278f2e97a7b2f6d23668c4e2d8383cbe35c40d98bdf23c17a80f270",
    ),
    "reaction-free-gillespie": (
        lambda: BatchGillespieEngine(_reaction_free_crn().compiled(), seed=1)
        .run_on_input((4,), batch=3, max_time=1.0),
        "52a281aa8e8129c3c0374d559b6e3fdfe73a902b0762f156b639325b469b3a21",
    ),
    "reaction-free-fair": (
        lambda: BatchFairEngine(_reaction_free_crn().compiled(), seed=1)
        .run_on_input((4,), batch=3, quiescence_window=5),
        "a0f40c667626d0fa3cbea2e014143c35004e5577789ffedb50d0bedc1a0942fc",
    ),
    "reaction-free-tau-vec": (
        lambda: BatchTauLeapEngine(_reaction_free_crn().compiled(), seed=1)
        .run_on_input((4,), batch=3, quiescence_window=5),
        "e288de50352c31f15db7f596abd5715e2a6af37d9bc8d99d7fc6ad65dddb6e49",
    ),
}


class TestBatchStreamPins:
    """Seeded sha256 pins over whole batch results (counts, steps, flags,
    peak output, clocks and tau's stats), one per engine path that
    ``TestBuiltinEngineLock`` does not reach: the Gillespie ``max_time``
    clamp and ``max_steps`` cut, biased fair runs under a window, tau-vec's
    rejections, exact fallback and ``max_time`` clamp, and a network with
    no reactions."""

    @pytest.mark.parametrize("name", list(BATCH_STREAM_PINS))
    def test_seeded_batch_stream_is_unchanged(self, name):
        run, expected = BATCH_STREAM_PINS[name]
        assert _digest(run()) == expected

    def test_a_compilation_that_ran_pickles_without_arrays_and_replays(self):
        # The dense members a batch run built are dropped from the pickle and
        # rebuilt by the copy on its first run.
        _, expected = BATCH_STREAM_PINS["gillespie-max-time"]
        compiled = CompiledCRN(maximum_spec().known_crn)

        def run(network):
            return BatchGillespieEngine(network, seed=3).run_on_input(
                (30, 25), batch=7, max_time=0.3
            )

        assert _digest(run(compiled)) == expected
        assert isinstance(compiled.__dict__.get("net"), np.ndarray)
        arrays = []

        class ArraySpy(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, np.ndarray):
                    arrays.append(obj)
                return None

        buffer = io.BytesIO()
        ArraySpy(buffer).dump(compiled)
        assert not arrays
        clone = pickle.loads(buffer.getvalue())
        assert not any(name in clone.__dict__ for name in ("reactants", "products", "net", "rates"))
        assert _digest(run(clone)) == expected
