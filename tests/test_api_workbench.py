"""The repro.api facade: RunConfig, Workbench, CompiledFunction, public surface."""

import os
import re

import pytest

import repro
from repro import RunConfig, Workbench
from repro.core.characterization import build_crn_for
from repro.core.construction_1d import build_1d_crn
from repro.core.construction_leaderless import build_leaderless_1d_crn
from repro.core.construction_quilt import build_quilt_affine_crn
from repro.functions.catalog import (
    double_spec,
    maximum_spec,
    minimum_spec,
    quilt_2d_fig3b_spec,
    threshold_capped_spec,
)
from repro.sim.runner import ConvergenceReport, run_many, sweep_inputs


def same_network(a, b):
    """Structural equality: same reaction multiset, inputs, output, leader."""
    return (
        sorted(str(rxn) for rxn in a.reactions) == sorted(str(rxn) for rxn in b.reactions)
        and a.input_species == b.input_species
        and a.output_species == b.output_species
        and a.leader == b.leader
    )


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.trials == 10
        assert config.max_steps == 1_000_000
        assert config.quiescence_window is None
        assert config.seed is None
        assert config.engine == "python"
        assert config.epsilon == 0.03

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, "0.1", None, True])
    def test_epsilon_validated_in_open_unit_interval(self, bad):
        with pytest.raises(ValueError, match="epsilon"):
            RunConfig(epsilon=bad)

    @pytest.mark.parametrize("good", [0.001, 0.03, 0.5, 0.999])
    def test_epsilon_accepts_open_unit_interval(self, good):
        assert RunConfig(epsilon=good).epsilon == good

    def test_epsilon_round_trips_and_keys_the_cache(self):
        config = RunConfig(epsilon=0.12, seed=4)
        assert RunConfig.from_dict(config.to_dict()) == config
        assert config.to_dict()["epsilon"] == 0.12
        # A different error tolerance is a different cached result.
        assert config.cache_key() != config.replace(epsilon=0.03).cache_key()

    def test_from_dict_without_epsilon_defaults(self):
        # Rows written before the epsilon field still load (campaign
        # manifests, cached cells).
        legacy = {"trials": 3, "seed": 9, "engine": "python"}
        assert RunConfig.from_dict(legacy).epsilon == 0.03

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3", True])
    def test_trials_validated(self, bad):
        with pytest.raises(ValueError, match="trials"):
            RunConfig(trials=bad)

    @pytest.mark.parametrize("bad", [0, -5, True])
    def test_max_steps_validated(self, bad):
        with pytest.raises(ValueError, match="max_steps"):
            RunConfig(max_steps=bad)

    @pytest.mark.parametrize("bad", [0, True, False])
    def test_quiescence_window_validated(self, bad):
        with pytest.raises(ValueError, match="quiescence_window"):
            RunConfig(quiescence_window=bad)
        assert RunConfig(quiescence_window=None).quiescence_window is None

    def test_bools_are_not_counts(self):
        # True == 1, but its JSON (and so the cache key) differs, which would
        # give two equal configs different keys.
        with pytest.raises(ValueError, match="trials"):
            RunConfig(trials=True, seed=1)
        with pytest.raises(ValueError, match="trials"):
            RunConfig(seed=1).replace(trials=True)

    def test_frozen_and_replace(self):
        config = RunConfig(seed=1)
        with pytest.raises(Exception):
            config.trials = 3
        derived = config.replace(trials=3, engine="vectorized")
        assert (derived.trials, derived.engine, derived.seed) == (3, "vectorized", 1)
        assert config.trials == 10  # original untouched
        with pytest.raises(ValueError):
            config.replace(trials=0)  # derivation re-validates

    def test_trial_seeds_match_historical_stream(self):
        import random

        master = random.Random(10)
        expected = tuple(master.getrandbits(64) for _ in range(5))
        assert RunConfig(trials=5, seed=10).trial_seeds() == expected

    def test_per_input_seeds_are_independent_and_reproducible(self):
        config = RunConfig(seed=12)
        first = config.per_input(3)
        second = config.per_input(3)
        assert [c.seed for c in first] == [c.seed for c in second]
        assert len({c.seed for c in first}) == 3
        assert all(c.seed != 12 for c in first)

    def test_per_input_without_seed_stays_unseeded(self):
        configs = RunConfig().per_input(2)
        assert all(c.seed is None for c in configs)


class TestConvergenceReportGuards:
    def test_output_mode_raises_clearly_on_zero_runs(self):
        report = ConvergenceReport(
            input_value=(1,), outputs=[], max_outputs=[], steps=[],
            all_silent_or_converged=True,
        )
        with pytest.raises(ValueError, match="zero runs"):
            report.output_mode
        assert report.max_overshoot == 0
        assert report.mean_steps == 0.0

    def test_run_many_rejects_zero_trials(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError, match="trials"):
            run_many(crn, (1, 1), trials=0)


class TestSweepSeeding:
    def test_identical_inputs_get_independent_streams(self):
        # Regression: the master seed used to be forwarded verbatim to every
        # run_many call, so all inputs of a sweep replayed one random stream.
        crn = maximum_spec().known_crn
        reports = sweep_inputs(crn, [(8, 8), (8, 8), (8, 8)], trials=6, seed=5)
        peaks = [tuple(r.max_outputs) for r in reports]
        assert len(set(peaks)) > 1, "all sweep inputs replayed the same stream"

    def test_sweep_is_reproducible_from_the_master_seed(self):
        crn = maximum_spec().known_crn
        first = sweep_inputs(crn, [(4, 9), (8, 8)], trials=4, seed=12)
        second = sweep_inputs(crn, [(4, 9), (8, 8)], trials=4, seed=12)
        assert [r.steps for r in first] == [r.steps for r in second]
        assert [r.max_outputs for r in first] == [r.max_outputs for r in second]

    def test_sweep_outputs_unchanged(self):
        crn = minimum_spec().known_crn
        reports = sweep_inputs(crn, [(1, 1), (2, 3)], trials=3, seed=12)
        assert [r.output_mode for r in reports] == [1, 2]


class TestLegacySignatureEquivalence:
    def test_run_many_config_equals_kwargs_bit_for_bit(self):
        crn = maximum_spec().known_crn
        by_kwargs = run_many(crn, (4, 6), trials=5, seed=10)
        by_config = run_many(crn, (4, 6), config=RunConfig(trials=5, seed=10))
        assert by_kwargs.outputs == by_config.outputs
        assert by_kwargs.steps == by_config.steps
        assert by_kwargs.max_outputs == by_config.max_outputs

    def test_verify_config_equals_kwargs(self):
        from repro.verify import verify_stable_computation

        spec = maximum_spec()
        crn = spec.known_crn
        kwargs_report = verify_stable_computation(
            crn, spec.func, inputs=[(2, 3)], method="simulation", trials=4, seed=7
        )
        config_report = verify_stable_computation(
            crn, spec.func, inputs=[(2, 3)], method="simulation",
            config=RunConfig(trials=4, max_steps=400_000, seed=7),
        )
        assert (
            kwargs_report.results[0].observed_outputs
            == config_report.results[0].observed_outputs
        )


class TestWorkbenchCompile:
    def test_auto_prefers_known_crn(self):
        spec = minimum_spec()
        compiled = Workbench().compile(spec)
        assert compiled.crn is spec.known_crn

    def test_known_strategy_requires_a_known_crn(self):
        with pytest.raises(ValueError, match="no hand-written CRN"):
            Workbench().compile(threshold_capped_spec(), strategy="known")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            Workbench().compile(minimum_spec(), strategy="quantum")

    def test_1d_strategy_matches_direct_construction(self):
        spec = threshold_capped_spec()
        compiled = Workbench().compile(spec, strategy="1d")
        direct = build_1d_crn(lambda t: spec((t,)), name=spec.name)
        assert same_network(compiled.crn, direct)

    def test_leaderless_strategy_matches_direct_construction(self):
        spec = double_spec()
        compiled = Workbench().compile(spec, strategy="leaderless")
        direct = build_leaderless_1d_crn(lambda t: spec((t,)), name=spec.name)
        assert same_network(compiled.crn, direct)

    def test_quilt_strategy_matches_direct_construction(self):
        spec = quilt_2d_fig3b_spec()
        compiled = Workbench().compile(spec, strategy="quilt")
        direct = build_quilt_affine_crn(spec.eventually_min.pieces[0], name=spec.name)
        assert same_network(compiled.crn, direct)

    def test_strategies_match_build_crn_for(self):
        for spec, strategy in [
            (minimum_spec(), "auto"),
            (threshold_capped_spec(), "1d"),
            (quilt_2d_fig3b_spec(), "quilt"),
        ]:
            compiled = Workbench().compile(spec, strategy=strategy)
            assert same_network(compiled.crn, build_crn_for(spec, strategy=strategy))

    def test_compile_is_cached_per_spec_and_strategy(self):
        wb = Workbench()
        spec = threshold_capped_spec()
        first = wb.compile(spec, strategy="1d")
        second = wb.compile(spec, strategy="1d")
        assert first.crn is second.crn
        assert first.compiled_crn is second.compiled_crn

    def test_compile_cache_respects_the_name_argument(self):
        wb = Workbench()
        spec = threshold_capped_spec()
        assert wb.compile(spec, strategy="1d", name="a").crn.name == "a"
        assert wb.compile(spec, strategy="1d", name="b").crn.name == "b"

    def test_compiled_crn_matrices_are_cached_on_the_network(self):
        compiled = Workbench().compile(minimum_spec())
        assert compiled.compiled_crn is compiled.crn.compiled()

    def test_dimension_zero_spec_with_known_crn_still_compiles(self):
        # The known-CRN shortcut must keep running before the dimension
        # check, as it did before strategy dispatch existed.
        from repro.core.specs import FunctionSpec

        known = minimum_spec().known_crn
        spec = FunctionSpec(name="const-ish", dimension=0, func=lambda v: 0, known_crn=known)
        assert build_crn_for(spec) is known
        assert Workbench().compile(spec, strategy="known").crn is known
        with pytest.raises(ValueError, match="1-input constant"):
            build_crn_for(spec, prefer_known=False)


class TestWorkbenchRoundTrip:
    @pytest.mark.parametrize("engine", ["python", "vectorized", "tau", "tau-vec"])
    @pytest.mark.parametrize(
        "factory", [minimum_spec, double_spec, maximum_spec], ids=["min", "2x", "max"]
    )
    def test_compile_simulate_verify_round_trip(self, factory, engine):
        spec = factory()
        wb = Workbench(RunConfig(trials=6, seed=7, engine=engine))
        compiled = wb.compile(spec)
        x = (3,) * spec.dimension
        report = compiled.simulate(x)
        assert report.output_mode == spec(x)
        if engine in ("tau", "tau-vec"):
            # Kinetic-only engines are excluded from the stable-computation
            # verification contract (supports_fair=False): they schedule by
            # Gillespie rates, not the fair scheduler; verify through a
            # fair-capable engine instead.
            with pytest.raises(ValueError, match="supports_fair"):
                compiled.verify(inputs=[x])
            verification = compiled.verify(inputs=[(1,) * spec.dimension, x],
                                           engine="python")
        else:
            verification = compiled.verify(inputs=[(1,) * spec.dimension, x])
        assert verification.passed
        estimate = compiled.expected_output(x, trials=12)
        assert estimate == pytest.approx(spec(x), abs=1.5)

    def test_python_vectorized_parity_on_stable_outputs(self):
        spec = minimum_spec()
        wb = Workbench(RunConfig(trials=5, seed=3))
        compiled = wb.compile(spec)
        python = compiled.simulate((7, 11))
        vectorized = compiled.simulate((7, 11), engine="vectorized")
        assert python.outputs == vectorized.outputs == [7] * 5

    def test_sweep_through_the_facade(self):
        compiled = Workbench(RunConfig(trials=3, seed=9)).compile(minimum_spec())
        reports = compiled.sweep([(1, 1), (2, 3), (5, 2)])
        assert [r.output_mode for r in reports] == [1, 2, 2]

    def test_per_call_overrides_do_not_mutate_the_workbench(self):
        wb = Workbench(RunConfig(trials=4, seed=1))
        compiled = wb.compile(minimum_spec())
        compiled.simulate((2, 2), trials=2, engine="vectorized")
        assert wb.config.trials == 4 and wb.config.engine == "python"
        assert compiled.config.trials == 4

    def test_with_config_derivation(self):
        wb = Workbench(RunConfig(seed=1))
        derived = wb.with_config(engine="vectorized", trials=3)
        assert derived.config.engine == "vectorized"
        assert derived.config.seed == 1
        assert wb.config.engine == "python"

    def test_workbench_characterize_and_engines(self):
        wb = Workbench()
        verdict = wb.characterize(minimum_spec())
        assert verdict.obliviously_computable is True
        assert {info.name for info in wb.engines()} >= {"python", "vectorized", "tau"}

    def test_epsilon_override_flows_through_the_facade(self):
        wb = Workbench(RunConfig(trials=3, seed=2))
        compiled = wb.compile(minimum_spec())
        report = compiled.simulate((2_000, 3_000), engine="tau", epsilon=0.1)
        assert report.output_mode == 2_000
        assert compiled.config.epsilon == 0.03  # per-call override, not mutation

    def test_compiled_function_evaluates_the_spec(self):
        compiled = Workbench().compile(minimum_spec())
        assert compiled((4, 9)) == 4


class TestWorkbenchEngineCapabilityGuards:
    """Explicit per-call requests the resolved engine cannot honour fail fast."""

    def test_epsilon_override_on_exact_engine_rejected(self):
        compiled = Workbench(RunConfig(trials=2, seed=1)).compile(minimum_spec())
        for engine in ("python", "vectorized"):
            with pytest.raises(ValueError, match="exact"):
                compiled.simulate((2, 2), engine=engine, epsilon=0.1)

    def test_fair_request_on_kinetic_only_engine_rejected(self):
        compiled = Workbench(RunConfig(trials=2, seed=1)).compile(minimum_spec())
        for engine in ("tau", "tau-vec"):
            with pytest.raises(ValueError, match="supports_fair"):
                compiled.simulate((2, 2), engine=engine, fair=True)

    def test_fair_assertion_passes_on_fair_capable_engines(self):
        compiled = Workbench(RunConfig(trials=2, seed=1)).compile(minimum_spec())
        report = compiled.simulate((3, 5), fair=True)  # default engine: python
        assert report.output_mode == 3

    def test_kinetic_only_simulate_and_expected_output_flow_through(self):
        wb = Workbench(RunConfig(trials=5, seed=11, engine="tau-vec"))
        compiled = wb.compile(minimum_spec())
        report = compiled.simulate((6, 10))
        assert report.output_mode == 6
        estimate = compiled.expected_output((6, 10), trials=10)
        assert estimate == pytest.approx(6, abs=1.0)

    def test_config_default_epsilon_is_not_an_explicit_request(self):
        # RunConfig always carries epsilon (a carrier field with a default);
        # only an explicit per-call epsilon= override is validated, so exact
        # engines keep working under any stored config.
        wb = Workbench(RunConfig(trials=2, seed=1, epsilon=0.2))
        compiled = wb.compile(minimum_spec())
        assert compiled.simulate((2, 2)).output_mode == 2
        assert compiled.simulate((2, 2), engine="vectorized").output_mode == 2


class TestPublicSurface:
    def test_top_level_exports(self):
        assert repro.Workbench is Workbench
        assert repro.RunConfig is RunConfig
        assert callable(repro.minimum_spec)
        assert callable(repro.all_catalog_specs)
        from repro.api import CompiledFunction, Workbench as ApiWorkbench

        assert ApiWorkbench is Workbench
        assert repro.CompiledFunction is CompiledFunction

    def test_version_synced_with_setup_py(self):
        setup_py = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "setup.py"
        )
        with open(setup_py) as handle:
            match = re.search(r"version=\"([^\"]+)\"", handle.read())
        assert match is not None
        assert match.group(1) == repro.__version__
