"""Campaign declaration and expansion: grids, cells, seeds, engine resolution."""

import pytest

from repro.api.config import RunConfig
from repro.lab import campaign as lab_campaign
from repro.lab.campaign import (
    Campaign,
    SweepGrid,
    register_spec_factory,
    resolve_engine,
    resolve_spec,
    spec_factory_names,
)
from repro.core.specs import FunctionSpec
from repro.sim.registry import get_engine, register_engine, unregister_engine


class TestSweepGrid:
    def test_parse_single_axis_replicates_to_dimension(self):
        grid = SweepGrid.parse("0:3", dimension=2)
        assert grid.dimension == 2
        assert grid.points() == tuple(
            (a, b) for a in range(3) for b in range(3)
        )

    def test_parse_explicit_axes_and_values(self):
        grid = SweepGrid.parse("0:2,5;9")
        assert grid.axes == ((0, 1), (5, 9))
        assert len(grid) == 4

    def test_parse_mixed_range_and_value_in_one_axis(self):
        assert SweepGrid.parse("0:3;7").axes == ((0, 1, 2, 7),)

    def test_from_ranges(self):
        grid = SweepGrid.from_ranges((0, 2), (1, 3))
        assert grid.points() == ((0, 1), (0, 2), (1, 1), (1, 2))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(((),))


class TestSpecRegistry:
    def test_builtin_catalog_registered(self):
        names = spec_factory_names()
        for expected in ("minimum", "add", "double", "minimum_3d", "fig7"):
            assert expected in names

    def test_resolve_unknown_spec_lists_known(self):
        with pytest.raises(ValueError, match="unknown spec"):
            resolve_spec("no-such-spec")

    def test_duplicate_registration_requires_replace(self):
        register_spec_factory(
            "lab-test-dup", lambda: resolve_spec("minimum"), replace=True
        )
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_spec_factory("lab-test-dup", lambda: resolve_spec("minimum"))
        finally:
            # a leftover alias of "minimum" would change the name
            # registered_name_for() reports for it in later tests
            lab_campaign._SPEC_FACTORIES.pop("lab-test-dup", None)
            lab_campaign._SPEC_INSTANCES.pop("lab-test-dup", None)

    def test_resolve_memoizes_per_process(self):
        assert resolve_spec("minimum") is resolve_spec("minimum")


LARGE_INPUTS = ((1_800, 1_700), (20_100, 100), (50_000, 50_000))


class TestEngineResolution:
    # "auto" minimises the registry cost rule step_cost + trials *
    # trial_step_cost within one engine class, so trials decide and the
    # population does not.

    def test_explicit_selector_passes_through(self):
        assert resolve_engine("python", (10**6, 10**6)) == "python"

    def test_auto_small_population_prefers_reference_engine(self):
        assert resolve_engine("auto", (3, 4)) == "python"

    def test_auto_few_trials_picks_python_at_any_population(self):
        for x in LARGE_INPUTS:
            assert resolve_engine("auto", x, RunConfig(trials=4)) == "python"
            assert resolve_engine("auto", x, RunConfig(trials=10)) == "python"
            assert resolve_engine("auto", x) == "python"  # RunConfig().trials == 10

    def test_auto_many_trials_picks_vectorized_at_any_population(self):
        for x in ((3, 4),) + LARGE_INPUTS:
            assert resolve_engine("auto", x, RunConfig(trials=128)) == "vectorized"

    def test_auto_with_allow_approximate_picks_by_trials(self):
        # With the opt-in, populations at or past the approximate engines'
        # min_recommended_population floor resolve to the cheaper
        # approximate engine: scalar tau for few trials, batched tau-vec
        # for many.
        for x in ((50_000, 50_000), (10_000,)):
            for trials, engine in ((4, "tau"), (10, "tau"), (128, "tau-vec")):
                config = RunConfig(trials=trials, allow_approximate=True)
                assert resolve_engine("auto", x, config) == engine

    def test_auto_without_opt_in_stays_exact(self):
        # The default config never resolves "auto" to an approximate engine.
        for trials in (1, 4, 16, 64, 128, 1024):
            engine = resolve_engine("auto", (50_000, 50_000), RunConfig(trials=trials))
            assert not get_engine(engine).approximate
        assert resolve_engine("auto", (50_000, 50_000)) == "python"

    def test_auto_with_opt_in_small_population_stays_exact(self):
        # Under the floor, leaping degrades to exact stepping, so the opt-in
        # changes nothing and the exact resolution (by trials) wins.
        for trials, engine in ((4, "python"), (10, "python"), (128, "vectorized")):
            config = RunConfig(trials=trials, allow_approximate=True)
            assert resolve_engine("auto", (3, 4), config) == engine
            assert resolve_engine("auto", (9_999,), config) == engine

    def test_explicit_selector_ignores_allow_approximate(self):
        config = RunConfig(allow_approximate=True)
        assert resolve_engine("python", (10**6, 10**6), config) == "python"
        assert resolve_engine("vectorized", (50_000, 50_000), config) == "vectorized"

    def test_auto_reads_costs_not_population_ceilings(self):
        # A registered engine competes on its cost constants alone: a cheap
        # one wins even far past its advisory population ceiling, and an
        # uncalibrated one is never picked.
        implementation = get_engine("python").implementation
        register_engine(
            "lab-test-cheap", max_recommended_population=10, trial_step_cost=1e-12
        )(implementation)
        register_engine("lab-test-uncalibrated")(implementation)
        config = RunConfig(trials=4)
        try:
            assert resolve_engine("auto", (50_000, 50_000), config) == "lab-test-cheap"
            unregister_engine("lab-test-cheap")
            assert resolve_engine("auto", (50_000, 50_000), config) == "python"
        finally:
            unregister_engine("lab-test-cheap")
            unregister_engine("lab-test-uncalibrated")


class TestCampaignExpansion:
    def campaign(self, **overrides):
        kwargs = dict(
            name="t",
            specs=["minimum"],
            inputs=SweepGrid.parse("0:3", dimension=2),
            engines=("python",),
            configs=(RunConfig(trials=2),),
            seed=5,
        )
        kwargs.update(overrides)
        return Campaign(**kwargs)

    def test_auto_resolution_is_per_config_variant(self):
        # "auto" is resolved inside the config-variant loop, so one campaign
        # can mix exact baselines with approximate opt-in variants, and each
        # cell records the engine its own config (trials, opt-in) resolved to.
        campaign = self.campaign(
            inputs=((30_000, 30_000),),
            engines=("auto",),
            configs=tuple(
                RunConfig(trials=trials, allow_approximate=opt_in)
                for trials in (2, 128)
                for opt_in in (False, True)
            ),
        )
        engines = {
            (cell.config.trials, cell.config.allow_approximate): cell.engine
            for cell in campaign.expand()
        }
        assert engines == {
            (2, False): "python",
            (2, True): "tau",
            (128, False): "vectorized",
            (128, True): "tau-vec",
        }

    def test_grid_is_normalized_to_points(self):
        campaign = self.campaign()
        assert campaign.inputs == SweepGrid.parse("0:3", dimension=2).points()

    def test_cell_count_is_product_of_axes(self):
        campaign = self.campaign(engines=("python", "vectorized"))
        assert len(campaign.expand()) == 9 * 2

    def test_expansion_is_deterministic(self):
        first = self.campaign().expand()
        second = self.campaign().expand()
        assert [(c.cell_id, c.config.seed) for c in first] == [
            (c.cell_id, c.config.seed) for c in second
        ]

    def test_cells_get_distinct_derived_seeds(self):
        cells = self.campaign().expand()
        seeds = [cell.config.seed for cell in cells]
        assert all(seed is not None for seed in seeds)
        assert len(set(seeds)) == len(seeds)

    def test_cell_seed_independent_of_other_axes(self):
        # the same descriptor keeps the same seed when the campaign grows
        small = {(c.spec, c.input, c.engine): c.config.seed for c in self.campaign().expand()}
        grown = self.campaign(engines=("python", "vectorized")).expand()
        for cell in grown:
            key = (cell.spec, cell.input, cell.engine)
            if key in small:
                assert small[key] == cell.config.seed

    def test_different_master_seed_changes_cell_seeds_and_ids(self):
        a = self.campaign(seed=5).expand()
        b = self.campaign(seed=6).expand()
        assert [c.cell_id for c in a] != [c.cell_id for c in b]

    def test_unseeded_campaign_is_uncacheable(self):
        cells = self.campaign(seed=None, configs=(RunConfig(trials=2),)).expand()
        assert all(cell.config.seed is None for cell in cells)
        assert not any(cell.cacheable for cell in cells)

    def test_dimension_mismatch_raises(self):
        campaign = self.campaign(inputs=[(1, 2, 3)])
        with pytest.raises(ValueError, match="coordinates"):
            campaign.expand()

    def test_duplicate_config_variants_collapse(self):
        campaign = self.campaign(configs=(RunConfig(trials=2), RunConfig(trials=2)))
        assert len(campaign.expand()) == 9

    def test_function_spec_instance_auto_registers(self):
        spec = FunctionSpec(name="lab-test-inline", dimension=1, func=lambda x: x[0])
        campaign = Campaign(
            name="t", specs=[spec], inputs=[(2,)], engines=("python",), seed=1
        )
        cells = campaign.expand()
        assert cells[0].spec == "lab-test-inline"
        assert resolve_spec("lab-test-inline") is spec
        # the same instance can be reused; a *different* spec under a taken
        # name is rejected rather than silently rebinding it process-wide
        Campaign(name="t2", specs=[spec], inputs=[(2,)], engines=("python",), seed=1)
        impostor = FunctionSpec(name="minimum", dimension=2, func=lambda x: 0)
        with pytest.raises(ValueError, match="already registered"):
            Campaign(name="t3", specs=[impostor], inputs=[(1, 1)], engines=("python",), seed=1)

    def test_empty_axes_rejected(self):
        for field in ("specs", "inputs", "engines", "configs"):
            with pytest.raises(ValueError):
                self.campaign(**{field: ()})

    def test_manifest_round_trip(self):
        campaign = self.campaign(engines=("python", "auto"))
        rebuilt = Campaign.from_dict(campaign.to_dict())
        assert rebuilt.to_dict() == campaign.to_dict()
        assert [c.cell_id for c in rebuilt.expand()] == [
            c.cell_id for c in campaign.expand()
        ]

    def test_manifest_save_load(self, tmp_path):
        path = tmp_path / "manifest.json"
        campaign = self.campaign()
        campaign.save(str(path))
        assert Campaign.load(str(path)).to_dict() == campaign.to_dict()

    def test_campaign_name_not_part_of_cell_identity(self):
        a = self.campaign(name="first").expand()
        b = self.campaign(name="second").expand()
        assert [c.cell_id for c in a] == [c.cell_id for c in b]
